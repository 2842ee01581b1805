"""Command line front end.

Subcommands: ``analyze`` (full pipeline, one JSON record per input graph),
``oddness``, ``cyclic``, ``flow`` (generic nowhere-zero k-flow solver) and
``certify`` (re-verify a flow certificate against a graph).  Input is a file
of graph6/sparse6 lines, a JSON edge list, or ``-`` for stdin.

Exit codes: 0 success, 1 anomaly found, 2 input error, 3 budget exceeded,
4 internal error (a broken invariant; that graph's ``analyze`` record carries
``"internal_error": true`` and the batch goes on).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor

from .errors import BudgetExceededError, InternalInconsistencyError
from .flows import flow_from_json, flow_to_json, is_nowhere_zero, solve_nowhere_zero_flow, verify_flow
from .graph import MultiGraph
from .graph6 import Graph6Error, parse_graph6
from .structure import (
    CyclicConnectivity,
    compute_oddness,
    cyclic_connectivity,
    is_cyclically_k_connected,
)
from .engine import five_flow_oddness4

EXIT_OK = 0
EXIT_ANOMALY = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _iter_records(path: str, lenient: bool):
    """Stream ('graph', name, g) and ('error', message) items from the input.

    graph6/sparse6 files are processed line by line so arbitrarily long
    catalogs run in constant memory; JSON inputs are necessarily slurped.
    Without ``lenient`` the stream stops at the first malformed record.
    """
    if path == "-":
        fh = sys.stdin
        close = False
    else:
        fh = open(path, "r", encoding="ascii")
        close = True
    try:
        first = fh.readline()
        lineno, line = 0, first
        if first.lstrip().startswith(("{", "[")):
            # graph6 writes n = 28 and n = 60 as "[" and "{"; no JSON text is
            # a valid record, as parse_graph6 enforces its exact length and
            # character range
            try:
                head = parse_graph6(first)
            except Graph6Error:
                head = None
            if head is None:
                try:
                    obj = json.loads(first + fh.read())
                except json.JSONDecodeError as exc:
                    yield ("error", f"JSON parse error: {exc}")
                    return
                records = obj if isinstance(obj, list) else [obj]
                for i, rec in enumerate(records):
                    try:
                        yield ("graph", f"json-{i}", MultiGraph.from_json(rec))
                    except (ValueError, TypeError) as exc:
                        yield ("error", f"record {i}: {exc}")
                        if not lenient:
                            return
                return
            yield ("graph", "line-1", head)
            lineno, line = 1, fh.readline()
        while line:
            lineno += 1
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                try:
                    yield ("graph", f"line-{lineno}", parse_graph6(stripped))
                except Graph6Error as exc:
                    yield ("error", f"line {lineno}: {exc}")
                    if not lenient:
                        return
            line = fh.readline()
    finally:
        if close:
            fh.close()


def _load_graphs(path: str, lenient: bool) -> tuple[list[tuple[str, MultiGraph]], list[str]]:
    """Materialized form of :func:`_iter_records` for the small commands."""
    graphs: list[tuple[str, MultiGraph]] = []
    errors: list[str] = []
    for item in _iter_records(path, lenient):
        if item[0] == "graph":
            graphs.append((item[1], item[2]))
        else:
            errors.append(item[1])
    return graphs, errors


def _cyclic_summary(
    res: CyclicConnectivity | None, status: str = "budget_exceeded"
) -> dict:
    """The ``cyclic_connectivity`` record: the exact value, the vacuous
    verdict, or, when there is no result, ``status`` ("budget_exceeded" or
    "skipped")."""
    if res is None:
        return {"status": status}
    if res.vacuous:
        return {"status": "vacuous", "note": "no two vertex-disjoint cycles"}
    return {"status": "exact", "value": res.value}


def _analyze_one(args_tuple):
    name, g, opts = args_tuple
    started = time.perf_counter()
    record: dict = {"name": name, "n": g.n, "m": g.m}
    try:
        cert = five_flow_oddness4(
            g,
            check_cyclic=not opts["skip_cyclic"],
            cyclic_max_work=opts["max_work"],
            oddness_max_work=opts["max_work"],
            solver_max_work=opts["max_work"],
        )
        record["oddness"] = cert.oddness
        record["outcome"] = cert.to_json()
        record["cyclic_connectivity"] = _cyclic_summary(
            cert.cyclic_connectivity, cert.cyclic["status"]
        )
    except BudgetExceededError as exc:
        record["error"] = f"budget exceeded: {exc}"
        record["budget_exceeded"] = True
    except InternalInconsistencyError as exc:
        record["error"] = f"internal error: {exc}"
        record["internal_error"] = True
    except ValueError as exc:
        record["error"] = str(exc)
    record["timings"] = {"seconds": round(time.perf_counter() - started, 6)}
    return record


def _emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record, sort_keys=True, separators=(",", ":")))
    sys.stdout.write("\n")


def cmd_analyze(args) -> int:
    opts = {"skip_cyclic": args.skip_cyclic, "max_work": args.max_work}
    state = {"code": EXIT_OK}

    def tasks():
        for item in _iter_records(args.path, args.lenient):
            if item[0] == "error":
                print(f"input error: {item[1]}", file=sys.stderr)
                state["code"] = max(state["code"], EXIT_INPUT)
                continue
            yield (item[1], item[2], opts)

    def consume(record):
        _emit(record)
        outcome = record.get("outcome", {})
        if isinstance(outcome, dict) and outcome.get("outcome") == "bad_pair_anomaly":
            state["code"] = max(state["code"], EXIT_ANOMALY)
        if record.get("budget_exceeded"):
            state["code"] = max(state["code"], EXIT_BUDGET)
        if record.get("internal_error"):
            state["code"] = max(state["code"], EXIT_INTERNAL)

    if args.jobs > 1:
        # windowed submission keeps memory flat while preserving input order
        window = 4 * args.jobs
        pending = deque()
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            for task in tasks():
                pending.append(pool.submit(_analyze_one, task))
                if len(pending) >= window:
                    consume(pending.popleft().result())
            while pending:
                consume(pending.popleft().result())
    else:
        for task in tasks():
            consume(_analyze_one(task))
    return state["code"]


def cmd_oddness(args) -> int:
    graphs, errors = _load_graphs(args.path, args.lenient)
    for err in errors:
        print(f"input error: {err}", file=sys.stderr)
    if errors and not args.lenient:
        return EXIT_INPUT
    try:
        for name, g in graphs:
            res = compute_oddness(g, max_work=args.max_work)
            _emit(
                {
                    "name": name,
                    "n": g.n,
                    "oddness": res.oddness,
                    "odd_circuits": sum(
                        1 for c in res.witness.circuits if len(c) % 2
                    ),
                    "circuit_lengths": sorted(
                        len(c) for c in res.witness.circuits
                    ),
                }
            )
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_INPUT if errors else EXIT_OK


def cmd_cyclic(args) -> int:
    if args.k is not None and args.k < 1:
        print("input error: --k must be at least 1", file=sys.stderr)
        return EXIT_INPUT
    graphs, errors = _load_graphs(args.path, args.lenient)
    for err in errors:
        print(f"input error: {err}", file=sys.stderr)
    if errors and not args.lenient:
        return EXIT_INPUT
    code = EXIT_INPUT if errors else EXIT_OK
    for name, g in graphs:
        record: dict = {"name": name}
        if args.k is not None:
            record["k"] = args.k
        try:
            if args.k is not None:
                chk = is_cyclically_k_connected(g, args.k, max_work=args.max_work)
                record["cyclically_k_connected"] = chk.connected
                if chk.witness is not None:
                    record["witness_cut"] = sorted(chk.witness.edges)
                    record["witness_side"] = list(chk.witness.side)
            else:
                res = cyclic_connectivity(g, max_work=args.max_work)
                record.update(_cyclic_summary(res))
        except BudgetExceededError:
            record.update(_cyclic_summary(None))
            code = max(code, EXIT_BUDGET)
        _emit(record)
    return code


def cmd_flow(args) -> int:
    graphs, errors = _load_graphs(args.path, args.lenient)
    for err in errors:
        print(f"input error: {err}", file=sys.stderr)
    if errors and not args.lenient:
        return EXIT_INPUT
    try:
        for name, g in graphs:
            flow = solve_nowhere_zero_flow(g, args.k, max_work=args.max_work)
            if flow is None:
                _emit({"name": name, "k": args.k, "satisfiable": False})
            else:
                _emit(
                    {
                        "name": name,
                        "k": args.k,
                        "satisfiable": True,
                        "certificate": flow_to_json(flow),
                    }
                )
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_INPUT if errors else EXIT_OK


def cmd_certify(args) -> int:
    graphs, errors = _load_graphs(args.graph, lenient=False)
    if errors or len(graphs) != 1:
        for err in errors:
            print(f"input error: {err}", file=sys.stderr)
        if len(graphs) != 1:
            print("certify expects exactly one graph", file=sys.stderr)
        return EXIT_INPUT
    _, g = graphs[0]
    try:
        cert_obj = json.loads(_read_text(args.certificate))
    except json.JSONDecodeError as exc:
        print(f"certificate parse error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        flow = flow_from_json(g, cert_obj)
    except ValueError as exc:
        _emit({"verdict": "REJECT", "reason": str(exc)})
        return EXIT_ANOMALY
    if not is_nowhere_zero(flow):
        zero = [e for e, val in enumerate(flow.values) if val == 0]
        _emit(
            {
                "verdict": "REJECT",
                "reason": "zero-valued edges",
                "edges": zero,
            }
        )
        return EXIT_ANOMALY
    violations = verify_flow(g, flow)
    if violations:
        _emit(
            {
                "verdict": "REJECT",
                "reason": "conservation fails",
                "violations": [
                    {"vertex": v, "imbalance": d} for v, d in violations
                ],
            }
        )
        return EXIT_ANOMALY
    _emit({"verdict": "ACCEPT", "k": flow.modulus})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nzflow",
        description="Nowhere-zero flow analysis of cubic graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("path", help="graph6/sparse6 lines, JSON edge list, or -")
        p.add_argument(
            "--lenient",
            action="store_true",
            help="skip malformed records instead of stopping",
        )
        p.add_argument(
            "--max-work",
            type=int,
            default=2_000_000,
            help="work budget for bounded searches",
        )

    p = sub.add_parser("analyze", help="full pipeline, JSON record per graph")
    add_common(p)
    p.add_argument("--jobs", type=int, default=1, help="parallel worker count")
    p.add_argument(
        "--skip-cyclic",
        action="store_true",
        help="do not compute cyclic connectivity",
    )
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("oddness", help="oddness with witness statistics")
    add_common(p)
    p.set_defaults(func=cmd_oddness)

    p = sub.add_parser("cyclic", help="cyclic edge-connectivity")
    add_common(p)
    p.add_argument("--k", type=int, default=None, help="test a specific k")
    p.set_defaults(func=cmd_cyclic)

    p = sub.add_parser("flow", help="generic nowhere-zero k-flow solver")
    add_common(p)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("certify", help="verify a flow certificate")
    p.add_argument("graph", help="graph file (single graph)")
    p.add_argument("certificate", help="flow certificate JSON")
    p.set_defaults(func=cmd_certify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
