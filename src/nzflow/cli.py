"""Command line front end.

Subcommands: ``analyze`` (full pipeline, one JSON record per input graph),
``oddness``, ``cyclic``, ``flow`` (generic nowhere-zero k-flow solver) and
``certify`` (re-verify a flow certificate against a graph).  Input is a file
of graph6/sparse6 lines, a JSON edge list, or ``-`` for stdin.

``analyze``, ``oddness``, ``cyclic`` and ``flow`` stream through one driver,
:func:`_stream`: it reads one graph at a time and emits one JSON record per
graph, filled by the command's record function.  When that computation
fails, the record carries ``"error"`` (with ``"budget_exceeded": true`` or
``"internal_error": true`` where they apply), one ``<name>: <error>`` line
goes to stderr, and the stream goes on.  A malformed input record is
reported on stderr as ``input error: ...`` and, without ``--lenient``, ends
the stream after the records before it.  No search recurses, so a large
graph needs no more Python stack than a small one.

:func:`main` may be called repeatedly in one process: it builds its argument
parser once, at the first call, and every call parses, computes and verifies
its own records from scratch.  Importing this module builds no parser, and
only ``--jobs N`` with N > 1 loads the process pool.

Exit codes, the worst one seen wins: 0 success, 1 anomaly found or
certificate rejected, 2 input error (also a graph outside the command's
domain, such as a non-cubic one for ``analyze`` or ``oddness``), 3 budget
exceeded, 4 internal error (a broken invariant, that is, a bug).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from collections import deque

from .errors import DEFAULT_MAX_WORK, BudgetExceededError, InternalInconsistencyError
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
                except (json.JSONDecodeError, RecursionError) as exc:
                    yield ("error", f"JSON parse error: {exc}")
                    return
                records = obj if isinstance(obj, list) else [obj]
                for i, rec in enumerate(records):
                    try:
                        yield ("graph", f"json-{i}", MultiGraph.from_json(rec))
                    except ValueError as exc:
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


def _cyclic_summary(res: CyclicConnectivity) -> dict:
    """The ``cyclic_connectivity`` record of a result: the exact value or the
    vacuous verdict."""
    if res.vacuous:
        return {"status": "vacuous", "note": "no two vertex-disjoint cycles"}
    return {"status": "exact", "value": res.value}


# Record functions: each fills one graph's record, head fields first, and
# lets its computation's errors reach the driver.


def _analyze(record: dict, g: MultiGraph, args) -> None:
    started = time.perf_counter()
    record["n"], record["m"] = g.n, g.m
    try:
        cert = five_flow_oddness4(
            g,
            check_cyclic=not args.skip_cyclic,
            max_work=args.max_work,
        )
        record["oddness"] = cert.oddness
        record["outcome"] = cert.to_json()
        res = cert.cyclic_connectivity
        record["cyclic_connectivity"] = (
            _cyclic_summary(res) if res is not None else {"status": cert.cyclic["status"]}
        )
    finally:
        record["timings"] = {"seconds": round(time.perf_counter() - started, 6)}


def _oddness(record: dict, g: MultiGraph, args) -> None:
    record["n"] = g.n
    res = compute_oddness(g, max_work=args.max_work)
    lengths = sorted(len(c) for c in res.witness.circuits)
    record["oddness"] = res.oddness
    record["odd_circuits"] = sum(1 for length in lengths if length % 2)
    record["circuit_lengths"] = lengths


def _cyclic(record: dict, g: MultiGraph, args) -> None:
    if args.k is None:
        record.update(_cyclic_summary(cyclic_connectivity(g, max_work=args.max_work)))
        return
    record["k"] = args.k
    chk = is_cyclically_k_connected(g, args.k, max_work=args.max_work)
    record["cyclically_k_connected"] = chk.connected
    if chk.witness is not None:
        record["witness_cut"] = sorted(chk.witness.edges)
        record["witness_side"] = list(chk.witness.side)


def _flow(record: dict, g: MultiGraph, args) -> None:
    record["k"] = args.k
    flow = solve_nowhere_zero_flow(g, args.k, max_work=args.max_work)
    record["satisfiable"] = flow is not None
    if flow is not None:
        record["certificate"] = flow_to_json(flow)


def _run(task) -> dict:
    """One graph's record under the shared error contract."""
    name, g, args = task
    record: dict = {"name": name}
    try:
        args.record(record, g, args)
    except BudgetExceededError as exc:
        record["error"] = f"budget exceeded: {exc}"
        record["budget_exceeded"] = True
    except InternalInconsistencyError as exc:
        record["error"] = f"internal error: {exc}"
        record["internal_error"] = True
    except ValueError as exc:
        record["error"] = str(exc)
    return record


def _exit_code(record: dict) -> int:
    if record.get("budget_exceeded"):
        return EXIT_BUDGET
    if record.get("internal_error"):
        return EXIT_INTERNAL
    if "error" in record:
        return EXIT_INPUT
    if record.get("outcome", {}).get("outcome") == "bad_pair_anomaly":
        return EXIT_ANOMALY
    return EXIT_OK


def _emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record, sort_keys=True, separators=(",", ":")))
    sys.stdout.write("\n")


_MIN_K = {"cyclic": 1, "flow": 2}  # the smallest --k each command accepts


def _stream(args) -> int:
    """Emit ``args.record``'s record for every graph of ``args.path``, in
    input order, and return the worst exit code seen."""
    min_k = _MIN_K.get(args.command)
    if min_k is not None and args.k is not None and args.k < min_k:
        print(f"input error: --k must be at least {min_k}", file=sys.stderr)
        return EXIT_INPUT
    if args.max_work < 0:
        print("input error: --max-work must be at least 0", file=sys.stderr)
        return EXIT_INPUT
    jobs = getattr(args, "jobs", 1)
    if jobs < 1:
        print("input error: --jobs must be at least 1", file=sys.stderr)
        return EXIT_INPUT
    if jobs > 1:
        # the fork start method launches every worker at the first submit
        jobs = min(jobs, os.cpu_count() or 1)
    code = EXIT_OK

    def tasks():
        nonlocal code
        for item in _iter_records(args.path, args.lenient):
            if item[0] == "error":
                print(f"input error: {item[1]}", file=sys.stderr)
                code = max(code, EXIT_INPUT)
            else:
                yield (item[1], item[2], args)

    def consume(record):
        nonlocal code
        _emit(record)
        if "error" in record:
            print(f"{record['name']}: {record['error']}", file=sys.stderr)
        code = max(code, _exit_code(record))

    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        # windowed submission keeps memory flat while preserving input order
        window = 4 * jobs
        pending = deque()
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for task in tasks():
                pending.append(pool.submit(_run, task))
                if len(pending) >= window:
                    consume(pending.popleft().result())
            while pending:
                consume(pending.popleft().result())
    else:
        for task in tasks():
            consume(_run(task))
    return code


def cmd_certify(args) -> int:
    graphs = []
    for item in _iter_records(args.graph, lenient=False):
        if item[0] == "error":
            print(f"input error: {item[1]}", file=sys.stderr)
            return EXIT_INPUT
        graphs.append(item[2])
    if len(graphs) != 1:
        print("certify expects exactly one graph", file=sys.stderr)
        return EXIT_INPUT
    (g,) = graphs
    try:
        cert_obj = json.loads(_read_text(args.certificate))
    except (json.JSONDecodeError, RecursionError) as exc:
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``nzflow`` parser, built at the first call and shared after it;
    ``parse_args`` returns a fresh namespace every time."""
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
            default=DEFAULT_MAX_WORK,
            help="work budget for bounded searches",
        )

    p = sub.add_parser("analyze", help="full pipeline, JSON record per graph")
    add_common(p)
    p.add_argument("--jobs", type=int, default=1, help="worker processes, at most the CPU count")
    p.add_argument(
        "--skip-cyclic",
        action="store_true",
        help="do not compute cyclic connectivity",
    )
    p.set_defaults(func=_stream, record=_analyze)

    p = sub.add_parser("oddness", help="oddness with witness statistics")
    add_common(p)
    p.set_defaults(func=_stream, record=_oddness)

    p = sub.add_parser("cyclic", help="cyclic edge-connectivity")
    add_common(p)
    p.add_argument("--k", type=int, default=None, help="test a specific k")
    p.set_defaults(func=_stream, record=_cyclic)

    p = sub.add_parser("flow", help="generic nowhere-zero k-flow solver")
    add_common(p)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_stream, record=_flow)

    p = sub.add_parser("certify", help="verify a flow certificate")
    p.add_argument("graph", help="graph file (single graph)")
    p.add_argument("certificate", help="flow certificate JSON")
    p.set_defaults(func=cmd_certify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_OK
    except (OSError, UnicodeDecodeError) as exc:
        # a missing or unreadable input, or a directory given as a file
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
