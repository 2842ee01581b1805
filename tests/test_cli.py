import argparse
import ast
import concurrent.futures
import io
import json
import os
import subprocess
import sys
from concurrent.futures import Future
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import recursion_headroom

import nzflow.cli
import nzflow.engine
import nzflow.structure
from nzflow import InternalInconsistencyError
from nzflow.cli import EXIT_INTERNAL, main
from nzflow.catalog import flower_snark, k4, petersen, prism
from nzflow.flows import Flow, flow_to_json, solve_nowhere_zero_flow
from nzflow.graph6 import parse_graph6, serialize_graph6

# each streaming command: its extra arguments, and the name in nzflow.cli
# through which it runs its computation
COMMANDS = {
    "analyze": ([], "five_flow_oddness4"),
    "oddness": ([], "compute_oddness"),
    "cyclic": ([], "cyclic_connectivity"),
    "flow": (["--k", "5"], "solve_nowhere_zero_flow"),
}


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records(out):
    return [json.loads(line) for line in out.splitlines() if line.strip()]


@pytest.fixture()
def petersen_file(tmp_path):
    path = tmp_path / "petersen.g6"
    path.write_text(serialize_graph6(petersen()) + "\n")
    return str(path)


@pytest.fixture()
def mixed_file(tmp_path):
    path = tmp_path / "mixed.g6"
    path.write_text(
        serialize_graph6(petersen()) + "\n" + serialize_graph6(k4()) + "\n"
    )
    return str(path)


def test_analyze_petersen(capsys, petersen_file):
    code, out, _ = run_cli(capsys, ["analyze", petersen_file])
    assert code == 0
    recs = records(out)
    assert len(recs) == 1
    rec = recs[0]
    assert rec["oddness"] == 2
    assert rec["outcome"]["outcome"] == "flow_found"
    assert rec["cyclic_connectivity"] == {"status": "exact", "value": 5}
    assert "timings" in rec
    # embedded certificate re-verifies on load (against the parsed graph,
    # whose edge ids follow the graph6 record)
    from nzflow import flow_from_json, is_nowhere_zero, parse_graph6, verify_flow

    g = parse_graph6(serialize_graph6(petersen()))
    flow = flow_from_json(g, rec["outcome"]["flow"])
    assert verify_flow(g, flow) == [] and is_nowhere_zero(flow)


def test_analyze_empty_file(capsys, tmp_path):
    path = tmp_path / "empty.g6"
    path.write_text("")
    code, out, _ = run_cli(capsys, ["analyze", str(path)])
    assert code == 0
    assert out == ""


@pytest.mark.parametrize("command", COMMANDS)
def test_malformed_line_fails_without_lenient(capsys, tmp_path, command):
    path = tmp_path / "bad.g6"
    path.write_text(serialize_graph6(k4()) + "\n!!!\n")
    code, out, err = run_cli(capsys, [command, str(path), *COMMANDS[command][0]])
    assert code == 2
    assert "line 2" in err
    # the records before the bad line are emitted
    assert [r["name"] for r in records(out)] == ["line-1"]


def test_analyze_lenient_skips_malformed(capsys, tmp_path):
    path = tmp_path / "bad.g6"
    path.write_text("!!!\n" + serialize_graph6(k4()) + "\n")
    code, out, err = run_cli(capsys, ["analyze", str(path), "--lenient"])
    assert code == 2  # input errors still reflected in the exit code
    recs = records(out)
    assert len(recs) == 1
    assert recs[0]["oddness"] == 0
    assert "line 1" in err


def test_analyze_json_input(capsys, tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(petersen().to_json()))
    code, out, _ = run_cli(capsys, ["analyze", str(path)])
    assert code == 0
    assert records(out)[0]["oddness"] == 2


def test_analyze_multiline_json_input(capsys, tmp_path):
    path = tmp_path / "graphs.json"
    path.write_text(json.dumps([petersen().to_json(), k4().to_json()], indent=1))
    assert path.read_text().splitlines()[0] == "["
    code, out, _ = run_cli(capsys, ["analyze", str(path)])
    assert code == 0
    assert [r["oddness"] for r in records(out)] == [2, 0]


@pytest.mark.parametrize("k", [7, 15])
def test_analyze_reads_graph6_that_starts_like_json(capsys, tmp_path, k):
    # graph6 writes n = 28 as "[" and n = 60 as "{"
    line = serialize_graph6(flower_snark(k))
    assert line[0] in "[{"
    path = tmp_path / f"flower-{k}.g6"
    path.write_text(line + "\n" + serialize_graph6(k4()) + "\n")
    code, out, err = run_cli(capsys, ["analyze", str(path), "--skip-cyclic"])
    assert code == 0, err
    recs = records(out)
    assert [(r["name"], r["oddness"]) for r in recs] == [("line-1", 2), ("line-2", 0)]
    assert recs[0]["outcome"]["outcome"] == "flow_found"


def test_analyze_max_work_bounds_the_oddness_search(capsys, tmp_path):
    path = tmp_path / "flower-9.g6"
    path.write_text(serialize_graph6(flower_snark(9)) + "\n")
    argv = ["analyze", str(path), "--skip-cyclic", "--max-work", "50"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 3
    (rec,) = records(out)
    assert rec["budget_exceeded"] is True
    assert "oddness search exceeded 50" in rec["error"]


def test_analyze_stdin(capsys, monkeypatch):
    monkeypatch.setattr(
        "sys.stdin", io.StringIO(serialize_graph6(k4()) + "\n")
    )
    code, out, _ = run_cli(capsys, ["analyze", "-"])
    assert code == 0
    assert records(out)[0]["n"] == 4


def test_analyze_jobs_preserve_order_and_content(capsys, mixed_file):
    code1, out1, _ = run_cli(capsys, ["analyze", mixed_file])
    code2, out2, _ = run_cli(capsys, ["analyze", mixed_file, "--jobs", "2"])
    assert code1 == code2 == 0

    def strip_timings(out):
        recs = records(out)
        for r in recs:
            r.pop("timings", None)
        return recs

    assert strip_timings(out1) == strip_timings(out2)


def test_analyze_deterministic(capsys, mixed_file):
    _, out1, _ = run_cli(capsys, ["analyze", mixed_file])
    _, out2, _ = run_cli(capsys, ["analyze", mixed_file])

    def strip(out):
        lines = []
        for rec in records(out):
            rec.pop("timings", None)
            lines.append(json.dumps(rec, sort_keys=True))
        return lines

    assert strip(out1) == strip(out2)


def test_analyze_computes_cyclic_connectivity_once(capsys, monkeypatch, mixed_file):
    calls = {"cyclic_connectivity": 0, "is_cyclically_k_connected": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (nzflow.cli, nzflow.engine, nzflow.structure):
        for name in calls:
            fn = getattr(module, name, None)
            if fn is not None:
                monkeypatch.setattr(module, name, counted(name, fn))
    code, out, _ = run_cli(capsys, ["analyze", mixed_file])
    assert code == 0
    assert calls == {"cyclic_connectivity": 2, "is_cyclically_k_connected": 0}
    petersen_rec, k4_rec = records(out)
    assert petersen_rec["cyclic_connectivity"] == {"status": "exact", "value": 5}
    assert petersen_rec["outcome"]["cyclic"] == {
        "status": "checked",
        "at_least_six": False,
        "witness_cut_size": 5,
    }
    assert k4_rec["cyclic_connectivity"]["status"] == "vacuous"
    assert k4_rec["outcome"]["cyclic"] == {"status": "checked", "at_least_six": True}


def test_analyze_verifies_flower_snarks_cyclically_six_connected(capsys, tmp_path):
    # J7-J13, under the default --max-work
    path = tmp_path / "flowers.g6"
    records6 = (serialize_graph6(flower_snark(k)) for k in (7, 9, 11, 13))
    path.write_text("".join(r + "\n" for r in records6))
    code, out, _ = run_cli(capsys, ["analyze", str(path)])
    assert code == 0
    recs = records(out)
    assert len(recs) == 4
    for rec in recs:
        assert rec["oddness"] == 2
        assert rec["cyclic_connectivity"] == {"status": "exact", "value": 6}
        assert rec["outcome"]["cyclic"] == {"status": "checked", "at_least_six": True}


@pytest.mark.parametrize("command", COMMANDS)
def test_internal_error_spares_later_records(capsys, monkeypatch, mixed_file, command):
    extra, attr = COMMANDS[command]
    real = getattr(nzflow.cli, attr)
    seen = []

    def fails_first(g, *args, **kwargs):
        seen.append(g.n)
        if len(seen) == 1:
            raise InternalInconsistencyError("injected")
        return real(g, *args, **kwargs)

    monkeypatch.setattr(nzflow.cli, attr, fails_first)
    code, out, err = run_cli(capsys, [command, mixed_file, *extra])
    assert code == EXIT_INTERNAL == 4
    first, second = records(out)
    assert first["internal_error"] is True
    assert "injected" in first["error"]
    assert "line-1: internal error: injected" in err
    assert second["name"] == "line-2" and "error" not in second
    if command == "analyze":
        assert second["n"] == 4
        assert second["outcome"]["outcome"] == "flow_found"


@pytest.mark.parametrize("command", ["analyze", "oddness"])
def test_deep_oddness_search_needs_no_recursion(capsys, tmp_path, command):
    # a recursive oddness search would nest one frame per matched edge,
    # 1,500 on prism(1500); here the stack has 50 frames to spare
    path = tmp_path / "deep.g6"
    path.write_text(serialize_graph6(prism(1500)) + "\n" + serialize_graph6(petersen()) + "\n")
    extra = ["--skip-cyclic"] if command == "analyze" else []
    with recursion_headroom():
        code, out, err = run_cli(capsys, [command, str(path), *extra])
    assert code == 0 and err == ""
    first, second = records(out)
    assert first["n"] == 3000 and first["oddness"] == 0
    assert "error" not in first
    if command == "analyze":
        assert first["outcome"]["outcome"] == "flow_found"
    assert second["name"] == "line-2" and "error" not in second
    assert second["oddness"] == 2


def _self_calls(path):
    """``(function, line)`` for each call of a function by its own name,
    directly or through ``self``/``cls``, anywhere in its body."""
    found = []
    for fn in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name):
                name = f.id
            elif (
                isinstance(f, ast.Attribute)
                and isinstance(f.value, ast.Name)
                and f.value.id in ("self", "cls")
            ):
                name = f.attr
            else:
                continue  # a call through another object, such as super()
            if name == fn.name:
                found.append((fn.name, node.lineno))
    return found


def test_no_package_function_calls_itself():
    # the CLI has no handler for RecursionError: no search may recurse
    tests = Path(__file__).resolve().parent
    package = tests.parent / "src" / "nzflow"
    sources = sorted(package.glob("*.py"))
    assert len(sources) >= 10
    assert {p.name: calls for p in sources if (calls := _self_calls(p))} == {}
    # the guard sees the recursive references the searches replaced
    names = {name for name, _ in _self_calls(tests / "helpers.py")}
    assert {"_extend", "rec"} <= names


def test_rejected_canonical_4flow_is_an_internal_error(capsys, monkeypatch, petersen_file):
    real = nzflow.engine.canonical_4flow

    def zeroed(ag):
        f = real(ag)
        return Flow(f.graph, f.tails, (0,) + f.values[1:], f.modulus)

    monkeypatch.setattr(nzflow.engine, "canonical_4flow", zeroed)
    code, out, err = run_cli(capsys, ["analyze", petersen_file])
    assert code == EXIT_INTERNAL == 4
    (rec,) = records(out)
    assert rec["internal_error"] is True
    assert "constructed 4-flow rejected" in rec["error"]
    assert err.startswith("line-1: internal error: ")


def test_broken_realization_is_an_internal_error(capsys, monkeypatch, petersen_file):
    import nzflow.valuation

    # a circulation that conserves nothing: the emitted flow's one check
    monkeypatch.setattr(
        nzflow.valuation, "feasible_circulation", lambda n, arcs: [1] * len(arcs)
    )
    code, out, err = run_cli(capsys, ["analyze", petersen_file])
    assert code == EXIT_INTERNAL == 4
    (rec,) = records(out)
    assert rec["internal_error"] is True
    assert "invalid flow" in rec["error"]


@pytest.mark.parametrize("command", ["analyze", "oddness"])
def test_graph_outside_the_domain_exits_2(capsys, tmp_path, command):
    # sparse6 for a triangle plus four isolated vertices: not cubic
    path = tmp_path / "not-cubic.s6"
    path.write_text(":Fa@x\n" + serialize_graph6(k4()) + "\n")
    code, out, err = run_cli(capsys, [command, str(path)])
    assert code == 2
    first, second = records(out)
    assert "cubic" in first["error"]
    assert "budget_exceeded" not in first and "internal_error" not in first
    assert err.startswith("line-1: ")
    assert second["oddness"] == 0


def test_json_edge_that_is_not_a_pair_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "graphs.json"
    path.write_text(json.dumps([petersen().to_json(), {"n": 2, "edges": [[0]]}]))
    code, out, err = run_cli(capsys, ["analyze", str(path)])
    assert code == 2
    assert [r["oddness"] for r in records(out)] == [2]
    assert "input error: record 1:" in err


@pytest.mark.parametrize(
    "content", [b"\xe9\n", b"[" * 100_000 + b"\n"], ids=["non_ascii", "deep_json"]
)
def test_unreadable_input_is_an_input_error(capsys, tmp_path, petersen_file, content):
    path = tmp_path / "input"
    path.write_bytes(content)
    for argv in (["analyze", str(path)], ["certify", petersen_file, str(path)]):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "{dir}"],
        ["oddness", "{dir}"],
        ["cyclic", "{dir}"],
        ["flow", "{dir}", "--k", "5"],
        ["certify", "{graph}", "{dir}"],
    ],
    ids=["analyze", "oddness", "cyclic", "flow", "certify"],
)
def test_directory_path_is_an_input_error(capsys, tmp_path, petersen_file, argv):
    argv = [a.format(dir=tmp_path, graph=petersen_file) for a in argv]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("input error: ") and str(tmp_path) in err


def test_oddness_command(capsys, mixed_file):
    code, out, _ = run_cli(capsys, ["oddness", mixed_file])
    assert code == 0
    recs = records(out)
    assert [r["oddness"] for r in recs] == [2, 0]
    assert recs[0]["circuit_lengths"] == [5, 5]


def test_cyclic_command(capsys, petersen_file):
    code, out, _ = run_cli(capsys, ["cyclic", petersen_file, "--k", "6"])
    assert code == 0
    rec = records(out)[0]
    assert rec["cyclically_k_connected"] is False
    assert len(rec["witness_cut"]) == 5
    code, out, _ = run_cli(capsys, ["cyclic", petersen_file])
    assert records(out)[0] == {
        "name": "line-1",
        "status": "exact",
        "value": 5,
    }


def test_flow_command_and_certify_round_trip(capsys, tmp_path, petersen_file):
    code, out, _ = run_cli(capsys, ["flow", petersen_file, "--k", "5"])
    assert code == 0
    rec = records(out)[0]
    assert rec["satisfiable"] is True
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(rec["certificate"]))
    code, out, _ = run_cli(capsys, ["certify", petersen_file, str(cert_path)])
    assert code == 0
    assert records(out)[0]["verdict"] == "ACCEPT"


def test_flow_command_unsatisfiable(capsys, petersen_file):
    code, out, _ = run_cli(capsys, ["flow", petersen_file, "--k", "4"])
    assert code == 0
    assert records(out)[0]["satisfiable"] is False


def test_certify_rejects_zeroed_value(capsys, tmp_path, petersen_file):
    _, out, _ = run_cli(capsys, ["flow", petersen_file, "--k", "5"])
    cert = records(out)[0]["certificate"]
    cert["edges"][3]["value"] = 0
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(cert))
    code, out, _ = run_cli(capsys, ["certify", petersen_file, str(cert_path)])
    assert code == 1
    rec = records(out)[0]
    assert rec["verdict"] == "REJECT"
    assert rec["edges"] == [3]


def test_certify_rejects_wrong_graph(capsys, tmp_path, petersen_file):
    k4_path = tmp_path / "k4.g6"
    k4_path.write_text(serialize_graph6(k4()) + "\n")
    _, out, _ = run_cli(capsys, ["flow", str(k4_path), "--k", "4"])
    cert = records(out)[0]["certificate"]
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(cert))
    code, out, _ = run_cli(capsys, ["certify", petersen_file, str(cert_path)])
    assert code == 1
    rec = records(out)[0]
    assert rec["verdict"] == "REJECT"


@pytest.mark.parametrize("damage", ["no_tail", "not_an_object", "fractional_value"])
def test_certify_rejects_malformed_entry(capsys, tmp_path, petersen_file, damage):
    _, out, _ = run_cli(capsys, ["flow", petersen_file, "--k", "5"])
    cert = records(out)[0]["certificate"]
    if damage == "no_tail":
        del cert["edges"][0]["tail"]
    elif damage == "not_an_object":
        cert["edges"][0] = 1
    else:
        cert["edges"][0]["value"] += 0.9
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(cert))
    code, out, _ = run_cli(capsys, ["certify", petersen_file, str(cert_path)])
    assert code == 1
    (rec,) = records(out)
    assert rec["verdict"] == "REJECT"
    assert "entry 0" in rec["reason"]


def test_certify_rejects_tampered_conservation(capsys, tmp_path, petersen_file):
    _, out, _ = run_cli(capsys, ["flow", petersen_file, "--k", "5"])
    cert = records(out)[0]["certificate"]
    cert["edges"][0]["value"] = (cert["edges"][0]["value"] % 4) + 1
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(cert))
    code, out, _ = run_cli(capsys, ["certify", petersen_file, str(cert_path)])
    assert code == 1
    rec = records(out)[0]
    assert rec["verdict"] == "REJECT"
    assert rec["reason"] == "conservation fails"
    assert rec["violations"]


def test_missing_file(capsys):
    code, _, err = run_cli(capsys, ["oddness", "/nonexistent/file.g6"])
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize("command", COMMANDS)
def test_budget_exit_code(capsys, mixed_file, command):
    code, out, err = run_cli(
        capsys, [command, mixed_file, "--max-work", "1", *COMMANDS[command][0]]
    )
    assert code == 3
    assert "budget" in err
    recs = records(out)
    assert [r["name"] for r in recs] == ["line-1", "line-2"]
    assert all(r["budget_exceeded"] is True for r in recs)


@pytest.mark.parametrize("k_args", [[], ["--k", "6"]], ids=["exact", "k"])
def test_cyclic_budget_exceeded_is_a_record_per_graph(capsys, mixed_file, k_args):
    code, out, _ = run_cli(capsys, ["cyclic", mixed_file, "--max-work", "5", *k_args])
    assert code == 3
    recs = records(out)
    assert [r["name"] for r in recs] == ["line-1", "line-2"]
    for rec in recs:
        assert rec["budget_exceeded"] is True
        assert rec.get("k") == (6 if k_args else None)


@pytest.mark.parametrize("k", ["0", "-1"])
def test_cyclic_rejects_k_below_one(capsys, petersen_file, k):
    code, out, err = run_cli(capsys, ["cyclic", petersen_file, "--k", k])
    assert code == 2
    assert out == ""
    assert "--k must be at least 1" in err


@pytest.mark.parametrize("k", ["1", "0"])
def test_flow_rejects_k_below_two(capsys, petersen_file, k):
    code, out, err = run_cli(capsys, ["flow", petersen_file, "--k", k])
    assert code == 2
    assert out == ""
    assert "input error: --k must be at least 2" in err


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_negative_max_work_is_an_input_error(capsys, petersen_file, command):
    extra, _ = COMMANDS[command]
    code, out, err = run_cli(
        capsys, [command, petersen_file, *extra, "--max-work", "-1"]
    )
    assert code == 2
    assert out == ""
    assert err == "input error: --max-work must be at least 0\n"


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_an_input_error(capsys, monkeypatch, mixed_file, jobs):
    def no_reading(*args):
        raise AssertionError("a record was read")

    monkeypatch.setattr(nzflow.cli, "_iter_records", no_reading)
    code, out, err = run_cli(capsys, ["analyze", mixed_file, "--jobs", jobs])
    assert code == 2
    assert out == ""
    assert err == "input error: --jobs must be at least 1\n"


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, runs in-process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize(
    "jobs, cpus, size", [("5000", 3, 3), ("2", 3, 2), ("3", 3, 3), ("4", 1, None), ("4", None, None)]
)
def test_jobs_pool_is_capped_at_the_cpu_count(
    capsys, monkeypatch, mixed_file, jobs, cpus, size
):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(nzflow.cli.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    code, out, _ = run_cli(capsys, ["analyze", mixed_file, "--jobs", jobs])
    assert code == 0
    # one worker runs in-process, with no pool
    assert _RecordingPool.sizes == ([size] if size else [])
    assert [r["name"] for r in records(out)] == ["line-1", "line-2"]


def _outcome(call):
    """(exit code, stdout with ``timings`` masked, stderr) of one call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = call()
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    masked = []
    for line in out.getvalue().splitlines():
        rec = json.loads(line)
        if "timings" in rec:
            rec["timings"] = "masked"
        masked.append(rec)
    return code, masked, err.getvalue()


def test_main_reuses_one_parser_without_leaking_flags(
    monkeypatch, tmp_path, mixed_file, petersen_file, petersen_cert
):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(petersen_cert))
    calls = [
        ["analyze", mixed_file, "--skip-cyclic"],
        ["analyze", mixed_file],
        ["cyclic", mixed_file, "--k", "6"],
        ["cyclic", mixed_file],
        ["flow", mixed_file, "--k", "5"],
        ["analyze", mixed_file, "--jobs"],
        ["oddness", mixed_file],
        ["certify", petersen_file, str(cert)],
    ]

    builds = []
    real_add_subparsers = argparse.ArgumentParser.add_subparsers

    def counting_add_subparsers(self, **kwargs):
        builds.append(self.prog)
        return real_add_subparsers(self, **kwargs)

    nzflow.cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counting_add_subparsers)
    reused = [_outcome(lambda: main(argv)) for argv in calls]
    assert builds == ["nzflow"]
    # the same calls, each on a parser built for it alone
    monkeypatch.setattr(nzflow.cli, "build_parser", nzflow.cli.build_parser.__wrapped__)
    fresh = [_outcome(lambda: main(argv)) for argv in calls]
    assert builds == ["nzflow"] * (1 + len(calls))
    assert reused == fresh
    codes = [code for code, _out, _err in reused]
    assert codes == [0, 0, 0, 0, 0, ("SystemExit", 2), 0, 0]
    assert reused[0][1][0]["cyclic_connectivity"] == {"status": "skipped"}
    assert reused[1][1][0]["cyclic_connectivity"]["status"] == "exact"
    assert "k" in reused[2][1][0] and "k" not in reused[3][1][0]
    assert reused[7][1] == [{"k": 5, "verdict": "ACCEPT"}]


def test_importing_the_cli_loads_no_pool_and_builds_no_parser():
    import nzflow

    src = str(Path(nzflow.__file__).resolve().parent.parent)
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    probe = (
        "import sys, nzflow.cli; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') "
        "if m in sys.modules), nzflow.cli.build_parser.cache_info().misses)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] 0\n"


_SMALL = st.one_of(st.integers(-2, 16), st.none(), st.text(max_size=2))


@pytest.fixture(scope="module")
def petersen_cert():
    """A 5-flow certificate of Petersen as graph6 numbers its edges; built
    here rather than at import, so a solver fault fails only its users."""
    g = parse_graph6(serialize_graph6(petersen()))
    return flow_to_json(solve_nowhere_zero_flow(g, 5))


class _Edits(tuple):
    """(edge index, entry) replacements for the Petersen certificate."""


def _with_entries(cert, replaced) -> dict:
    cert = json.loads(json.dumps(cert))
    for i, entry in replaced:
        cert["edges"][i] = entry
    return cert


_STREAM_ARGS = st.sampled_from(
    [["analyze"], ["analyze", "--lenient"], ["oddness"], ["cyclic"],
     ["cyclic", "--k", "6"], ["flow", "--k", "5"], ["flow", "--k", "1"]]
)
_G6_BODY = st.text(st.characters(min_codepoint=63, max_codepoint=126), max_size=12)
_GRAPH_LINES = st.one_of(
    st.sampled_from([serialize_graph6(g) for g in (petersen(), k4(), flower_snark(5))]),
    st.builds(lambda n, body: chr(63 + n) + body, st.integers(0, 12), _G6_BODY),
    st.builds(lambda n, body: ":" + chr(63 + n) + body, st.integers(0, 12), _G6_BODY),
)
_JSON_GRAPH = st.fixed_dictionaries(
    {"n": _SMALL, "edges": st.one_of(_SMALL, st.lists(st.lists(_SMALL, max_size=3), max_size=12))}
)
_ENTRY = st.one_of(
    _SMALL, st.dictionaries(st.sampled_from(["id", "tail", "head", "value"]), _SMALL)
)
_CERTIFICATES = st.one_of(
    _SMALL,
    st.fixed_dictionaries({"k": _SMALL, "edges": st.one_of(_SMALL, st.lists(_ENTRY, max_size=16))}),
    st.lists(st.tuples(st.integers(0, 14), _ENTRY), max_size=3).map(_Edits),
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "petersen.g6").write_text(serialize_graph6(petersen()) + "\n")
    return path


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    case=st.one_of(
        st.tuples(_STREAM_ARGS, st.lists(_GRAPH_LINES, min_size=1, max_size=3).map("\n".join)),
        st.tuples(_STREAM_ARGS, st.one_of(_JSON_GRAPH, st.lists(_JSON_GRAPH, max_size=3)).map(json.dumps)),
        st.tuples(st.just(["certify"]), _CERTIFICATES),
    )
)
def test_main_never_raises(fuzz_dir, petersen_cert, case):
    """Arbitrary graph lines, JSON graphs and Petersen certificates end in a
    documented exit code, never in an exception."""
    args, text = case
    if args[0] == "certify":
        if isinstance(text, _Edits):
            text = _with_entries(petersen_cert, text)
        text = json.dumps(text)
    path = fuzz_dir / "input"
    path.write_text(text + "\n")
    if args[0] == "certify":
        argv = ["certify", str(fuzz_dir / "petersen.g6"), str(path)]
    else:
        argv = [args[0], str(path), *args[1:], "--max-work", "200"]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in range(5)
