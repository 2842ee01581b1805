import io
import json

import pytest

import nzflow.cli
import nzflow.engine
import nzflow.structure
from nzflow import InternalInconsistencyError
from nzflow.cli import EXIT_INTERNAL, main
from nzflow.catalog import flower_snark, k4, petersen
from nzflow.graph6 import serialize_graph6


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


def test_analyze_malformed_line_fails_without_lenient(capsys, tmp_path):
    path = tmp_path / "bad.g6"
    path.write_text(serialize_graph6(k4()) + "\n!!!\n")
    code, _out, err = run_cli(capsys, ["analyze", str(path)])
    assert code == 2
    assert "line 2" in err


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


def test_analyze_internal_error_spares_later_records(capsys, monkeypatch, mixed_file):
    real = nzflow.cli.five_flow_oddness4
    seen = []

    def fails_first(g, **kwargs):
        seen.append(g.n)
        if len(seen) == 1:
            raise InternalInconsistencyError("injected")
        return real(g, **kwargs)

    monkeypatch.setattr(nzflow.cli, "five_flow_oddness4", fails_first)
    code, out, _ = run_cli(capsys, ["analyze", mixed_file])
    assert code == EXIT_INTERNAL == 4
    first, second = records(out)
    assert first["internal_error"] is True
    assert "injected" in first["error"]
    assert second["n"] == 4
    assert second["outcome"]["outcome"] == "flow_found"


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


def test_budget_exit_code(capsys, petersen_file):
    code, _, err = run_cli(
        capsys, ["oddness", petersen_file, "--max-work", "1"]
    )
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize("k_args", [[], ["--k", "6"]], ids=["exact", "k"])
def test_cyclic_budget_exceeded_is_a_record_per_graph(capsys, mixed_file, k_args):
    code, out, _ = run_cli(capsys, ["cyclic", mixed_file, "--max-work", "5", *k_args])
    assert code == 3
    recs = records(out)
    assert [r["name"] for r in recs] == ["line-1", "line-2"]
    for rec in recs:
        assert rec["status"] == "budget_exceeded"
        assert rec.get("k") == (6 if k_args else None)


@pytest.mark.parametrize("k", ["0", "-1"])
def test_cyclic_rejects_k_below_one(capsys, petersen_file, k):
    code, out, err = run_cli(capsys, ["cyclic", petersen_file, "--k", k])
    assert code == 2
    assert out == ""
    assert "--k must be at least 1" in err
