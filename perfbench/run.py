"""nzflow benchmark: per-record ``nzflow analyze`` on four workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload snark-corpus --seed 1 --seconds 10 --trace 0

Prints failed records, run metadata and every metric with its unit; the
last line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics from a traced run.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from worker import WRONG  # noqa: E402

SETUP_SAMPLES = 7
DEADLINE_S = 170  # the whole run, set-up included, ends before this
IMPORT_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[2]); import speed; "
    "ref = speed.burst(); sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import nzflow.cli; took = time.perf_counter() - t; "
    "ref += speed.burst(); print(took, speed.median([d for _, d in ref]))"
)
P90_WORKLOADS = ("snark-corpus", "random-cubic", "ladder-large")


def _python(args, timeout):
    """Run a fresh interpreter (no user site, no PYTHON* variables)."""
    return subprocess.run(
        [sys.executable, "-E", "-s", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout, check=True,
    )


def measure_setup() -> float:
    """Median rescaled import time of ``nzflow.cli`` over fresh
    interpreters; one unmeasured import first writes the bytecode cache."""
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        took, ref = map(float, _python(["-c", IMPORT_CODE, SRC, HERE], 60).stdout.split())
        samples.append(took * speed.REFERENCE_S / ref)
    return statistics.median(samples[1:])


def metadata() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True
        ).stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "nzflow")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "networkx": version("networkx"),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def end_to_end(result, records, setup_s, workload) -> dict:
    """A record's latency is its median over the run's samples of it."""
    latency = [statistics.median(x) for x in result["samples"]]
    failed_names = {f[0] for f in result["failures"]}
    verified = sum(1 for r in records if r["name"] not in failed_names)
    lat_ms = [x * 1000.0 for x in latency]
    metrics = {
        "graphs_per_s": (verified / sum(latency), "graphs/s"),
        "record_p50_ms": (statistics.median(lat_ms), "ms"),
        "record_p90_ms": (statistics.quantiles(lat_ms, n=10, method="inclusive")[8], "ms"),
        "verified_share": (verified / len(records), "ratio"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "setup_s": (setup_s, "s"),
    }
    if workload not in P90_WORKLOADS:
        print(f"note: record_p90_ms on {workload} has fewer than 10 records above it")
    return metrics


COUNTED = ("structure.cyclic6", "structure.cyclic_exact", "structure.oddness",
           "flows.solver", "valuation.mincut")


def per_layer(result) -> dict:
    """Medians over the traced passes of each layer's per-pass totals."""
    layers = [p["layers"] for p in result["pairs"]]
    empty = {"s": 0.0, "self_s": 0.0, "calls": 0, "notes": {}}

    def med(layer, fn):
        return statistics.median(fn(lay.get(layer, empty)) for lay in layers)

    def share(agg, note):
        return agg["notes"].get(note, 0) / agg["calls"] if agg["calls"] else 0.0

    m = {f"{layer}_s": (med(layer, lambda a: a["s"]), "s") for layer in (spans.ROOT, *spans.LAYERS)}
    m.update({f"{layer}_calls": (med(layer, lambda a: a["calls"]), "count") for layer in COUNTED})
    m.update({
        "cli.self_s": (med(spans.ROOT, lambda a: a["self_s"]), "s"),
        "engine.self_s": (med("engine.pipeline", lambda a: a["self_s"]), "s"),
        "structure.cyclic6_below6_share": (med("structure.cyclic6", lambda a: share(a, "below6")), "ratio"),
        "structure.cyclic6_budget_exceeded": (
            med("structure.cyclic6", lambda a: a["notes"].get("raised:BudgetExceededError", 0)), "count"
        ),
        "structure.oddness_errors": (
            med("structure.oddness", lambda a: sum(
                c for k, c in a["notes"].items() if k.startswith("raised:"))), "count"
        ),
        "valuation.balanced_share": (med("valuation.mincut", lambda a: share(a, "balanced")), "ratio"),
        "trace.coverage": (med(spans.ROOT, lambda a: 1 - a["self_s"] / a["s"] if a["s"] else 0.0), "ratio"),
        "trace.overhead": (
            statistics.median(p["traced_s"] / p["untraced_s"] for p in result["pairs"]), "ratio"
        ),
        "trace.absent_layers": (len(result["absent_layers"]), "count"),
    })
    for layer in result["absent_layers"]:
        print(f"absent layer: {layer} (none of its wrapped names exists)")
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.FLAGS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    began = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "nzflow", "cli.py")):
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2

    records = workloads.build(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(WORK, f"{tag}-{os.getpid()}")
    os.makedirs(work)
    os.makedirs(OUT, exist_ok=True)
    try:
        for i, rec in enumerate(records):
            rec["file"] = os.path.join(work, f"{i:04d}.g6")
            with open(rec["file"], "w", encoding="ascii") as fh:
                fh.write(workloads.graph6(rec["n"], rec["edges"]) + "\n")
        setup_s = measure_setup() if not args.trace else None
        job = {
            "src": SRC,
            "flags": workloads.FLAGS[args.workload],
            "records": records,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "spans_out": os.path.join(OUT, f"{tag}-spans.jsonl"),
        }
        job_path = os.path.join(work, "job.json")
        result_path = os.path.join(work, "result.json")
        with open(job_path, "w", encoding="ascii") as fh:
            json.dump(job, fh)
        budget = DEADLINE_S - (time.perf_counter() - began)
        _python([os.path.join(HERE, "worker.py"), job_path, result_path], budget)
        with open(result_path, encoding="ascii") as fh:
            result = json.load(fh)
    except subprocess.CalledProcessError as exc:
        print(f"error: {exc}\n{exc.stderr}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)  # only when no other run is using it
        except OSError:
            pass

    failures = Counter(map(tuple, result["failures"]))
    for (name, kind, detail), count in sorted(failures.items()):
        print(f"failed: {args.workload} {name} {kind} x{count}: {detail}")
    meta = metadata()
    meta.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                records=len(records), samples=result["attempted"])
    print("meta: " + json.dumps(meta, sort_keys=True))

    if args.trace:
        metrics = per_layer(result)
    else:
        metrics = end_to_end(result, records, setup_s, args.workload)
    print(
        f"info: {result['attempted']} samples in {result['raw_s']:.3f} s of wall time; "
        f"median reference call {result['reference_s'] * 1e6:.1f} us"
    )
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    # One operation is one record: every record is attempted in the first
    # (untraced, whole) pass, and a record fails the same way on every
    # sample, so these counts do not depend on how many passes fitted.
    summary = {
        "correct": not any(kind in WRONG for _n, kind, _d in failures),
        "attempted": sum(1 for s in result["samples"] if s),
        "failed": len({name for name, _k, _d in failures}),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="ascii") as fh:
        json.dump({"meta": meta, "failures": sorted(failures), **summary}, fh, indent=1)
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
