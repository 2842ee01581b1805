"""Timed passes of one workload, in a fresh interpreter.

Usage: python3 worker.py JOB.json RESULT.json

The job names the package source directory, the ``analyze`` flags, the
record files with their expected values, the number of seconds to measure
and whether to trace.  One operation is one in-process call of
``nzflow.cli.main(["analyze", <record file>, *flags])``; the next starts when
the previous returns.  Passes over all records repeat until the timed
seconds are used up; the last pass may stop part-way.  In a traced job,
pairs of an untraced and a traced pass repeat while another pair fits.
Outputs are checked after each call, outside the timed region.  Every
latency is rescaled to the reference speed (see ``speed.py``).
"""

from __future__ import annotations

import bisect
import io
import json
import itertools
import os
import random
import resource
import signal
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import spans
import speed

# kinds of failure that mean a wrong answer, not a refusal or a crash
WRONG = ("flow_invalid", "oddness_mismatch", "cyclic_mismatch")


def _flow_ok(cert, rec, graph, nz) -> bool:
    """Re-verify a 5-flow certificate twice: by the package's own checker
    and by an independent conservation count over the expected edge list."""
    edges = rec["edges"]
    net = [0] * rec["n"]
    seen = set()
    try:
        flow = nz.flow_from_json(graph, cert)
        if nz.verify_flow(graph, flow) or not nz.is_nowhere_zero(flow) or flow.modulus != 5:
            return False
        if cert["k"] != 5 or len(cert["edges"]) != len(edges):
            return False
        for entry in cert["edges"]:
            eid, tail, head, value = entry["id"], entry["tail"], entry["head"], entry["value"]
            if eid in seen or sorted((tail, head)) != list(edges[eid]) or not 1 <= value <= 4:
                return False
            seen.add(eid)
            net[tail] += value
            net[head] -= value
    except (ValueError, TypeError, KeyError, IndexError):
        return False
    return not any(net)


def check(rec, graph, nz, code, exc, out: str, err: str):
    """``None`` for a verified outcome, else ``(kind, detail)``."""
    if exc is not None:
        return "exception", f"{type(exc).__name__}: {exc}"
    lines = out.splitlines()
    if len(lines) != 1:
        detail = err.strip().splitlines()[-1] if err.strip() else f"{len(lines)} output lines"
        return ("exit_code" if code else "no_record"), f"exit {code}: {detail}"
    try:
        res = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        return "bad_output", str(exc)
    if not isinstance(res, dict) or not isinstance(res.get("outcome", {}), dict):
        return "bad_output", lines[0][:200]
    if res.get("budget_exceeded"):
        return "budget_exceeded", str(res.get("error"))
    if res.get("error"):
        return "error", str(res["error"])
    outcome = res.get("outcome") or {}
    if outcome.get("outcome") == "bad_pair_anomaly":
        return "bad_pair_anomaly", str(outcome.get("reason"))
    if code:
        return "exit_code", f"exit {code}"
    certs = [c for c in (outcome.get("flow"), outcome.get("fallback_flow")) if c is not None]
    if not certs:
        return "no_certificate", str(outcome.get("outcome"))
    if not all(_flow_ok(c, rec, graph, nz) for c in certs):
        return "flow_invalid", str(outcome.get("outcome"))
    if res.get("oddness") != rec["oddness"]:
        return "oddness_mismatch", f"got {res.get('oddness')}, expected {rec['oddness']}"
    if rec["cyclic"] is not None:
        cyc = res.get("cyclic_connectivity") or {}
        got = {"exact": cyc.get("value"), "vacuous": "vacuous"}.get(cyc.get("status"))
        if got is None:
            return "cyclic_unresolved", json.dumps(cyc, sort_keys=True)
        if got != rec["cyclic"]:
            return "cyclic_mismatch", f"got {got}, expected {rec['cyclic']}"
    return None


def measure(job, rec, graph, nz, main, tracer=None):
    """One timed ``analyze`` call: its start, latency and failure."""
    out, err = io.StringIO(), io.StringIO()
    code = exc = None
    with redirect_stdout(out), redirect_stderr(err):
        if tracer is not None:
            sid = tracer.open(spans.ROOT)
        start = time.perf_counter()
        try:
            code = main(["analyze", rec["file"], *job["flags"]])
        except (Exception, SystemExit) as caught:
            exc = caught
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.close(sid)
    failure = check(rec, graph, nz, code, exc, out.getvalue(), err.getvalue())
    return start, elapsed, None if failure is None else [rec["name"], *failure]


class Sampler:
    """Machine speed sampled every ``PERIOD_S`` by timing
    :func:`speed.reference` in a SIGALRM handler, so that long records are
    sampled while they run.  The handler's own time is taken out of every
    sample and span (:meth:`net`); :meth:`factor` rescales a sample to the
    reference speed by the mean of ``REFERENCE_S / reference time`` over
    the references within ``WINDOW_S`` of it."""

    PERIOD_S = 0.1
    WINDOW_S = 0.25

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.prefix: list[float] = []

    def _handler(self, _signum, _frame) -> None:
        start = time.perf_counter()
        speed.reference()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._handler(None, None)  # so that even the shortest run has a sample
        self.prefix = list(itertools.accumulate(self.durations, initial=0.0))

    def net(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return end - start - (self.prefix[hi] - self.prefix[lo])

    def factor(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.starts, start - self.WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + self.WINDOW_S)
        near = self.durations[lo:hi] or self.durations
        return sum(speed.REFERENCE_S / d for d in near) / len(near)


def main() -> None:
    job_path, result_path = sys.argv[1], sys.argv[2]
    with open(job_path, encoding="ascii") as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import nzflow.cli
    if not os.path.abspath(nzflow.cli.__file__).startswith(os.path.abspath(job["src"]) + os.sep):
        raise SystemExit(f"nzflow imported from {nzflow.cli.__file__}, not {job['src']}")
    import nzflow as nz

    records = job["records"]
    graphs = [nz.MultiGraph(r["n"], r["edges"]) for r in records]
    raw = []  # (pass number, traced, record, start, elapsed)
    failures, tracers, absent = [], [], []
    # Each pass visits the records in a fresh order, so that a record's
    # samples, and the records of one size class, are spread over the whole
    # run rather than bunched into one stretch of machine time.
    rng = random.Random(job["seed"])
    order = list(range(len(records)))
    number = 0

    def run_pass(tracer=None, deadline=None):
        nonlocal number
        rng.shuffle(order)
        total = 0.0
        for idx in order:
            if deadline is not None and total >= deadline:
                break
            if tracer is not None:
                tracer.record = idx
            start, elapsed, failure = measure(
                job, records[idx], graphs[idx], nz, nzflow.cli.main, tracer
            )
            raw.append((number, tracer is not None, idx, start, elapsed))
            total += elapsed
            if failure is not None:
                failures.append(failure)
        number += 1
        return total

    with Sampler() as sampler:
        if not job["trace"]:
            # whole passes until the time is used up; the last may stop early
            timed = run_pass()
            while timed < job["seconds"]:
                timed += run_pass(deadline=job["seconds"] - timed)
        else:
            # an untraced and a traced pass, as long as another such pair fits
            timed, pair = 0.0, 0.0
            while not tracers or timed + pair <= job["seconds"]:
                pair = run_pass()
                tracer = spans.Tracer()
                absent = tracer.install()
                try:
                    pair += run_pass(tracer)
                finally:
                    tracer.uninstall()
                tracers.append(tracer)
                timed += pair

    samples = [[] for _ in records]  # rescaled latencies of untraced passes
    pass_s = [[0.0, 0.0] for _ in tracers]  # rescaled untraced/traced pass totals
    factors = [{} for _ in tracers]
    for n, traced, idx, start, elapsed in raw:
        factor = sampler.factor(start, start + elapsed)
        scaled = sampler.net(start, start + elapsed) * factor
        if not traced:
            samples[idx].append(scaled)
        if tracers:  # passes alternate untraced, traced
            pass_s[n // 2][traced] += scaled
        if traced:
            factors[n // 2][idx] = factor

    def weigh(pair):
        return lambda rec, start, end: sampler.net(start, end) * factors[pair][rec]

    result = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(raw),
        "samples": samples,
        "raw_s": sum(r[4] for r in raw),
        "reference_s": speed.median(sampler.durations),
        "failures": failures,
        "pairs": [
            {"untraced_s": u, "traced_s": t, "layers": spans.summarize(tr.spans, weigh(i))}
            for i, ((u, t), tr) in enumerate(zip(pass_s, tracers))
        ],
        "absent_layers": absent,
    }
    with open(result_path, "w", encoding="ascii") as fh:
        json.dump(result, fh)
    if job["trace"]:
        with open(job["spans_out"], "w", encoding="ascii") as fh:
            for i, tracer in enumerate(tracers):
                for span in tracer.spans:
                    fh.write(json.dumps([i, *span]) + "\n")


if __name__ == "__main__":
    main()
