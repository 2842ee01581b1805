"""Acceptance criteria, one test per criterion with a printed verdict line.

Stages share results through the session-scoped ``shared_results`` dict:
criterion 1 computes the 5-flows that criteria 2-4 reuse.  Run with
``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import json
import random
import time

import networkx as nx

from helpers import brute_margin, check_balanced_bruteforce, isomorphic, to_networkx

from nzflow import (
    Valuation,
    build_augmented,
    canonical_coloring,
    canonical_4flow,
    check_balanced_mincut,
    compute_oddness,
    enumerate_two_factors,
    five_flow_oddness4,
    flow_partition,
    flow_to_valuation,
    is_nowhere_zero,
    solve_nowhere_zero_flow,
    switch_path,
    to_five_thirds,
    validate_violator_claims,
    verify_flow,
)
from nzflow.catalog import (
    blanusa_snarks,
    canonical_form,
    flower_snark,
    oddness4_snark,
    petersen,
)
from nzflow.cli import main as cli_main
from nzflow.graph6 import serialize_graph6
from test_coloring import ring_two_factor


def short_cycle_profile(g):
    """The sorted per-vertex counts of cycles of lengths 3 to 6, with n: an
    isomorphism invariant of simple graphs."""
    nbrs = [sorted({w for _, w in g.incident(v)}) for v in range(g.n)]
    counts = [[0] * 4 for _ in range(g.n)]
    for start in range(g.n):
        # paths from their smallest vertex; a cycle closes in one direction
        stack = [(start,)]
        while stack:
            path = stack.pop()
            for w in nbrs[path[-1]]:
                if w == start and len(path) >= 3 and path[1] < path[-1]:
                    for x in path:
                        counts[x][len(path) - 3] += 1
                elif w > start and w not in path and len(path) < 6:
                    stack.append(path + (w,))
    return g.n, tuple(sorted(map(tuple, counts)))


def report(num: int, description: str, ok: bool, started: float, extra: str = ""):
    elapsed = time.perf_counter() - started
    tail = f" {extra}" if extra else ""
    print(f"\nACCEPTANCE {num} ({description}): "
          f"{'PASS' if ok else 'FAIL'} [{elapsed:.1f}s]{tail}")
    assert ok, f"acceptance criterion {num} failed:{tail}"


def flows_for(corpus, shared_results):
    if "flows" not in shared_results:
        flows = {}
        for name, g in corpus:
            flows[name] = (g, solve_nowhere_zero_flow(g, 5))
        shared_results["flows"] = flows
    return shared_results["flows"]


def valuations_for(corpus, shared_results):
    if "valuations" not in shared_results:
        vals = {}
        for name, (g, f) in flows_for(corpus, shared_results).items():
            vals[name] = (g, flow_to_valuation(g, f, 5))
        shared_results["valuations"] = vals
    return shared_results["valuations"]


def test_criterion_1_flow_suite(corpus, shared_results):
    started = time.perf_counter()
    problems = []
    if len(corpus) < 100:
        problems.append(f"corpus has only {len(corpus)} graphs")
    buckets = {}
    for name, g in corpus:
        if g.n > 14:
            problems.append(f"{name}: too many vertices")
        from nzflow import basic_checks

        chk = basic_checks(g)
        if not (chk.is_cubic and chk.is_bridgeless and chk.is_connected):
            problems.append(f"{name}: not a connected bridgeless cubic graph")
        # VF2 on every pair that the invariant cannot tell apart
        key = short_cycle_profile(g)
        for other_name, other in buckets.get(key, []):
            if isomorphic(g, other):
                problems.append(f"{name} isomorphic to {other_name}")
        buckets.setdefault(key, []).append((name, g))
    if len({canonical_form(g) for _, g in corpus}) != len(corpus):
        problems.append("two corpus graphs share a canonical form")
    for name, (g, f) in flows_for(corpus, shared_results).items():
        if f is None:
            problems.append(f"{name}: no 5-flow found")
            continue
        if verify_flow(g, f) or not is_nowhere_zero(f) or f.modulus != 5:
            problems.append(f"{name}: flow fails verification")
    if solve_nowhere_zero_flow(petersen(), 4) is not None:
        problems.append("petersen admitted a 4-flow")
    pf = solve_nowhere_zero_flow(petersen(), 5)
    if pf is None or verify_flow(petersen(), pf) or not is_nowhere_zero(pf):
        problems.append("petersen 5-flow missing or invalid")
    elapsed_ok = time.perf_counter() - started < 300
    if not elapsed_ok:
        problems.append("runtime exceeded five minutes")
    report(
        1,
        "5-flow solver over the whole corpus",
        not problems,
        started,
        "; ".join(problems[:5]),
    )


def test_criterion_2_flow_valuations_balanced(corpus, shared_results):
    started = time.perf_counter()
    violations = []
    for name, (g, val) in valuations_for(corpus, shared_results).items():
        rep = check_balanced_bruteforce(g, val)
        if not rep.balanced:
            violations.append(f"{name}: margin {rep.margin} at {rep.violator}")
    report(
        2,
        "valuations of found flows balanced under exhaustive check",
        not violations,
        started,
        "; ".join(violations[:5]),
    )


def test_criterion_3_checker_equivalence(corpus, shared_results):
    started = time.perf_counter()
    disagreements = []
    for name, (g, val) in valuations_for(corpus, shared_results).items():
        rb = check_balanced_bruteforce(g, val)
        rm = check_balanced_mincut(g, val)
        if rb.balanced != rm.balanced or rb.margin != rm.margin:
            disagreements.append(f"{name}: flow valuation")
    rng = random.Random(987654321)
    for name, g in corpus:
        for i in range(1000):
            nums = tuple(rng.choice((-5, 5)) for _ in range(g.n))
            val = Valuation(denominator=3, numerators=nums)
            rb = check_balanced_bruteforce(g, val)
            rm = check_balanced_mincut(g, val)
            if rb.balanced != rm.balanced or rb.margin != rm.margin:
                disagreements.append(f"{name}: random assignment {i}")
                break
    report(
        3,
        "brute-force and min-cut checkers agree (incl. 1000 random each)",
        not disagreements,
        started,
        "; ".join(disagreements[:5]),
    )


def test_criterion_4_reverse_round_trip(corpus, shared_results):
    started = time.perf_counter()
    failures = []
    from nzflow import valuation_to_flow

    for name, (g, val) in valuations_for(corpus, shared_results).items():
        try:
            back = valuation_to_flow(g, val, 5)
        except Exception as exc:  # noqa: BLE001 - report any failure verbatim
            failures.append(f"{name}: {exc}")
            continue
        if flow_to_valuation(g, back, 5) != val:
            failures.append(f"{name}: induced valuation differs")
    report(
        4,
        "every balanced valuation realized as a flow with equal valuation",
        not failures,
        started,
        "; ".join(failures[:5]),
    )


def test_criterion_5_construction_suite(corpus):
    started = time.perf_counter()
    failures = []
    checked = 0
    from test_coloring import check_coloring_invariants

    for name, g in corpus:
        if g.n > 16:
            continue
        for idx, tf in enumerate(enumerate_two_factors(g)):
            checked += 1
            label = f"{name}#{idx}"
            try:
                c = canonical_coloring(g, tf)
                check_coloring_invariants(g, tf, c)
                ag = build_augmented(g, c)
                f4 = canonical_4flow(ag)
                if verify_flow(ag.graph, f4) or not is_nowhere_zero(f4):
                    failures.append(f"{label}: 4-flow invalid")
                    continue
                if any(
                    abs(2 * f4.out_degree(v) - ag.graph.degree(v)) != 1
                    for v in range(ag.graph.n)
                ):
                    failures.append(f"{label}: degree identity fails")
                    continue
                p = flow_partition(ag, f4)
                for eid in range(ag.graph.m):
                    if ag.colors[eid] in (1, 2):
                        u, v = ag.graph.endpoints(eid)
                        if p.is_white(u) == p.is_white(v):
                            failures.append(f"{label}: color-1/2 edge inside a class")
                            raise StopIteration
                for i in range(len(c.paths)):
                    p2 = flow_partition(ag, switch_path(ag, f4, i))
                    on_path = set()
                    for e in c.paths[i]:
                        on_path.update(g.endpoints(e))
                    if set(p.white) ^ set(p2.white) != on_path:
                        failures.append(f"{label}: switch changed wrong vertices")
                        raise StopIteration
            except StopIteration:
                continue
            except Exception as exc:  # noqa: BLE001
                failures.append(f"{label}: {exc}")
    ok = not failures and checked > 1000
    report(
        5,
        f"construction suite over {checked} two-factors",
        ok,
        started,
        "; ".join(failures[:5]),
    )


def test_criterion_6_pipeline_suite(shared_results):
    started = time.perf_counter()
    failures = []
    expected_oddness_2 = [
        ("petersen", petersen()),
        ("blanusa-1", blanusa_snarks()[0]),
        ("blanusa-2", blanusa_snarks()[1]),
        ("flower-5", flower_snark(5)),
        ("flower-7", flower_snark(7)),
        ("flower-9", flower_snark(9)),
    ]
    for name, g in expected_oddness_2:
        if compute_oddness(g).oddness != 2:
            failures.append(f"{name}: oddness is not 2")
            continue
        cert = five_flow_oddness4(g, check_cyclic=g.n <= 20)
        if cert.outcome != "flow_found":
            failures.append(f"{name}: outcome {cert.outcome}")
            continue
        if verify_flow(g, cert.flow) or not is_nowhere_zero(cert.flow):
            failures.append(f"{name}: emitted flow invalid")
    snark = oddness4_snark()
    if compute_oddness(snark).oddness != 4:
        failures.append("oddness-4 snark: oddness is not 4")
    cert = five_flow_oddness4(snark)
    shared_results["snark_cert"] = cert
    if cert.outcome == "bad_pair_anomaly":
        failures.append("oddness-4 snark: anomaly reported")
    elif cert.outcome == "hypothesis_unmet":
        fb = cert.fallback_flow
        if fb is None or verify_flow(snark, fb) or not is_nowhere_zero(fb):
            failures.append("oddness-4 snark: missing or invalid fallback flow")
    elif cert.outcome == "flow_found":
        if verify_flow(snark, cert.flow) or not is_nowhere_zero(cert.flow):
            failures.append("oddness-4 snark: emitted flow invalid")
    elapsed_ok = time.perf_counter() - started < 600
    if not elapsed_ok:
        failures.append("runtime exceeded ten minutes")
    report(
        6,
        "pipeline on the snark family",
        not failures,
        started,
        "; ".join(failures[:5]),
    )


def _collect_partition_violators():
    """Violators of flow-partition valuations across the diagnostic graphs."""
    from nzflow.engine import _partition_variants

    out = []
    cases = [oddness4_snark()]
    ring_g, ring_tf = ring_two_factor()
    for g in cases:
        tf = compute_oddness(g).witness
        c = canonical_coloring(g, tf)
        ag = build_augmented(g, c)
        for tag, _f, p in _partition_variants(ag, canonical_4flow(ag)):
            rep = check_balanced_mincut(g, to_five_thirds(p))
            if not rep.balanced:
                out.append((g, c, p, rep))
    c = canonical_coloring(ring_g, ring_tf)
    ag = build_augmented(ring_g, c)
    for tag, _f, p in _partition_variants(ag, canonical_4flow(ag)):
        rep = check_balanced_mincut(ring_g, to_five_thirds(p))
        if not rep.balanced:
            out.append((ring_g, c, p, rep))
    return out


def test_criterion_7_claim_validators():
    started = time.perf_counter()
    failures = []
    violators = _collect_partition_violators()
    if not violators:
        failures.append("no violators encountered")
    for g, c, p, rep in violators:
        checks = {ch.name: ch for ch in validate_violator_claims(g, c, p, rep.violator)}
        # recompute every claim independently
        s = set(rep.violator)
        cut_edges = [
            e for e, (u, v) in enumerate(g.edges) if (u in s) != (v in s)
        ]
        boundary = len(cut_edges)
        white = sum(1 for v in s if p.is_white(v))
        k_diff = abs((len(s) - white) - white)
        c1 = sum(1 for e in cut_edges if c.colors[e] == 1)
        c2 = sum(1 for e in cut_edges if c.colors[e] == 2)
        zin = [z for z in c.missing2 if z in s]
        q_white = sum(1 for z in zin if p.is_white(z))
        q = abs((len(zin) - q_white) - q_white)
        h = nx.Graph(to_networkx(g))
        expected = {
            "cut_parity_matches_imbalance": boundary % 2 == k_diff % 2,
            "matching_color_exceeds_three_fifths": 5 * c1 > 3 * boundary,
            "color2_plus_missing_exceeds_three_fifths": 5 * (c2 + q) > 3 * boundary,
            "two_missing2_inside_same_class": len(zin) == 2 and q == 2,
            "six_cut_with_profile_4_2": boundary == 6 and c1 == 4 and c2 == 2,
            "both_sides_connected": (
                nx.is_connected(h.subgraph(s))
                and nx.is_connected(h.subgraph(set(range(g.n)) - s))
            ),
        }
        for claim_name, want in expected.items():
            got = checks[claim_name].passed
            if got != want:
                failures.append(f"{claim_name}: validator {got}, oracle {want}")
        # the margin reported must equal a from-scratch recomputation
        val = to_five_thirds(p)
        if brute_margin(g, val.numerators, val.denominator, s) != rep.margin:
            failures.append("margin mismatch on recomputation")
        # parity claim is unconditional and must always hold
        if not checks["cut_parity_matches_imbalance"].passed:
            failures.append("unconditional parity claim failed")
    report(
        7,
        f"claim validators on {len(violators)} violators",
        not failures,
        started,
        "; ".join(failures[:5]),
    )


def test_criterion_8_analyze_determinism(corpus, tmp_path, capsys):
    started = time.perf_counter()
    path = tmp_path / "corpus.g6"
    path.write_text("".join(serialize_graph6(g) + "\n" for _, g in corpus))

    def run():
        code = cli_main(["analyze", str(path)])
        out = capsys.readouterr().out
        lines = []
        for line in out.splitlines():
            rec = json.loads(line)
            rec.pop("timings", None)
            lines.append(json.dumps(rec, sort_keys=True, separators=(",", ":")))
        return code, lines

    code1, first = run()
    code2, second = run()
    ok = code1 == code2 == 0 and first == second and len(first) == len(corpus)
    report(
        8,
        "byte-identical analyze reports (timings excluded)",
        ok,
        started,
        f"{len(first)} records",
    )
