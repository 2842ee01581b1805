import json
from itertools import combinations

import pytest

from helpers import check_balanced_bruteforce

from nzflow import (
    BudgetExceededError,
    InternalInconsistencyError,
    MultiGraph,
    bad_cut_certificate,
    build_augmented,
    canonical_coloring,
    canonical_4flow,
    edge_cut,
    five_flow_oddness4,
    is_nowhere_zero,
    parity_contradiction_check,
    quad_decompose,
    subset_margin,
    to_five_thirds,
    validate_violator_claims,
    verify_flow,
)
from nzflow.engine import _partition_variants
from nzflow.valuation import _initial_orientation
from nzflow.catalog import (
    blanusa_snarks,
    flower_snark,
    k4,
    k33,
    oddness4_snark,
    petersen,
)
from test_coloring import ring_two_factor


def snark_setting():
    """Partitions and violators of the 36-vertex oddness-4 snark."""
    g = oddness4_snark()
    from nzflow import compute_oddness

    tf = compute_oddness(g).witness
    c = canonical_coloring(g, tf)
    ag = build_augmented(g, c)
    return g, c, ag, dict(_partition_variants(ag, canonical_4flow(ag)))


def ring_setting():
    """The triangle-ring fixture with its 4-triangle 2-factor."""
    g, tf = ring_two_factor()
    c = canonical_coloring(g, tf)
    ag = build_augmented(g, c)
    return g, c, ag, dict(_partition_variants(ag, canonical_4flow(ag)))


def test_partition_normalization():
    for setting in (snark_setting, ring_setting):
        g, c, ag, parts = setting()
        z = c.missing2
        primary = parts["primary"]
        switched = parts["switched"]
        assert primary.is_white(z[0]) and primary.is_white(z[2])
        assert not primary.is_white(z[1]) and not primary.is_white(z[3])
        assert switched.is_white(z[0]) and switched.is_white(z[3])
        assert not switched.is_white(z[1]) and not switched.is_white(z[2])


def test_path_ends_in_different_classes_everywhere():
    for setting in (snark_setting, ring_setting):
        g, c, ag, parts = setting()
        z = c.missing2
        for _tag, p in parts.items():
            for i in range(len(z) // 2):
                assert p.is_white(z[2 * i]) != p.is_white(z[2 * i + 1])


def test_violator_cut_is_bad_on_the_snark():
    g, c, ag, parts = snark_setting()
    from nzflow import check_balanced_mincut

    for p in parts.values():
        rep = check_balanced_mincut(g, to_five_thirds(p))
        assert not rep.balanced
        cut = edge_cut(g, rep.violator)
        cert = bad_cut_certificate(c, p, cut.edges)
        assert cert.color_counts[1] == 4 and cert.color_counts[2] == 2
        assert len(cert.edges) == 6
        # the separated pair is monochromatic
        pa, pb = cert.split
        assert p.is_white(pa[0]) == p.is_white(pa[1])
        assert p.is_white(pb[0]) == p.is_white(pb[1])


def test_bad_cut_rejects_wrong_profile_and_wrong_partition():
    g, c, ag, parts = snark_setting()
    primary = parts["primary"]
    switched = parts["switched"]
    from nzflow import check_balanced_mincut

    rep = check_balanced_mincut(g, to_five_thirds(primary))
    cut = edge_cut(g, rep.violator).edges
    # same cut, other partition: the separated pair is no longer monochromatic
    assert bad_cut_certificate(c, primary, cut) is not None
    assert bad_cut_certificate(c, switched, cut) is None
    # a 6-cut with the wrong color profile is rejected
    for combo in combinations(range(g.n), 4):
        ec = edge_cut(g, combo)
        if len(ec.edges) != 6:
            continue
        from nzflow import cut_color_profile

        prof = cut_color_profile(c, ec)
        if prof[1] != 4 or prof[2] != 2:
            assert bad_cut_certificate(c, primary, ec.edges) is None
            break
    # wrong size is rejected outright
    assert bad_cut_certificate(c, primary, frozenset(list(cut)[:5])) is None


def test_bad_cut_requires_four_missing2():
    g = petersen()
    from nzflow import compute_oddness

    tf = compute_oddness(g).witness
    c = canonical_coloring(g, tf)
    ag = build_augmented(g, c)
    _tag, p = _partition_variants(ag, canonical_4flow(ag))[0]
    with pytest.raises(ValueError, match="four"):
        bad_cut_certificate(c, p, frozenset(range(6)))


def test_separating_the_first_path_ends_is_never_bad():
    # cuts that split the ends of one path apart fail the monochromatic
    # condition in both partitions; checked exhaustively on the fixture
    g, c, ag, parts = ring_setting()
    z = c.missing2
    checked = 0
    for size in range(1, g.n // 2 + 1):
        for combo in combinations(range(g.n), size):
            s = set(combo)
            if not ((z[0] in s) == (z[1] in s)):
                ec = edge_cut(g, s)
                if len(ec.edges) != 6:
                    continue
                for _tag, p in parts.items():
                    assert bad_cut_certificate(c, p, ec.edges) is None
                checked += 1
    assert checked > 0


def test_validate_violator_claims_on_snark():
    g, c, ag, parts = snark_setting()
    from nzflow import check_balanced_mincut

    for tag, p in parts.items():
        rep = check_balanced_mincut(g, to_five_thirds(p))
        checks = validate_violator_claims(g, c, p, rep.violator)
        assert all(ch.passed for ch in checks), [
            (ch.name, ch.detail) for ch in checks if not ch.passed
        ]
        # complement violates with the same margin
        comp = [v for v in range(g.n) if v not in rep.violator]
        val = to_five_thirds(p)
        assert subset_margin(g, val, comp) == rep.margin
        comp_checks = validate_violator_claims(g, c, p, comp)
        assert all(ch.passed for ch in comp_checks)


def test_failing_checks_are_localized_with_observed_numbers():
    # on the low-connectivity snark some decomposition premises must fail;
    # each failing check names itself and carries the observed quantity
    g = oddness4_snark()
    cert = five_flow_oddness4(g)
    failing = [ch.name for ch in cert.claim_log if not ch.passed]
    assert any(n.startswith(("part", "cross_cut")) for n in failing)
    boundary_fails = [
        ch
        for ch in cert.claim_log
        if ch.name.endswith("_boundary_at_least_five") and not ch.passed
    ]
    assert boundary_fails
    for ch in boundary_fails:
        assert int(ch.detail.split("=")[1]) < 5
    by_name = {ch.name: ch for ch in cert.claim_log}
    # hypothesis-free facts never appear among the failures
    assert by_name["circuits_cross_part0_boundary_evenly"].passed
    for name, ch in by_name.items():
        if name.endswith("cut_parity_matches_imbalance"):
            assert ch.passed


def test_validate_violator_rejects_non_violator():
    g, c, ag, parts = snark_setting()
    p = parts["primary"]
    with pytest.raises(ValueError, match="not a violator"):
        validate_violator_claims(g, c, p, [0])


def test_quad_decomposition_invariants():
    g, c, ag, parts = snark_setting()
    from nzflow import check_balanced_mincut

    cuts = {}
    for tag, p in parts.items():
        rep = check_balanced_mincut(g, to_five_thirds(p))
        cuts[tag] = bad_cut_certificate(c, p, edge_cut(g, rep.violator).edges)
    qd = quad_decompose(g, cuts["primary"].edges, cuts["switched"].edges, c.missing2)
    # the four parts partition the vertex set
    combined = sorted(v for part in qd.parts for v in part)
    assert combined == list(range(g.n))
    for i in range(4):
        assert c.missing2[i] in qd.parts[i]
    # cross cuts are pairwise disjoint pieces of the two bad cuts
    union = set()
    for key, ediff in qd.cross.items():
        assert not (union & ediff)
        union |= ediff
    assert union <= set(qd.cut_a) | set(qd.cut_b)


def test_quad_rejects_cut_with_three_components():
    g, c, ag, parts = snark_setting()
    # two disjoint block cuts leave three components
    left = edge_cut(g, range(9)).edges
    right = edge_cut(g, range(9, 18)).edges
    with pytest.raises(ValueError, match="components"):
        quad_decompose(g, left | right, left, c.missing2)


def test_parity_report_reproduces_counts():
    g, c, ag, parts = snark_setting()
    from nzflow import check_balanced_mincut

    cuts = {}
    for tag, p in parts.items():
        rep = check_balanced_mincut(g, to_five_thirds(p))
        cuts[tag] = bad_cut_certificate(c, p, edge_cut(g, rep.violator).edges)
    qd = quad_decompose(g, cuts["primary"].edges, cuts["switched"].edges, c.missing2)
    report = parity_contradiction_check(qd, c)
    by_name = {ch.name: ch for ch in report.checks}
    # paths genuinely cross both cuts an odd number of times
    for pi, path in enumerate(c.paths):
        for label, cut in (("a", qd.cut_a), ("b", qd.cut_b)):
            odd = len(set(path) & cut) % 2 == 1
            assert by_name[f"path{pi}_crosses_cut_{label}_odd"].passed == odd
            assert odd
    # circuits really do cross the first part boundary evenly
    assert by_name["circuits_cross_part0_boundary_evenly"].passed
    # on this off-hypothesis instance the contradiction must not materialize
    assert not report.contradiction_established
    failed = [ch.name for ch in report.checks if not ch.passed]
    assert failed, "expected at least one premise to fail off-hypothesis"


def test_pipeline_flow_found_on_small_graphs():
    for g, expected_oddness in ((k33(), 0), (k4(), 0), (petersen(), 2)):
        cert = five_flow_oddness4(g)
        assert cert.outcome == "flow_found"
        assert cert.oddness == expected_oddness
        assert cert.flow.modulus == 5
        assert verify_flow(g, cert.flow) == []
        assert is_nowhere_zero(cert.flow)


def test_pipeline_balanced_valuation_confirmed_by_bruteforce():
    g = petersen()
    cert = five_flow_oddness4(g)
    tag = cert.balanced_partition
    _, _, _, parts = (None, None, None, None)
    from nzflow import compute_oddness

    tf = compute_oddness(g).witness
    c = canonical_coloring(g, tf)
    ag = build_augmented(g, c)
    variants = dict(_partition_variants(ag, canonical_4flow(ag)))
    assert check_balanced_bruteforce(g, to_five_thirds(variants[tag])).balanced


def test_pipeline_snark_hypothesis_unmet_with_fallback():
    g = oddness4_snark()
    cert = five_flow_oddness4(g)
    assert cert.outcome == "hypothesis_unmet"
    assert cert.oddness == 4
    assert cert.fallback_flow is not None
    assert verify_flow(g, cert.fallback_flow) == []
    assert is_nowhere_zero(cert.fallback_flow)
    assert cert.fallback_flow.modulus == 5
    # diagnostics were produced for both violators
    names = [ch.name for ch in cert.claim_log]
    assert "primary_violator_cut_is_bad" in names
    assert "switched_violator_cut_is_bad" in names
    assert "parity_contradiction_materialized" in names


def test_pipeline_never_anomalous_on_catalog():
    graphs = [k4(), k33(), petersen(), flower_snark(5), *blanusa_snarks()]
    for g in graphs:
        cert = five_flow_oddness4(g, check_cyclic=False)
        assert cert.outcome != "bad_pair_anomaly"


def test_pipeline_max_work_bounds_cyclic_and_oddness():
    # one budget: each search the pipeline runs gets max_work units
    g = blanusa_snarks()[0]
    assert five_flow_oddness4(g, max_work=400).cyclic["status"] == "checked"
    # the cyclic step takes 378 units (27 for the cut labels of its 27
    # edges and 351 for the bond scan over every pair of them; 296 with
    # the pair flows) and the oddness search 65.  J5 will not do: its
    # oddness search (602 units, the DP it starts at 4n included) costs
    # more than its cyclic step (465)
    assert five_flow_oddness4(g, max_work=378).cyclic["status"] == "checked"
    assert five_flow_oddness4(g, max_work=377).cyclic == {"status": "budget_exceeded"}
    cert = five_flow_oddness4(g, max_work=200)
    assert cert.cyclic == {"status": "budget_exceeded"}
    assert cert.outcome == "flow_found"
    with pytest.raises(BudgetExceededError, match="oddness"):
        five_flow_oddness4(g, max_work=50)


def test_pipeline_rejects_non_cubic():
    with pytest.raises(ValueError, match="cubic"):
        five_flow_oddness4(MultiGraph(2, [(0, 1), (0, 1), (0, 1), (0, 1)]))
    with pytest.raises(ValueError, match="cubic"):
        five_flow_oddness4(MultiGraph(4, [(0, 1), (1, 2), (2, 3)]))


def test_pipeline_bridge_graph_hypothesis_unmet():
    # cubic with a bridge: K4 minus an edge plus an apex of degree 2 on
    # each side, apexes joined by the bridge
    block = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (0, 3), (0, 4)]
    edges = block + [(u + 5, v + 5) for (u, v) in block] + [(0, 5)]
    g = MultiGraph(10, edges)
    assert all(d == 3 for d in g.degrees())
    cert = five_flow_oddness4(g)
    assert cert.outcome == "hypothesis_unmet"
    assert "bridgeless" in cert.reason


def test_pipeline_oddness_above_four_reported():
    # ring of six triangles has a 2-factor of six odd circuits, but its
    # oddness might be smaller, so synthesize: six disjoint copies of the
    # Petersen-minus-vertex block forces oddness >= 6
    from nzflow.catalog import petersen_minus_vertex

    block, stubs = petersen_minus_vertex()
    edges = []
    for j in range(6):
        off = 9 * j
        edges += [(u + off, v + off) for (u, v) in block.edges]
    s = [tuple(x + 9 * j for x in stubs) for j in range(6)]
    for j in range(6):
        edges.append((s[j][0], s[(j + 1) % 6][1]))
    for j in range(3):
        edges.append((s[j][2], s[j + 3][2]))
    g = MultiGraph(54, edges)
    cert = five_flow_oddness4(g, check_cyclic=False)
    assert cert.outcome == "hypothesis_unmet"
    assert cert.oddness == 6
    assert "exceeds 4" in cert.reason


def test_certificate_json_is_serializable():
    cert = five_flow_oddness4(petersen())
    text = json.dumps(cert.to_json(), sort_keys=True)
    assert "flow_found" in text
    cert2 = five_flow_oddness4(oddness4_snark())
    json.dumps(cert2.to_json(), sort_keys=True)


def test_pipeline_deterministic():
    g = oddness4_snark()
    a = five_flow_oddness4(g).to_json()
    b = five_flow_oddness4(g).to_json()
    assert a == b


def _count_balance_checks(monkeypatch):
    """Record the valuation of every check_balanced_mincut call, whether
    the engine makes it or valuation_to_flow does on a failed build."""
    import nzflow.engine
    import nzflow.valuation

    checked = []
    real = nzflow.valuation.check_balanced_mincut

    def counting(g, val):
        checked.append(val)
        return real(g, val)

    monkeypatch.setattr(nzflow.engine, "check_balanced_mincut", counting)
    monkeypatch.setattr(nzflow.valuation, "check_balanced_mincut", counting)
    return checked


def test_analyze_checks_balance_only_where_no_flow_proves_it(
    monkeypatch, tmp_path, capsys
):
    from nzflow import serialize_graph6
    from nzflow.catalog import prism
    from nzflow.cli import main

    checked = _count_balance_checks(monkeypatch)
    # oddness 0: the one variant's flow is built, nothing is checked
    for g in (k4(), k33(), prism(6)):
        path = tmp_path / "g.g6"
        path.write_text(serialize_graph6(g) + "\n")
        assert main(["analyze", str(path), "--skip-cyclic"]) == 0
        (rec,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert rec["oddness"] == 0
        assert rec["outcome"]["outcome"] == "flow_found"
        assert checked == []
    # oddness 2, primary built: only the switched variant is checked
    for g in (petersen(), flower_snark(5), *blanusa_snarks()):
        checked.clear()
        cert = five_flow_oddness4(g, check_cyclic=False)
        assert cert.oddness == 2 and cert.balanced_partition == "primary"
        assert len(checked) == 1
        assert list(cert.valuations) == ["primary", "switched"]
    # both builds fail: each variant is checked once, by its failed build
    checked.clear()
    cert = five_flow_oddness4(oddness4_snark(), check_cyclic=False)
    assert cert.outcome == "hypothesis_unmet"
    assert len(checked) == 2 and checked[0] != checked[1]


def test_analyze_traces_circuits_only_to_close_odd_paths(
    monkeypatch, tmp_path, capsys
):
    import sys

    import nzflow.graph
    from nzflow import serialize_graph6
    from nzflow.catalog import generalized_petersen, prism
    from nzflow.cli import main

    real = nzflow.graph.trace_circuit
    calls = []

    def counting(g, edge_ids):
        calls.append(edge_ids)
        return real(g, edge_ids)

    for name, module in list(sys.modules.items()):
        if name.startswith("nzflow") and getattr(module, "trace_circuit", None) is real:
            monkeypatch.setattr(module, "trace_circuit", counting)

    def analyze(g):
        calls.clear()
        path = tmp_path / "g.g6"
        path.write_text(serialize_graph6(g) + "\n")
        main(["analyze", str(path), "--skip-cyclic"])
        (rec,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        return rec

    # every circuit is walked once, in canonical order, where it is built
    for g in (prism(6), generalized_petersen(10, 2)):
        assert analyze(g)["oddness"] == 0
        assert calls == []
    rec = analyze(oddness4_snark())
    assert rec["oddness"] == 4
    assert 0 < len(calls) <= 2 * 2


def _variant_cases(corpus):
    """(name, augmented graph) for every 2-factor of every corpus graph, the
    oddness witness of the snark families and of random graphs with
    n = 20-50, and the triangle ring."""
    import random

    from nzflow import compute_oddness, enumerate_two_factors
    from nzflow.catalog import random_bridgeless_cubic

    for name, g in corpus:
        for i, tf in enumerate(enumerate_two_factors(g)):
            yield f"{name}/{i}", build_augmented(g, canonical_coloring(g, tf))
    graphs = [(f"blanusa-{i}", g) for i, g in enumerate(blanusa_snarks(), 1)]
    graphs += [(f"flower-{k}", flower_snark(k)) for k in (5, 7, 9)]
    graphs += [("oddness4", oddness4_snark())]
    rng = random.Random(11)
    for i in range(60):
        n = rng.randrange(20, 51, 2)
        graphs.append((f"random-{n}-{i}", random_bridgeless_cubic(n, rng)))
    for name, g in graphs:
        tf = compute_oddness(g).witness
        yield name, build_augmented(g, canonical_coloring(g, tf))
    g, tf = ring_two_factor()
    yield "triangle-ring", build_augmented(g, canonical_coloring(g, tf))


def test_partition_variants_match_the_flow_built_reference(corpus):
    # the switching lemma: reading both variants off one partition gives
    # what rebuilding every reversed or switched flow gives
    from helpers import flow_built_partition_variants

    count = 0
    for name, ag in _variant_cases(corpus):
        f = canonical_4flow(ag)
        got = _partition_variants(ag, f)
        want = flow_built_partition_variants(ag, f)
        assert [t for t, _p in got] == [t for t, _p in want], name
        for (tag, p), (_t, q) in zip(got, want):
            assert p.base_weights == q.base_weights, (name, tag)
            assert (p.white, p.black) == (q.white, q.black), (name, tag)
        count += 1
    assert count > 1200


def test_analyze_partitions_once_and_verifies_the_5flow_at_most_once(
    monkeypatch, tmp_path, capsys
):
    import sys

    import nzflow.flows
    import nzflow.valuation
    from nzflow import serialize_graph6
    from nzflow.catalog import prism
    from nzflow.cli import main

    calls = {"flow_partition": 0, "switch_path": 0, "reverse_flow": 0}
    verified_moduli = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    real_verify = nzflow.flows.verify_flow

    def counting_verify(g, f):
        verified_moduli.append(f.modulus)
        return real_verify(g, f)

    wrappers = {
        nzflow.valuation.flow_partition: counting(
            "flow_partition", nzflow.valuation.flow_partition
        ),
        nzflow.flows.switch_path: counting("switch_path", nzflow.flows.switch_path),
        nzflow.flows.reverse_flow: counting("reverse_flow", nzflow.flows.reverse_flow),
        real_verify: counting_verify,
    }
    for name, module in list(sys.modules.items()):
        if not name.startswith("nzflow"):
            continue
        for attr, value in list(vars(module).items()):
            if callable(value) and value in wrappers:
                monkeypatch.setattr(module, attr, wrappers[value])

    for g, oddness in ((prism(6), 0), (petersen(), 2), (oddness4_snark(), 4)):
        for key in calls:
            calls[key] = 0
        verified_moduli.clear()
        path = tmp_path / "g.g6"
        path.write_text(serialize_graph6(g) + "\n")
        assert main(["analyze", str(path)]) == 0
        (rec,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert rec["oddness"] == oddness
        assert calls == {"flow_partition": 1, "switch_path": 0, "reverse_flow": 0}
        # flow_partition verifies the canonical 4-flow, valuation_to_flow
        # the emitted 5-flow, each once
        assert verified_moduli == [4, 5]


def test_pipeline_builds_the_switched_variant_after_a_failed_primary(monkeypatch):
    import nzflow.engine
    from fractions import Fraction

    from nzflow import BalanceReport, UnbalancedValuationError

    checked = _count_balance_checks(monkeypatch)
    real = nzflow.engine.valuation_to_flow
    violated = BalanceReport(False, (0, 1), Fraction(2, 3), 2)
    calls = []

    def primary_fails(g, val, k):
        calls.append(val)
        if len(calls) == 1:
            raise UnbalancedValuationError(violated)
        return real(g, val, k)

    monkeypatch.setattr(nzflow.engine, "valuation_to_flow", primary_fails)
    cert = five_flow_oddness4(petersen(), check_cyclic=False)
    assert cert.outcome == "flow_found"
    assert cert.balanced_partition == "switched"
    assert cert.valuations["primary"] == violated.to_json()
    assert cert.valuations["switched"]["balanced"] is True
    assert len(calls) == 2 and checked == []


def _reversed_orientation(g, out_deg):
    tails = _initial_orientation(g, out_deg)
    return [g.other_end(eid, t) for eid, t in enumerate(tails)]


@pytest.mark.parametrize(
    "target, replacement, error, message",
    [
        (  # conservation fails
            "_circulation",
            lambda g, tails, k: [1] * g.m,
            InternalInconsistencyError,
            "invalid flow",
        ),
        (  # a valid flow of the opposite valuation
            "_initial_orientation",
            _reversed_orientation,
            InternalInconsistencyError,
            "disagrees with valuation",
        ),
        (  # no circulation although the check calls the valuation balanced
            "_circulation",
            lambda g, tails, k: None,
            InternalInconsistencyError,
            "balanced valuation",
        ),
    ],
)
def test_pipeline_never_reports_a_broken_build_as_violated(
    monkeypatch, target, replacement, error, message
):
    import nzflow.valuation
    from nzflow import UnbalancedValuationError

    monkeypatch.setattr(nzflow.valuation, target, replacement)
    for g in (k33(), petersen()):
        with pytest.raises(error, match=message) as err:
            five_flow_oddness4(g, check_cyclic=False)
        assert not isinstance(err.value, UnbalancedValuationError)
