import random
from fractions import Fraction

import pytest

from helpers import (
    brute_is_balanced,
    brute_max_margins,
    check_balanced_bruteforce,
    network_orientation,
    random_cubic_multigraph,
    two_network_check_balanced_mincut,
)

import nzflow.valuation

from nzflow import (
    InternalInconsistencyError,
    UnbalancedValuationError,
    Valuation,
    build_augmented,
    canonical_coloring,
    canonical_4flow,
    check_balanced_mincut,
    compute_oddness,
    flow_partition,
    flow_to_valuation,
    reverse_flow,
    solve_nowhere_zero_flow,
    subset_margin,
    switch_path,
    to_five_thirds,
    valuation_to_flow,
    verify_flow,
)
from nzflow.catalog import (
    _moebius_ladder,
    generalized_petersen,
    k4,
    k33,
    petersen,
    prism,
    random_bridgeless_cubic,
)
from nzflow.engine import _partition_variants
from nzflow.maxflow import MaxFlow
from nzflow.valuation import _initial_orientation, _prescribed_out_degrees
from test_coloring import ring_two_factor


def partition_for(g):
    tf = compute_oddness(g).witness
    c = canonical_coloring(g, tf)
    ag = build_augmented(g, c)
    f = canonical_4flow(ag)
    return ag, f, flow_partition(ag, f)


def test_partition_weights_are_plus_minus_two():
    for g in (k4(), k33(), petersen()):
        _, _, p = partition_for(g)
        assert set(p.base_weights) <= {-2, 2}
        assert set(p.white) | set(p.black) == set(range(g.n))
        assert not set(p.white) & set(p.black)


def test_color_1_and_2_edges_cross_the_partition():
    for g in (k4(), petersen()):
        ag, _, p = partition_for(g)
        c = ag.coloring
        for eid in range(ag.graph.m):
            if ag.colors[eid] in (1, 2):
                u, v = ag.graph.endpoints(eid)
                assert p.is_white(u) != p.is_white(v), (eid, ag.colors[eid])


def test_partition_classes_have_equal_size():
    for g in (k4(), k33(), petersen()):
        _, _, p = partition_for(g)
        assert len(p.white) == len(p.black)


def test_switch_swaps_exactly_the_path_vertices():
    g = petersen()
    ag, f, p = partition_for(g)
    f2 = switch_path(ag, f, 0)
    p2 = flow_partition(ag, f2)
    on_path = set()
    for e in ag.coloring.paths[0]:
        on_path.update(ag.graph.endpoints(e))
    assert set(p.white) ^ set(p2.white) == on_path
    assert set(p.black) ^ set(p2.black) == on_path
    assert p.swapped(on_path) == p2
    # reversing the whole flow exchanges every vertex's class
    assert p.swapped(range(g.n)) == flow_partition(ag, reverse_flow(f))


def test_switch_lemma_on_two_paths():
    g, tf = ring_two_factor()
    c = canonical_coloring(g, tf)
    ag = build_augmented(g, c)
    f = canonical_4flow(ag)
    p = flow_partition(ag, f)
    for i in range(2):
        p2 = flow_partition(ag, switch_path(ag, f, i))
        on_path = set()
        for e in c.paths[i]:
            on_path.update(g.endpoints(e))
        assert set(p.white) ^ set(p2.white) == on_path
        assert p.swapped(on_path) == p2


def test_every_switch_combination_gives_a_valid_partition():
    from itertools import product

    g, tf = ring_two_factor()
    c = canonical_coloring(g, tf)
    ag = build_augmented(g, c)
    base = canonical_4flow(ag)
    p0 = flow_partition(ag, base)
    path_vertices = []
    for path in c.paths:
        vs = set()
        for e in path:
            vs.update(g.endpoints(e))
        path_vertices.append(vs)
    # paths are vertex-disjoint components of the color-{1,2} subgraph
    assert not (path_vertices[0] & path_vertices[1])
    for combo in product((False, True), repeat=len(c.paths)):
        f = base
        for i, flip in enumerate(combo):
            if flip:
                f = switch_path(ag, f, i)
        p = flow_partition(ag, f)  # validates the degree identity
        expected_moved = set()
        for i, flip in enumerate(combo):
            if flip:
                expected_moved |= path_vertices[i]
        assert set(p0.white) ^ set(p.white) == expected_moved


def test_to_five_thirds_values_and_total():
    g = petersen()
    _, _, p = partition_for(g)
    val = to_five_thirds(p)
    assert val.denominator == 3
    assert set(val.numerators) == {-5, 5}
    assert sum(val.numerators) == 0
    assert subset_margin(g, val, [0]) == Fraction(5, 3) - 3
    assert subset_margin(g, val, range(g.n)) == 0


def test_flow_to_valuation_formula():
    g = petersen()
    f5 = solve_nowhere_zero_flow(g, 5)
    val = flow_to_valuation(g, f5, 5)
    assert val.denominator == 3
    for v in range(g.n):
        expected = Fraction(5, 3) * (2 * f5.out_degree(v) - 3)
        assert val.value(v) == expected
        assert abs(val.value(v)) == Fraction(5, 3)
    f4flow = solve_nowhere_zero_flow(k4(), 4)
    val4 = flow_to_valuation(k4(), f4flow, 4)
    for v in range(4):
        assert val4.value(v) == 2 * (2 * f4flow.out_degree(v) - 3)
        assert abs(val4.value(v)) == 2


def test_flow_valuations_are_balanced(corpus):
    for name, g in corpus:
        if g.n > 12:
            continue
        f = solve_nowhere_zero_flow(g, 5)
        val = flow_to_valuation(g, f, 5)
        assert check_balanced_bruteforce(g, val).balanced, name
        assert check_balanced_mincut(g, val).balanced, name


def test_trivial_subsets_never_violate():
    g = petersen()
    _, _, p = partition_for(g)
    val = to_five_thirds(p)
    assert subset_margin(g, val, []) == 0
    assert subset_margin(g, val, range(g.n)) == 0


def test_k4_all_positive_is_violated_by_everything():
    g = k4()
    val = Valuation(denominator=3, numerators=(5, 5, 5, 5))
    rb = check_balanced_bruteforce(g, val)
    rm = check_balanced_mincut(g, val)
    assert not rb.balanced and not rm.balanced
    assert rb.margin == rm.margin == Fraction(20, 3)
    assert rb.violator == rm.violator == (0, 1, 2, 3)
    assert rb.class_difference == 4


def test_checkers_agree_against_naive_oracle():
    rng = random.Random(7)
    g = k4()
    for _ in range(50):
        nums = tuple(rng.choice((-5, 5)) for _ in range(g.n))
        val = Valuation(denominator=3, numerators=nums)
        expected = brute_is_balanced(g, nums, 3)
        assert check_balanced_bruteforce(g, val).balanced == expected
        assert check_balanced_mincut(g, val).balanced == expected


def test_checkers_agree_on_random_assignments(corpus):
    rng = random.Random(12345)
    for name, g in corpus:
        if g.n > 12:
            continue
        for _ in range(40):
            nums = tuple(rng.choice((-5, 5)) for _ in range(g.n))
            val = Valuation(denominator=3, numerators=nums)
            rb = check_balanced_bruteforce(g, val)
            rm = check_balanced_mincut(g, val)
            assert rb.balanced == rm.balanced, name
            assert rb.margin == rm.margin, name
            if not rb.balanced:
                # both violators check out when recomputed from scratch
                assert subset_margin(g, val, rb.violator) == rb.margin
                assert subset_margin(g, val, rm.violator) == rm.margin


def test_batched_brute_margins_match_the_brute_force(corpus):
    # the batched helper behind acceptance criterion 3, row by row against
    # the exhaustive checker, across several chunks of rows
    rng = random.Random(2024)
    for name, g in corpus[::9] + [("petersen", petersen())]:
        rows = [tuple(rng.randint(-7, 7) for _ in range(g.n)) for _ in range(30)]
        for nums, best in zip(rows, brute_max_margins(g, rows, 3, chunk=7)):
            rb = check_balanced_bruteforce(g, Valuation(denominator=3, numerators=nums))
            assert Fraction(best, 3) == rb.margin, name
            assert (best == 0) == rb.balanced, name


def _report(rep):
    return (rep.balanced, rep.violator, rep.margin, rep.class_difference)


def test_one_network_check_matches_references(corpus):
    # +-5 valuations (T = 0 or not) and mixed magnitudes, where the sign of T
    # decides which sign of the objective wins
    rng = random.Random(4242)
    won = {"plus": 0, "minus": 0, "tie": 0}
    for name, g in corpus:
        if g.n > 12:
            continue
        for i in range(12):
            if i < 6:
                nums = tuple(rng.choice((-5, 5)) for _ in range(g.n))
            else:
                nums = tuple(rng.randint(-9, 9) for _ in range(g.n))
            val = Valuation(denominator=rng.choice((1, 3)), numerators=nums)
            rm = check_balanced_mincut(g, val)
            assert _report(rm) == _report(
                two_network_check_balanced_mincut(g, val)
            ), (name, val)
            assert _report(rm) == _report(check_balanced_bruteforce(g, val)), (
                name,
                val,
            )
            if not rm.balanced:
                total = sum(nums)
                won["plus" if total > 0 else "minus" if total < 0 else "tie"] += 1
    assert min(won.values()) > 0, won


def test_one_network_check_matches_references_on_flow_partitions(corpus):
    for name, g in corpus:
        if g.n > 12:
            continue
        _, _, p = partition_for(g)
        val = to_five_thirds(p)
        rm = check_balanced_mincut(g, val)
        assert _report(rm) == _report(two_network_check_balanced_mincut(g, val))
        assert _report(rm) == _report(check_balanced_bruteforce(g, val))


def test_mincut_check_builds_one_network(monkeypatch):
    built = []

    class Counted(MaxFlow):
        def __init__(self, n):
            super().__init__(n)
            built.append(self)

    monkeypatch.setattr(nzflow.valuation, "MaxFlow", Counted)
    g = petersen()
    cases = [
        (5,) * 10,  # plus wins
        (-5,) * 10,  # minus wins
        (5, -5) * 5,  # T = 0
        (0,) * 10,  # balanced, no source or sink arcs
        flow_to_valuation(g, solve_nowhere_zero_flow(g, 5), 5).numerators,
    ]
    for nums in cases:
        built.clear()
        check_balanced_mincut(g, Valuation(denominator=3, numerators=nums))
        assert len(built) == 1, nums


def test_bruteforce_guard():
    g = petersen()
    val = Valuation(denominator=3, numerators=(5,) * 10)
    with pytest.raises(ValueError, match="guard"):
        check_balanced_bruteforce(g, val, max_vertices=8)


def test_valuation_round_trip(corpus):
    # the first orientation with the prescribed out-degrees realizes every
    # balanced valuation, for every k the graph has a flow for
    for name, g in corpus:
        if g.n > 12:
            continue
        for k in (4, 5, 6):
            f = solve_nowhere_zero_flow(g, k)
            if f is None:
                continue
            val = flow_to_valuation(g, f, k)
            back = valuation_to_flow(g, val, k)
            assert verify_flow(g, back) == [], (name, k)
            assert flow_to_valuation(g, back, k) == val, (name, k)


def five_thirds_out_degrees(g):
    """Prescribed 5-flow out-degrees of the graph's +-5/3 valuations, one
    per partition variant of the pipeline."""
    ag = build_augmented(g, canonical_coloring(g, compute_oddness(g).witness))
    return [
        _prescribed_out_degrees(g, to_five_thirds(p), 5)
        for _tag, p in _partition_variants(ag, canonical_4flow(ag))
    ]


def test_initial_orientation_matches_the_orientation_network(corpus):
    # the same tails as Dinic on the network s -> edge -> end -> t, or None
    # exactly when that network has no flow of value m
    rng = random.Random(21)
    graphs = [g for _name, g in corpus]
    for n in (7, 24, 101, 199):
        graphs += [prism(n), _moebius_ladder(2 * n)]
        graphs += [generalized_petersen(n, k) for k in (2, 3)]
    graphs += [random_bridgeless_cubic(n, rng) for n in (20, 40, 60, 100)]
    cases = [(g, out) for g in graphs for out in five_thirds_out_degrees(g)]
    for _ in range(150):
        g = random_cubic_multigraph(rng.choice((4, 6, 10, 20, 40)), rng)
        out = [0] * g.n
        for u, v in g.edges:
            out[rng.choice((u, v))] += 1
        cases.append((g, out))  # the out-degrees of a random orientation
        cases.append((g, out[:-1] + [out[-1] + 1]))  # sum m + 1
        while True:  # degrees 0-3 summing to m, rarely realizable
            out = [rng.randrange(4) for _ in range(g.n)]
            if sum(out) == g.m:
                break
        cases.append((g, out))
    found = [_initial_orientation(g, out) for g, out in cases]
    assert found == [network_orientation(g, out) for g, out in cases]
    realized = sum(tails is not None for tails in found)
    assert 0 < realized < len(cases)


def test_k33_three_flow_round_trip():
    g = k33()
    f = solve_nowhere_zero_flow(g, 3)
    val = flow_to_valuation(g, f, 3)
    back = valuation_to_flow(g, val, 3)
    assert flow_to_valuation(g, back, 3) == val


def test_unbalanced_valuation_rejected():
    g = k4()
    val = Valuation(denominator=3, numerators=(5, 5, 5, 5))
    with pytest.raises(UnbalancedValuationError, match="not balanced") as err:
        valuation_to_flow(g, val, 5)
    assert isinstance(err.value, ValueError)
    assert err.value.report == check_balanced_mincut(g, val)


def test_wrong_form_valuation_rejected():
    g = k4()
    # balanced but not of the degree form for k=5
    val = Valuation(denominator=3, numerators=(0, 0, 0, 0))
    with pytest.raises(ValueError, match="degree form"):
        valuation_to_flow(g, val, 5)


def test_infeasible_circulation_on_balanced_valuation_is_internal_error(
    monkeypatch,
):
    g = petersen()
    val = flow_to_valuation(g, solve_nowhere_zero_flow(g, 5), 5)
    monkeypatch.setattr(
        "nzflow.valuation.feasible_circulation", lambda n, arcs: None
    )
    with pytest.raises(InternalInconsistencyError, match="balanced valuation"):
        valuation_to_flow(g, val, 5)
