import random
from fractions import Fraction

import pytest

from helpers import (
    RecursiveMaxFlow,
    brute_is_balanced,
    brute_max_margins,
    check_balanced_bruteforce,
    network_circulation,
    network_orientation,
    random_cubic_multigraph,
    two_network_check_balanced_mincut,
)

import nzflow.valuation

from nzflow import (
    AugmentedGraph,
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
    make_flow,
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
from nzflow.graph import MultiGraph
from nzflow.valuation import (
    _circulation,
    _initial_orientation,
    _prescribed_out_degrees,
)
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


def _random_multigraph(rng):
    """A multigraph on 1-9 vertices from random vertex pairs: parallel edges
    are kept, and there are few enough edges that isolated vertices and
    several components are common."""
    n = rng.randint(1, 9)
    pairs = rng.randint(0, 2 * n) if n > 1 else 0
    return MultiGraph(n, [rng.sample(range(n), 2) for _ in range(pairs)])


def test_one_network_check_matches_references(corpus):
    # +-5 valuations (T = 0 or not) and mixed magnitudes, where the sign of T
    # decides which sign of the objective wins, then random multigraphs with
    # zero weights among the others
    rng = random.Random(4242)
    cases = []
    for name, g in corpus:
        if g.n > 12:
            continue
        for i in range(12):
            if i < 6:
                nums = tuple(rng.choice((-5, 5)) for _ in range(g.n))
            else:
                nums = tuple(rng.randint(-9, 9) for _ in range(g.n))
            val = Valuation(denominator=rng.choice((1, 3)), numerators=nums)
            cases.append((name, g, val))
    multigraphs = [_random_multigraph(rng) for _ in range(500)]
    for i, g in enumerate(multigraphs):
        nums = tuple(rng.choice((0, rng.randint(-9, 9))) for _ in range(g.n))
        val = Valuation(denominator=rng.randint(1, 3), numerators=nums)
        cases.append((f"multigraph {i}", g, val))
    assert any(g.n == 1 for g in multigraphs)
    assert any(len({frozenset(e) for e in g.edges}) < g.m for g in multigraphs)
    assert any(g.m and 0 in g.degrees() for g in multigraphs)
    won = {"plus": 0, "minus": 0, "tie": 0}
    for name, g, val in cases:
        rm = check_balanced_mincut(g, val)
        assert _report(rm) == _report(
            two_network_check_balanced_mincut(g, val)
        ), (name, val)
        assert _report(rm) == _report(check_balanced_bruteforce(g, val)), (
            name,
            val,
        )
        if not rm.balanced:
            total = sum(val.numerators)
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
    calls = []
    real = nzflow.valuation._max_flow

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(nzflow.valuation, "_max_flow", counted)
    g = petersen()
    cases = [
        (5,) * 10,  # plus wins
        (-5,) * 10,  # minus wins
        (5, -5) * 5,  # T = 0
        (0,) * 10,  # balanced, no supply or demand
        flow_to_valuation(g, solve_nowhere_zero_flow(g, 5), 5).numerators,
    ]
    for nums in cases:
        calls.clear()
        check_balanced_mincut(g, Valuation(denominator=3, numerators=nums))
        assert len(calls) == 1, nums


def test_balance_check_on_a_long_path_needs_no_recursion():
    # supply 3 at one end, demand 3 at the other, capacity 2 per edge: the
    # flow runs the whole path, and each end alone is a violator
    n = 3000
    g = MultiGraph(n, [(v, v + 1) for v in range(n - 1)])
    nums = (3,) + (0,) * (n - 2) + (-3,)
    rep = check_balanced_mincut(g, Valuation(denominator=2, numerators=nums))
    assert _report(rep) == (False, (0,), Fraction(1, 2), None)
    rem, bwd = list(nums), [0] * g.m
    tails = [u for u, _v in g.edges]
    assert not nzflow.valuation._max_flow(g, tails, rem, [2] * g.m, bwd)
    assert bwd == [2] * g.m and (rem[0], rem[-1]) == (1, -1)


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


def test_circulation_matches_the_circulation_network(corpus):
    # the same values as Dinic on the bounded circulation network, or None
    # exactly when that network cannot saturate its arcs from the source
    rng = random.Random(23)
    graphs = [g for _name, g in corpus]
    for n in (7, 24, 101, 199):
        graphs += [prism(n), _moebius_ladder(2 * n)]
        graphs += [generalized_petersen(n, k) for k in (2, 3)]
    graphs += [random_bridgeless_cubic(n, rng) for n in (20, 40, 60, 100)]
    cases = [
        (g, _initial_orientation(g, out), 5)
        for g in graphs
        for out in five_thirds_out_degrees(g)
    ]
    for _ in range(400):
        g = random_cubic_multigraph(rng.choice((4, 6, 10, 20, 40)), rng)
        cases.append((g, [rng.choice(e) for e in g.edges], rng.randint(3, 7)))
        while True:  # out-degrees 1 and 2 summing to m
            out = [rng.choice((1, 2)) for _ in range(g.n)]
            if sum(out) == g.m:
                break
        cases.append((g, _initial_orientation(g, out), rng.randint(3, 7)))
    for _ in range(1500):  # any degrees: sources and sinks share neighbours
        n = rng.randint(2, 14)
        edges = [rng.sample(range(n), 2) for _ in range(rng.randint(1, 3 * n))]
        g = MultiGraph(n, edges)
        cases.append((g, [rng.choice(e) for e in g.edges], rng.randint(3, 7)))
    cases = [(g, tails, k) for g, tails, k in cases if tails is not None]
    found = [_circulation(g, tails, k) for g, tails, k in cases]
    assert found == [
        network_circulation(
            g.n, [(t, g.other_end(e, t), 1, k - 1) for e, t in enumerate(tails)]
        )
        for g, tails, k in cases
    ]
    realized = sum(values is not None for values in found)
    assert 0 < realized < len(cases)


def test_feasible_circulation_values_follow_the_arc_order():
    # a directed 4-cycle with a chord: bounds force the cycle, the chord
    # stays at its lower bound
    arcs = [(0, 1, 1, 3), (1, 2, 1, 3), (2, 3, 0, 3), (3, 0, 1, 3), (0, 2, 0, 0)]
    values = network_circulation(4, arcs)
    assert values == [1, 1, 1, 1, 0]
    assert network_circulation(2, [(0, 1, 1, 2)]) is None
    assert network_circulation(2, [(0, 1, 2, 1)]) is None


def test_zero_capacity_arcs_carry_nothing():
    net = RecursiveMaxFlow(3)
    a = net.add_edge(0, 1, 0)
    b = net.add_edge(0, 2, 1)
    c = net.add_edge(2, 1, 1)
    assert net.max_flow(0, 1) == 1
    assert (net.flow_on(a), net.flow_on(b), net.flow_on(c)) == (0, 1, 1)


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


def _per_vertex_out_degrees(g, val, k):
    """Out-degrees from ``f(v) = k/(k-2) * (2*outdeg - deg)``, one vertex at
    a time, with the first failing vertex in the error."""
    out = []
    for v in range(g.n):
        two_outdeg = val.value(v) * (k - 2) / k + g.degree(v)
        if two_outdeg.denominator != 1 or two_outdeg.numerator % 2:
            raise ValueError(
                f"vertex {v}: valuation value {val.value(v)} is not of the "
                f"degree form for k={k}"
            )
        d = two_outdeg.numerator // 2
        if not 0 <= d <= g.degree(v):
            raise ValueError(f"vertex {v}: prescribed out-degree {d} infeasible")
        out.append(d)
    return out


def test_out_degrees_are_converted_per_pair_as_per_vertex():
    # the same out-degrees, or the same error naming the same first vertex,
    # on valuations that mix good pairs with bad ones of either kind
    rng = random.Random(29)
    graphs = [petersen(), prism(7), random_cubic_multigraph(12, rng)]
    graphs += [
        MultiGraph(6, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    ]
    outcomes = set()
    for _ in range(600):
        g = rng.choice(graphs)
        k = rng.randint(3, 7)
        den = rng.choice((1, 2, 3, k - 2, 2 * (k - 2)))
        bad_share = rng.choice((0, 0, 0.05, 0.3))
        nums = []
        for v in range(g.n):
            # the numerator of out-degree d in the degree form, sometimes
            # with d out of range or the numerator off the form
            deg = g.degree(v)
            d = rng.randint(0, deg)
            off = 0
            if rng.random() < bad_share:
                if rng.random() < 0.5:
                    d = rng.choice((-1, deg + 1))
                else:
                    off = rng.choice((1, -1))
            nums.append(((2 * d - deg) * k * den) // (k - 2) + off)
        val = Valuation(den, tuple(nums))
        try:
            expected = _per_vertex_out_degrees(g, val, k)
        except ValueError as exc:
            expected = str(exc)
        try:
            got = _prescribed_out_degrees(g, val, k)
        except ValueError as exc:
            got = str(exc)
        assert got == expected, (g.n, k, val)
        if isinstance(expected, list):
            outcomes.add("out-degrees")
        else:
            outcomes.add("form" if "degree form" in expected else "range")
    assert outcomes == {"out-degrees", "form", "range"}


def test_k_below_three_and_a_zero_denominator_are_rejected():
    # k/(k-2) has no positive value below k = 3: each call fails before
    # any arithmetic instead of dividing by zero or returning denominator 0
    with pytest.raises(ValueError, match="k must be at least 3"):
        valuation_to_flow(petersen(), Valuation(1, (0,) * 10), 0)
    c4 = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(ValueError, match="k must be at least 3"):
        flow_to_valuation(c4, make_flow(c4, [1, 1, 1, 1], 2), 2)
    with pytest.raises(ValueError, match="denominator"):
        Valuation(denominator=0, numerators=(0, 0, 0, 0))


def test_infeasible_circulation_on_balanced_valuation_is_internal_error(
    monkeypatch,
):
    g = petersen()
    val = flow_to_valuation(g, solve_nowhere_zero_flow(g, 5), 5)
    monkeypatch.setattr(
        "nzflow.valuation._circulation", lambda g, tails, k: None
    )
    with pytest.raises(InternalInconsistencyError, match="balanced valuation"):
        valuation_to_flow(g, val, 5)


def test_flow_partition_rejects_a_flow_that_is_not_canonical():
    # a verified nowhere-zero flow with 2*outdeg - deg = 0 at a vertex: on
    # four parallel edges, two run each way; the error keeps its message
    g = MultiGraph(2, [(0, 1)] * 4)
    f = make_flow(g, [1, 1, -1, -1], 4)
    assert verify_flow(g, f) == []
    ag = AugmentedGraph(g, g, (), (), (), (0,) * 4, None)
    with pytest.raises(
        ValueError, match=r"^vertex 0: 2\*outdeg - deg = 0, flow is not canonical$"
    ):
        flow_partition(ag, f)
    with pytest.raises(
        ValueError, match="^partition requires a verified nowhere-zero flow$"
    ):
        flow_partition(ag, make_flow(g, [1, 1, -1, 0], 4))
