import random
import sys

import pytest

from helpers import (
    recursive_solve_nowhere_zero_flow,
    three_edge_colorable,
    traced_augmented_circuits,
    traced_canonical_4flow,
    traced_color12_circuits,
    traced_two_factor_circuits,
)

from nzflow import (
    BudgetExceededError,
    Flow,
    MultiGraph,
    build_augmented,
    canonical_coloring,
    canonical_4flow,
    circulation_on_circuit,
    compute_oddness,
    enumerate_two_factors,
    flow_from_json,
    flow_to_json,
    is_nowhere_zero,
    make_flow,
    mod_to_integer_flow,
    reverse_flow,
    solve_nowhere_zero_flow,
    sum_flows,
    switch_path,
    verify_flow,
)
from nzflow.catalog import (
    blanusa_snarks,
    flower_snark,
    k4,
    k33,
    oddness4_snark,
    petersen,
    prism,
    random_bridgeless_cubic,
)
from test_coloring import ring_two_factor
from test_structure import _PARALLEL_4


def square_circuit_edges(g):
    return [
        e
        for e, (u, v) in enumerate(g.edges)
        if {u, v} not in ({0, 3}, {1, 2})
    ]


def test_verify_circuit_flow_value_two():
    g = k4()
    f = circulation_on_circuit(g, square_circuit_edges(g), 2, 4)
    assert verify_flow(g, f) == []


def test_verify_reports_both_endpoints_of_a_reversed_edge():
    g = k4()
    f = circulation_on_circuit(g, square_circuit_edges(g), 2, 4)
    eid = square_circuit_edges(g)[0]
    tails = list(f.tails)
    tails[eid] = g.other_end(eid, tails[eid])
    broken = Flow(graph=g, tails=tuple(tails), values=f.values, modulus=4)
    violations = verify_flow(g, broken)
    assert sorted(v for v, _ in violations) == sorted(g.endpoints(eid))
    assert all(abs(d) == 4 for _, d in violations)


def test_all_zero_flow_is_a_flow_but_not_nowhere_zero():
    g = k4()
    f = make_flow(g, [0] * g.m, 4)
    assert verify_flow(g, f) == []
    assert not is_nowhere_zero(f)


def test_verify_domain_mismatch():
    f = make_flow(k4(), [0] * 6, 4)
    with pytest.raises(ValueError):
        verify_flow(petersen(), f)


def test_sum_with_zero_flow_is_identity():
    g = k4()
    f = circulation_on_circuit(g, square_circuit_edges(g), 2, 4)
    zero = make_flow(g, [0] * g.m, 4)
    assert sum_flows(f, zero) == f


def test_sum_disjoint_circuits_is_union():
    g = MultiGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    a = circulation_on_circuit(g, [0, 1, 2], 1, 4)
    b = circulation_on_circuit(g, [3, 4, 5], 2, 4)
    s = sum_flows(a, b)
    assert verify_flow(g, s) == []
    assert sorted(s.values) == [1, 1, 1, 2, 2, 2]


def test_sum_overlapping_circuits_same_direction():
    g = k4()
    # triangle 0-1-2 and triangle 0-1-3 share edge (0,1), same direction
    tri_a = [e for e, (u, v) in enumerate(g.edges) if {u, v} <= {0, 1, 2}]
    tri_b = [e for e, (u, v) in enumerate(g.edges) if {u, v} <= {0, 1, 3}]
    fa = circulation_on_circuit(g, tri_a, 2, 4)
    fb = circulation_on_circuit(g, tri_b, 1, 4)
    s = sum_flows(fa, fb)
    assert verify_flow(g, s) == []
    shared = next(e for e, (u, v) in enumerate(g.edges) if {u, v} == {0, 1})
    assert s.values[shared] == 3


def test_sum_out_of_range_rejected():
    g = k4()
    f = circulation_on_circuit(g, square_circuit_edges(g), 2, 4)
    with pytest.raises(ValueError, match="larger modulus"):
        sum_flows(f, f)


def test_sum_commutes_and_associates():
    g = k4()
    tri_a = [e for e, (u, v) in enumerate(g.edges) if {u, v} <= {0, 1, 2}]
    tri_b = [e for e, (u, v) in enumerate(g.edges) if {u, v} <= {0, 1, 3}]
    tri_c = [e for e, (u, v) in enumerate(g.edges) if {u, v} <= {0, 2, 3}]
    fa = circulation_on_circuit(g, tri_a, 2, 9)
    fb = circulation_on_circuit(g, tri_b, 2, 9)
    fc = circulation_on_circuit(g, tri_c, 3, 9)
    assert sum_flows(fa, fb) == sum_flows(fb, fa)
    assert sum_flows(sum_flows(fa, fb), fc) == sum_flows(fa, sum_flows(fb, fc))


def _augmented_for(g):
    tf = compute_oddness(g).witness
    c = canonical_coloring(g, tf)
    return build_augmented(g, c)


def test_build_augmented_trivial_case():
    g = k4()
    ag = _augmented_for(g)
    assert ag.pairs == ()
    assert ag.graph.edges == g.edges


def test_build_augmented_petersen():
    g = petersen()
    ag = _augmented_for(g)
    assert len(ag.pairs) == 1
    assert ag.graph.m == g.m + 2
    degrees = ag.graph.degrees()
    fives = [v for v in range(g.n) if degrees[v] == 5]
    assert sorted(fives) == sorted(ag.coloring.missing2)
    assert all(degrees[v] == 3 for v in range(g.n) if v not in fives)
    pair = ag.pairs[0]
    assert ag.colors[pair.closure] == 2
    assert ag.colors[pair.mate] == 4
    # closed circuit is the path plus the closure, a 2-circuit for the pair
    assert set(ag.closed_circuits[0]) == set(ag.coloring.paths[0]) | {pair.closure}
    assert set(ag.twin_circuits[0]) == {pair.closure, pair.mate}


def test_build_augmented_four_missing():
    g, tf = ring_two_factor()
    c = canonical_coloring(g, tf)
    ag = build_augmented(g, c)
    assert len(ag.pairs) == 2
    assert ag.graph.m == g.m + 4
    assert sum(1 for v in range(g.n) if ag.graph.degree(v) == 5) == 4


def _canonical_flow_checks(ag):
    f = canonical_4flow(ag)
    assert verify_flow(ag.graph, f) == []
    assert is_nowhere_zero(f)
    assert f.modulus == 4
    for v in range(ag.graph.n):
        d = ag.graph.degree(v)
        assert abs(2 * f.out_degree(v) - d) == 1
    return f


def test_canonical_4flow_trivial_and_petersen():
    for g in (k4(), k33(), petersen()):
        _canonical_flow_checks(_augmented_for(g))


def test_canonical_4flow_four_missing():
    g, tf = ring_two_factor()
    c = canonical_coloring(g, tf)
    _canonical_flow_checks(build_augmented(g, c))


def test_canonical_4flow_orientation_choices_stay_valid():
    g = petersen()
    ag = _augmented_for(g)
    n_factor = len(ag.coloring.factor.circuits)
    n_closed = len(ag.closed_circuits)
    for i in range(n_factor):
        flips = [j == i for j in range(n_factor)]
        f = canonical_4flow(ag, flip_factor=flips)
        assert verify_flow(ag.graph, f) == [] and is_nowhere_zero(f)
    for i in range(n_closed):
        flips = [j == i for j in range(n_closed)]
        f = canonical_4flow(ag, flip_closed=flips)
        assert verify_flow(ag.graph, f) == [] and is_nowhere_zero(f)


def test_canonical_4flow_inconsistent_twin_rejected():
    g = petersen()
    ag = _augmented_for(g)
    base = canonical_4flow(ag, flip_twin=[False])  # consistent with default
    with pytest.raises(ValueError, match="disagrees"):
        canonical_4flow(ag, flip_twin=[True])
    assert base == canonical_4flow(ag)


def test_switch_path_is_involution_and_valid():
    g = petersen()
    ag = _augmented_for(g)
    f = canonical_4flow(ag)
    f1 = switch_path(ag, f, 0)
    assert verify_flow(ag.graph, f1) == [] and is_nowhere_zero(f1)
    assert f1 != f
    assert switch_path(ag, f1, 0) == f


def test_switch_path_index_out_of_range():
    g = petersen()
    ag = _augmented_for(g)
    f = canonical_4flow(ag)
    with pytest.raises(ValueError, match="out of range"):
        switch_path(ag, f, 1)


def test_solver_petersen_k4_unsat_k5_sat():
    g = petersen()
    assert solve_nowhere_zero_flow(g, 4) is None
    f = solve_nowhere_zero_flow(g, 5)
    assert verify_flow(g, f) == [] and is_nowhere_zero(f)
    assert all(1 <= x <= 4 for x in f.values)


def test_solver_k33_k3():
    g = k33()
    f = solve_nowhere_zero_flow(g, 3)
    assert verify_flow(g, f) == [] and is_nowhere_zero(f)
    assert all(1 <= x <= 2 for x in f.values)


def test_solver_bridge_graph_unsat():
    # a bridge admits no nowhere-zero flow for any k
    block = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
    edges = block + [(u + 4, v + 4) for (u, v) in block] + [(0, 4)]
    g = MultiGraph(8, edges)
    assert solve_nowhere_zero_flow(g, 6) is None


def test_solver_matches_edge_coloring_oracle(corpus):
    # cubic: 4-flow exists iff 3-edge-colorable
    for name, g in corpus:
        if g.n > 10:
            continue
        has_4flow = solve_nowhere_zero_flow(g, 4) is not None
        assert has_4flow == three_edge_colorable(g), name


def test_solver_monotone_in_k(corpus):
    for name, g in corpus[:20]:
        found = None
        for k in (3, 4, 5, 6):
            f = solve_nowhere_zero_flow(g, k)
            if found is not None:
                assert f is not None, (name, k)
            if f is not None:
                found = k


def test_solver_budget():
    with pytest.raises(BudgetExceededError):
        solve_nowhere_zero_flow(petersen(), 5, max_work=2)


def test_mod_to_integer_identity_on_exact_input():
    g = k4()
    f = circulation_on_circuit(g, square_circuit_edges(g), 2, 4)
    # restrict to nonzero values: build a genuinely all-nonzero modular flow
    h = solve_nowhere_zero_flow(g, 4)
    assert mod_to_integer_flow(g, h, 4) == h
    assert f.modulus == 4


def test_mod_to_integer_converts_modular_solutions(corpus):
    # solver outputs pass through the converter; every one must be an exact
    # conserving flow with full support and values still in 1..k-1
    for name, g in corpus:
        if g.n > 10:
            continue
        for k in (4, 5):
            f = solve_nowhere_zero_flow(g, k)
            if f is None:
                continue
            assert verify_flow(g, f) == []
            assert is_nowhere_zero(f)
            assert all(1 <= x <= k - 1 for x in f.values)


def test_mod_to_integer_reroutes_a_genuine_surplus():
    # parallel pair oriented the same way: conserving mod 5 only
    g = MultiGraph(2, [(0, 1), (0, 1)])
    modular = Flow(graph=g, tails=(0, 0), values=(1, 4), modulus=5)
    assert verify_flow(g, modular) != []
    exact = mod_to_integer_flow(g, modular, 5)
    assert verify_flow(g, exact) == []
    assert is_nowhere_zero(exact)
    assert sorted(exact.values) == [4, 4]


def test_mod_to_integer_rejects_non_modular():
    g = k4()
    bogus = Flow(graph=g, tails=tuple(u for u, _ in g.edges), values=(1,) * 6, modulus=4)
    with pytest.raises(ValueError):
        mod_to_integer_flow(g, bogus, 4)


def test_reverse_flow_is_valid_and_involutive():
    g = petersen()
    f = solve_nowhere_zero_flow(g, 5)
    r = reverse_flow(f)
    assert verify_flow(g, r) == []
    assert reverse_flow(r) == f
    assert r != f


def test_certificate_json_round_trip():
    g = petersen()
    f = solve_nowhere_zero_flow(g, 5)
    obj = flow_to_json(f)
    back = flow_from_json(g, obj)
    assert back == f


def test_certificate_rejects_mismatches():
    g = petersen()
    f = solve_nowhere_zero_flow(g, 5)
    obj = flow_to_json(f)
    other = flow_to_json(solve_nowhere_zero_flow(k4(), 4))
    with pytest.raises(ValueError):
        flow_from_json(g, other)
    broken = flow_to_json(f)
    broken["edges"][0]["tail"] = 9
    broken["edges"][0]["head"] = 8
    with pytest.raises(ValueError, match="endpoints"):
        flow_from_json(g, broken)


def _circuit_graphs(corpus):
    graphs = list(corpus)
    graphs += [(f"flower-{k}", flower_snark(k)) for k in (5, 7, 9)]
    graphs += [(f"blanusa-{i}", g) for i, g in enumerate(blanusa_snarks(), 1)]
    graphs += [("oddness4", oddness4_snark()), ("parallel-4", _PARALLEL_4)]
    rng = random.Random(7)
    for i in range(20):
        n = rng.randrange(16, 41, 2)
        graphs.append((f"random-{n}-{i}", random_bridgeless_cubic(n, rng)))
    return graphs


def test_circuits_traced_once_match_traced_references(corpus):
    # every stage reads its circuits in the order the 2-factor walk or the
    # colour-{1,2} walk produced; compare each with a construction that
    # re-traces every circuit from its edge set
    for name, g in _circuit_graphs(corpus):
        factors = [compute_oddness(g).witness]
        if g.n <= 8:
            factors += list(enumerate_two_factors(g))
        for tf in factors:
            assert tf.circuits == traced_two_factor_circuits(g, tf.matching), name
            c = canonical_coloring(g, tf)
            assert c.circuits == traced_color12_circuits(g, c), name
            ag = build_augmented(g, c)
            assert (ag.closed_circuits, ag.twin_circuits) == traced_augmented_circuits(
                ag
            ), name
            f = canonical_4flow(ag)
            assert f == traced_canonical_4flow(ag), name
            heads = [e["head"] for e in flow_to_json(f)["edges"]]
            assert heads == [f.head(e) for e in range(ag.graph.m)], name
            flips = [i % 2 == 0 for i in range(len(tf.circuits))]
            assert canonical_4flow(ag, flip_factor=flips) == traced_canonical_4flow(
                ag, flip_factor=flips
            ), name
            for i in range(len(ag.pairs)):
                flips = [j == i for j in range(len(ag.closed_circuits))]
                switched = traced_canonical_4flow(ag, flip_closed=flips)
                assert canonical_4flow(ag, flip_closed=flips) == switched, name
                assert switch_path(ag, f, i) == switched, name


def test_solver_matches_recursive_reference(corpus):
    rng = random.Random(3)
    graphs = list(corpus)
    graphs += [
        (f"random-{i}", random_bridgeless_cubic(rng.randrange(12, 23, 2), rng))
        for i in range(10)
    ]
    for name, g in graphs:
        for k in (3, 4, 5):
            got = solve_nowhere_zero_flow(g, k)
            assert got == recursive_solve_nowhere_zero_flow(g, k), (name, k)


def _work_needed(solve, g, k):
    """Smallest ``max_work`` under which ``solve`` finishes."""
    lo, hi = 0, 1
    while True:
        try:
            solve(g, k, max_work=hi)
            break
        except BudgetExceededError:
            lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            solve(g, k, max_work=mid)
            hi = mid
        except BudgetExceededError:
            lo = mid
    return hi


@pytest.mark.parametrize(
    "g,k",
    [(petersen(), 4), (petersen(), 5), (k33(), 3), (flower_snark(5), 4), (prism(5), 3)],
    ids=["petersen-4", "petersen-5", "k33-3", "flower5-4", "prism5-3"],
)
def test_solver_spends_the_reference_work(g, k):
    # the same work count means the same budget error points
    assert _work_needed(solve_nowhere_zero_flow, g, k) == _work_needed(
        recursive_solve_nowhere_zero_flow, g, k
    )


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_solver_needs_no_recursion():
    g = prism(300)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 50)
    try:
        with pytest.raises(RecursionError):
            recursive_solve_nowhere_zero_flow(g, 5)
        f = solve_nowhere_zero_flow(g, 5)
    finally:
        sys.setrecursionlimit(limit)
    assert verify_flow(g, f) == [] and is_nowhere_zero(f)
