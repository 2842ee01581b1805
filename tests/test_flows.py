import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    recursion_headroom,
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
    compute_oddness,
    enumerate_two_factors,
    flow_from_json,
    flow_to_json,
    is_nowhere_zero,
    make_flow,
    mod_to_integer_flow,
    reverse_flow,
    solve_nowhere_zero_flow,
    switch_path,
    verify_flow,
)
from nzflow.flows import flow_json_text
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


def square_flow(g):
    """Value 2 around K4's square 0-1-3-2-0, signed on the natural
    orientation of its edges (0,1), (0,2), (0,3), (1,2), (1,3), (2,3)."""
    assert g.edges == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    return make_flow(g, [2, -2, 0, 0, 2, -2], 4)


def test_verify_circuit_flow_value_two():
    g = k4()
    f = square_flow(g)
    assert verify_flow(g, f) == []
    # negative values reverse their edges: 2 -> 0 and 3 -> 2
    assert f.tails == (0, 2, 0, 1, 1, 3)
    assert f.values == (2, 2, 0, 0, 2, 2)


def test_verify_reports_both_endpoints_of_a_reversed_edge():
    g = k4()
    f = square_flow(g)
    eid = 0
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


def _augmented_for(g):
    tf = compute_oddness(g).witness
    c = canonical_coloring(g, tf)
    return build_augmented(g, c)


def test_build_augmented_trivial_case():
    g = k4()
    ag = _augmented_for(g)
    assert ag.pairs == ()
    assert ag.graph.edges == g.edges


def test_colourable_graph_is_its_own_augmented_graph():
    # no odd path: the base graph itself, not a copy; with one, a new graph
    # that holds the base edges and the pair
    for g in (prism(5), k4()):
        assert _augmented_for(g).graph is g
    g = petersen()
    ag = _augmented_for(g)
    assert ag.graph is not g
    assert ag.graph.edges[: g.m] == g.edges
    (pair,) = ag.pairs
    assert ag.graph.edges[pair.closure] == ag.graph.edges[pair.mate] == pair.ends


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
    # restrict to nonzero values: build a genuinely all-nonzero modular flow
    h = solve_nowhere_zero_flow(g, 4)
    assert mod_to_integer_flow(g, h, 4) == h


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


@st.composite
def _any_flows(draw):
    """A flow record on a random multigraph, parallel edges and ``m = 0``
    included, with any orientation and any values from 0 to k - 1."""
    n = draw(st.integers(2, 9))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)), max_size=30))
    g = MultiGraph(n, [(u, (u + d) % n) for u, d in pairs])
    k = draw(st.integers(2, 12))
    flips = draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m))
    values = draw(st.lists(st.integers(0, k - 1), min_size=g.m, max_size=g.m))
    tails = tuple(v if flip else u for (u, v), flip in zip(g.edges, flips))
    return Flow(graph=g, tails=tails, values=tuple(values), modulus=k)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_any_flows())
def test_certificate_text_is_the_compact_sorted_json(f):
    assert flow_json_text(f) == json.dumps(
        flow_to_json(f), sort_keys=True, separators=(",", ":")
    )


def test_certificate_text_of_the_empty_graph():
    f = Flow(graph=MultiGraph(3, []), tails=(), values=(), modulus=5)
    assert flow_json_text(f) == '{"edges":[],"k":5}'
    assert json.loads(flow_json_text(f)) == flow_to_json(f)


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
            assert heads == [
                ag.graph.other_end(e, f.tails[e]) for e in range(ag.graph.m)
            ], name
            for i in range(len(ag.pairs)):
                flips = [j == i for j in range(len(ag.closed_circuits))]
                switched = traced_canonical_4flow(ag, flip_closed=flips)
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


def test_solver_needs_no_recursion():
    g = prism(300)
    with recursion_headroom():
        with pytest.raises(RecursionError):
            recursive_solve_nowhere_zero_flow(g, 5)
        f = solve_nowhere_zero_flow(g, 5)
    assert verify_flow(g, f) == [] and is_nowhere_zero(f)


def test_solver_edge_picks_are_not_quadratic(monkeypatch):
    # unit propagation forces almost every edge of a prism, so a pick that
    # scanned every edge would make the endpoint lookups per edge grow
    # with the prism; with the queue of picks they stay flat
    lookups = [0]
    endpoints = MultiGraph.endpoints

    def counted(self, eid):
        lookups[0] += 1
        return endpoints(self, eid)

    monkeypatch.setattr(MultiGraph, "endpoints", counted)
    per_edge = []
    for n in (150, 600):
        g = prism(n)
        lookups[0] = 0
        f = solve_nowhere_zero_flow(g, 5)
        per_edge.append(lookups[0] / g.m)
        assert verify_flow(g, f) == [] and is_nowhere_zero(f)
    assert per_edge[1] < 1.25 * per_edge[0], per_edge


def test_make_flow_rejects_a_value_out_of_range():
    # the orientation reads each edge's ends off the edge array; a value out
    # of range is reported at its edge, before the edge is read
    g = k4()
    assert make_flow(g, [1, -1, 0, 3, -3, 2], 4).tails == (0, 2, 0, 1, 3, 2)
    for values, eid, s in (([1, 4, 0, 0, 0, 0], 1, 4), ([0, 0, 0, 0, 0, -5], 5, -5)):
        with pytest.raises(
            ValueError, match=f"^edge {eid}: value {s} out of range for modulus 4$"
        ):
            make_flow(g, values, 4)
    with pytest.raises(ValueError, match="^modulus must be at least 2$"):
        make_flow(g, [0] * 6, 1)
    with pytest.raises(IndexError, match="^tuple index out of range$"):
        make_flow(g, [1] * 7, 4)
