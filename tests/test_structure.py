import random

import pytest

from helpers import brute_cyclic_min_cut, dinic_min_cut_between, three_edge_colorable

from nzflow import (
    BudgetExceededError,
    MultiGraph,
    compute_oddness,
    cyclic_connectivity,
    enumerate_two_factors,
    girth,
    is_cyclically_k_connected,
    two_factor_from_matching,
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
    _moebius_ladder,
)
from nzflow.structure import (
    _Budget,
    _UnitCuts,
    _chordless_cycles,
    _length_bound,
)


def _check_two_factor_invariants(g, tf):
    assert tf.matching | tf.factor == frozenset(range(g.m))
    assert not (tf.matching & tf.factor)
    cover = [0] * g.n
    for e in tf.matching:
        u, v = g.endpoints(e)
        cover[u] += 1
        cover[v] += 1
    assert all(c == 1 for c in cover)
    on_circuit = [0] * g.n
    for circ in tf.circuits:
        seen = set()
        for e in circ:
            seen.update(g.endpoints(e))
        for v in seen:
            on_circuit[v] += 1
    assert all(c == 1 for c in on_circuit)
    assert tf.odd_count == sum(1 for c in tf.circuits if len(c) % 2)
    assert tf.odd_count % 2 == 0


def test_k4_has_three_two_factors_all_even():
    g = k4()
    tfs = list(enumerate_two_factors(g))
    assert len(tfs) == 3
    for tf in tfs:
        _check_two_factor_invariants(g, tf)
        assert [len(c) for c in tf.circuits] == [4]
        assert tf.odd_count == 0


def test_petersen_has_six_matchings_each_two_five_cycles():
    g = petersen()
    tfs = list(enumerate_two_factors(g))
    assert len(tfs) == 6
    for tf in tfs:
        _check_two_factor_invariants(g, tf)
        assert sorted(len(c) for c in tf.circuits) == [5, 5]
        assert tf.odd_count == 2


def test_k33_two_factors_have_even_circuits_only():
    g = k33()
    for tf in enumerate_two_factors(g):
        _check_two_factor_invariants(g, tf)
        assert tf.odd_count == 0


def test_enumeration_is_deterministic():
    g = petersen()
    a = [tf.matching for tf in enumerate_two_factors(g)]
    b = [tf.matching for tf in enumerate_two_factors(g)]
    assert a == b
    assert len(set(a)) == len(a)


def test_enumerate_rejects_non_cubic():
    with pytest.raises(ValueError, match="cubic"):
        list(enumerate_two_factors(MultiGraph(2, [(0, 1)])))


def test_two_factor_from_matching_rejects_non_matching():
    g = k4()
    with pytest.raises(ValueError):
        two_factor_from_matching(g, [0, 1])


def test_oddness_values():
    assert compute_oddness(k4()).oddness == 0
    assert compute_oddness(petersen()).oddness == 2
    assert compute_oddness(k33()).oddness == 0


def test_oddness_witness_attains_value():
    for g in (k4(), petersen(), flower_snark(5)):
        res = compute_oddness(g)
        _check_two_factor_invariants(g, res.witness)
        assert res.witness.odd_count == res.oddness
        assert res.oddness % 2 == 0


def test_oddness_is_minimum_over_enumeration():
    for g in (k4(), k33(), petersen(), prism(5)):
        best = min(tf.odd_count for tf in enumerate_two_factors(g))
        assert compute_oddness(g).oddness == best


def test_oddness_zero_iff_three_edge_colorable(corpus):
    for name, g in corpus:
        if g.n > 12:
            continue
        assert (compute_oddness(g).oddness == 0) == three_edge_colorable(g), name


def test_oddness_zero_iff_three_edge_colorable_on_random_graphs():
    # on these graphs the search once tried to give a vertex a third
    # 2-factor edge, which corrupted its path bookkeeping
    for n, seed in ((20, 8), (24, 0)):
        g = random_bridgeless_cubic(n, random.Random(seed))
        assert (compute_oddness(g).oddness == 0) == three_edge_colorable(g)


def test_known_snark_oddness():
    for g in blanusa_snarks():
        assert compute_oddness(g).oddness == 2
    assert compute_oddness(flower_snark(7)).oddness == 2
    assert compute_oddness(oddness4_snark()).oddness == 4


def test_oddness_budget_is_distinct_outcome():
    with pytest.raises(BudgetExceededError):
        compute_oddness(oddness4_snark(), max_work=3)


def test_cyclic_k_connectivity_petersen():
    g = petersen()
    assert is_cyclically_k_connected(g, 5).connected
    chk = is_cyclically_k_connected(g, 6)
    assert not chk.connected
    witness = chk.witness
    assert len(witness.edges) == 5
    side = frozenset(witness.side)
    # both sides contain a cycle: each side of the witness is one 5-cycle
    from helpers import _has_cycle

    assert _has_cycle(g, side)
    assert _has_cycle(g, frozenset(range(g.n)) - side)


def test_cyclic_vacuous_graphs():
    for g in (k4(), k33()):
        assert is_cyclically_k_connected(g, 50).connected
        res = cyclic_connectivity(g)
        assert res.vacuous and res.value is None


def test_cyclic_rejects_bad_k():
    with pytest.raises(ValueError):
        is_cyclically_k_connected(k4(), 0)


def test_cyclic_exact_values_match_brute_force(corpus):
    small = [(name, g) for name, g in corpus if g.n <= 10]
    twelve = [(name, g) for name, g in corpus if g.n == 12][:10]
    for name, g in small + twelve:
        expected = brute_cyclic_min_cut(g)
        got = cyclic_connectivity(g)
        if expected is None:
            assert got.vacuous, name
        else:
            assert got.value == expected, name
            assert len(got.witness.edges) == expected


def test_cyclic_known_values():
    assert cyclic_connectivity(petersen()).value == 5
    assert cyclic_connectivity(oddness4_snark(), max_work=5_000_000).value == 3
    assert cyclic_connectivity(flower_snark(5), max_work=5_000_000).value == 5


def test_girth():
    assert girth(k4()) == 3
    assert girth(petersen()) == 5
    assert girth(k33()) == 4
    assert girth(MultiGraph(2, [(0, 1), (0, 1)])) == 2
    assert girth(MultiGraph(3, [(0, 1), (1, 2)])) is None


def _disjoint_pairs(cycles):
    for i, a in enumerate(cycles):
        for b in cycles[i + 1 :]:
            if not set(a) & set(b):
                yield a, b


def test_cyclic_length_cap_matches_brute_force_at_16_vertices():
    # _length_bound(16, c - 1) = c + 9 < 16, so the cap is below n here,
    # though no chordless cycle of these graphs is longer than the cap
    graphs = [("prism-8", prism(8)), ("moebius-16", _moebius_ladder(16))]
    graphs += [
        (f"random-16-{s}", random_bridgeless_cubic(16, random.Random(s)))
        for s in range(4)
    ]
    for name, g in graphs:
        assert cyclic_connectivity(g).value == brute_cyclic_min_cut(g), name


def test_cyclic_length_cap_matches_uncapped_sweep_where_it_prunes():
    # the minimum over all disjoint chordless-cycle pairs is the cyclic
    # connectivity; on these graphs the cap drops some chordless cycles
    for n, seed in ((24, 0), (24, 2), (28, 2)):
        g = random_bridgeless_cubic(n, random.Random(seed))
        got = cyclic_connectivity(g).value
        cycles = _chordless_cycles(g, g.n, _Budget(None))
        assert any(len(c) > _length_bound(g.n, got - 1) for c in cycles)
        assert got == min(
            dinic_min_cut_between(g, a, b)[0] for a, b in _disjoint_pairs(cycles)
        )


_REFERENCE_GRAPHS = [
    ("petersen", petersen()),
    ("flower-5", flower_snark(5)),
    ("blanusa-1", blanusa_snarks()[0]),
    ("parallel-4", MultiGraph(4, [(0, 1), (0, 1), (1, 2), (2, 3), (2, 3), (3, 0)])),
    (
        "parallel-6",
        MultiGraph(
            6,
            [(0, 1), (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (2, 5), (3, 4)],
        ),
    ),
    # some of its minimum cuts need augmenting paths that cancel flow
    ("random-28-7", random_bridgeless_cubic(28, random.Random(7))),
]


@pytest.mark.parametrize("name,g", _REFERENCE_GRAPHS, ids=[n for n, _ in _REFERENCE_GRAPHS])
def test_unit_cuts_match_dinic_reference_on_every_pair(name, g):
    cuts = _UnitCuts(g)  # one flow list, reused by every query
    pairs = list(_disjoint_pairs(_chordless_cycles(g, g.n, _Budget(None))))
    assert pairs
    for a, b in pairs:
        value, side = dinic_min_cut_between(g, a, b)
        assert cuts.min_cut(a, b) == (value, side), (a, b)
        assert cuts.min_cut(a, b, value + 1) == (value, side), (a, b)
        assert cuts.min_cut(a, b, value) == (value, None), (a, b)


@pytest.mark.parametrize("name,g", _REFERENCE_GRAPHS, ids=[n for n, _ in _REFERENCE_GRAPHS])
def test_cyclic_witness_is_first_reference_minimum(name, g):
    res = cyclic_connectivity(g)
    # every graph here settles in the first sweep, capped from the girth
    assert res.value <= girth(g)
    cycles = _chordless_cycles(g, _length_bound(g.n, girth(g) - 1), _Budget(None))
    best = None
    for a, b in _disjoint_pairs(cycles):
        value, side = dinic_min_cut_between(g, a, b)
        if best is None or value < best[0]:
            best = (value, side)
    value, side = best
    assert res.value == value
    assert res.witness.side == tuple(sorted(side))
    assert res.witness.edges == frozenset(
        eid for eid, (u, v) in enumerate(g.edges) if (u in side) != (v in side)
    )


@pytest.mark.parametrize(
    "make,units",
    [(lambda: flower_snark(5), 2_695), (oddness4_snark, 43_127)],
    ids=["flower-5", "oddness4"],
)
def test_cyclic_work_units_are_pinned(make, units):
    # chordless-cycle extensions plus 4 units per disjoint cycle pair
    g = make()
    assert cyclic_connectivity(g, max_work=units).value is not None
    with pytest.raises(BudgetExceededError):
        cyclic_connectivity(g, max_work=units - 1)
