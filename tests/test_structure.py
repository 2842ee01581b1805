import random
from itertools import permutations, product

import pytest

from helpers import (
    bipartition_table,
    brute_cyclic_min_cut,
    dinic_min_cut_between,
    induced_girth,
    reference_cyclic_connectivity,
    reference_cyclically_k_connected,
    reference_length_bound,
    three_edge_colorable,
)

import nzflow.structure
from nzflow import (
    BudgetExceededError,
    MultiGraph,
    compute_oddness,
    cyclic_connectivity,
    enumerate_two_factors,
    girth,
    is_cyclically_k_connected,
    three_edge_colourable,
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
    _edge_connectivity,
    _moore_girth,
    _side_caps,
    _state_bound,
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


_PARALLEL_4 = MultiGraph(4, [(0, 1), (0, 1), (1, 2), (2, 3), (2, 3), (3, 0)])


def _truncation(g):
    """Replace every vertex by a triangle; oddness and colourability stay."""
    edges = []
    for v in range(g.n):
        edges += [(3 * v, 3 * v + 1), (3 * v + 1, 3 * v + 2), (3 * v, 3 * v + 2)]
    slot = [0] * g.n
    for u, v in g.edges:
        edges.append((3 * u + slot[u], 3 * v + slot[v]))
        slot[u] += 1
        slot[v] += 1
    return MultiGraph(3 * g.n, edges)


def _relabel(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return MultiGraph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _first_attaining(g, oddness):
    return next(
        tf.matching for tf in enumerate_two_factors(g) if tf.odd_count == oddness
    )


def test_three_edge_colourable_matches_oracle(corpus):
    graphs = list(corpus)
    graphs += [
        (f"random-{n}-{s}", random_bridgeless_cubic(n, random.Random(s)))
        for n in range(8, 23, 2)
        for s in range(5)
    ]
    graphs += [("flower-5", flower_snark(5)), ("oddness4", oddness4_snark())]
    graphs += [(f"blanusa-{i}", g) for i, g in enumerate(blanusa_snarks(), 1)]
    graphs += [("parallel-4", _PARALLEL_4)]
    assert not all(three_edge_colorable(g) for _, g in graphs)
    for name, g in graphs:
        assert three_edge_colourable(g) == three_edge_colorable(g), name


def test_state_bound_covers_every_parity_respecting_frontier():
    # a frontier colouring has every colour count = width (mod 2) by the
    # parity lemma; the DP keeps one word per colour renaming
    for width in range(9):
        classes = {
            min(bytes(p[c] for c in word) for p in permutations(range(3)))
            for word in product(range(3), repeat=width)
            if all(word.count(c) % 2 == width % 2 for c in range(3))
        }
        assert len(classes) <= _state_bound(width), width
        assert _state_bound(width) - len(classes) == width % 2


def test_oddness_witness_is_first_attaining_two_factor(corpus):
    graphs = list(corpus)
    graphs += [(f"flower-{k}", flower_snark(k)) for k in (5, 7, 9, 11)]
    graphs += [(f"blanusa-{i}", g) for i, g in enumerate(blanusa_snarks(), 1)]
    graphs += [("oddness4", oddness4_snark())]
    graphs += [
        (f"random-{n}-{s}", random_bridgeless_cubic(n, random.Random(s)))
        for n in (16, 20, 24, 28, 32)
        for s in range(4)
    ]
    for name, g in graphs:
        res = compute_oddness(g)
        assert res.witness.matching == _first_attaining(g, res.oddness), name


@pytest.mark.parametrize(
    "make",
    [
        lambda: _relabel(_truncation(blanusa_snarks()[0]), 0),
        lambda: _relabel(_truncation(blanusa_snarks()[1]), 1),
        lambda: _relabel(flower_snark(9), 2),
        oddness4_snark,
    ],
    ids=["blanusa-1-truncated", "blanusa-2-truncated", "flower-9-relabelled", "oddness4"],
)
def test_oddness_witness_does_not_depend_on_when_the_dp_runs(monkeypatch, make):
    # the first 2-factors of the truncated graphs have 4 or 6 odd circuits;
    # a bound of 1 runs the DP once the search has spent n units, a huge
    # bound never runs it and the search exhausts every matching
    g = make()
    results = []
    for bound in (1, 10**9):
        monkeypatch.setattr(nzflow.structure, "_state_bound", lambda w: bound)
        res = compute_oddness(g)
        results.append((res.oddness, res.witness.matching))
    assert results[0] == results[1]
    assert results[0][1] == _first_attaining(g, results[0][0])


def _count_dp_runs(monkeypatch):
    runs = []
    real = nzflow.structure._frontier_colourable

    def counted(*args):
        runs.append(args[0].n)
        return real(*args)

    monkeypatch.setattr(nzflow.structure, "_frontier_colourable", counted)
    return runs


def test_dp_never_runs_on_colourable_random_graphs(monkeypatch):
    runs = _count_dp_runs(monkeypatch)
    for n in (40, 44, 48, 50):
        for s in range(5):
            g = random_bridgeless_cubic(n, random.Random(s))
            assert compute_oddness(g).oddness == 0, (n, s)
    assert runs == []


def test_dp_runs_once_on_flower_15(monkeypatch):
    runs = _count_dp_runs(monkeypatch)
    assert compute_oddness(flower_snark(15)).oddness == 2
    assert runs == [60]


@pytest.mark.parametrize("k,units", [(15, 7_622), (21, 120_262)], ids=["flower-15", "flower-21"])
def test_oddness_work_is_pinned_on_flower_snarks(k, units):
    # an exhaustive search needs far more.  On J15 the DP runs after the
    # first 2-factor with two odd circuits and the search stops at once; on
    # J21 it runs before, and the search stops at that 2-factor
    g = flower_snark(k)
    assert compute_oddness(g, max_work=units).oddness == 2
    with pytest.raises(BudgetExceededError):
        compute_oddness(g, max_work=units - 1)


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
    sets = [frozenset(c) for c in cycles]
    for i, a in enumerate(cycles):
        for j in range(i + 1, len(cycles)):
            if not sets[i] & sets[j]:
                yield a, cycles[j]


def _disjoint_union(*graphs):
    edges, offset = [], 0
    for g in graphs:
        edges += [(u + offset, v + offset) for u, v in g.edges]
        offset += g.n
    return MultiGraph(offset, edges)


# two copies of K4 with one edge subdivided, joined at the subdivision
# vertices: cubic, with a bridge
_BRIDGED = MultiGraph(
    10,
    [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 0), (4, 1),
     (5, 7), (5, 8), (6, 7), (6, 8), (7, 8), (9, 5), (9, 6), (4, 9)],
)
_PARALLEL_6 = MultiGraph(
    6, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (2, 5), (3, 4)]
)


def _small_cap_graphs(corpus):
    graphs = list(corpus)
    graphs += [
        (f"random-{n}-{s}", random_bridgeless_cubic(n, random.Random(s)))
        for n in (10, 12, 14, 16)
        for s in range(3)
    ]
    graphs += [
        ("parallel-4", _PARALLEL_4),
        ("parallel-6", _PARALLEL_6),
        ("bridged-10", _BRIDGED),
        ("2k33", _disjoint_union(k33(), k33())),
        ("k4+k33", _disjoint_union(k4(), k33())),
    ]
    return graphs


def test_moore_girth_is_the_moore_bound():
    # orders 0..30: K4 (4), K3,3 (6), Petersen (10), Heawood (14) and
    # Tutte-Coxeter (30) attain the bound; 22 is n0(3, 7)
    expected = [0, 1, 2, 2, 3, 3] + [4] * 4 + [5] * 4 + [6] * 8 + [7] * 8 + [8]
    assert [_moore_girth(order) for order in range(31)] == expected
    for g in (k4(), k33(), petersen()):
        assert girth(g) == _moore_girth(g.n)


def test_side_caps_never_shrink_as_the_cut_grows():
    # a cap for cuts of at most c edges covers every smaller minimum cut;
    # c + m(n - 2c) alone drops from n/2 + 1 to n/2 at c = n/2
    for n in range(3, 40):
        g = prism(n)
        caps = [_side_caps(g, c) for c in range(g.n)]
        for c in range(1, g.n):
            (small, large), (smaller, larger) = caps[c], caps[c - 1]
            assert small >= smaller and large >= larger, (n, c)


def test_side_caps_hold_on_every_minimum_cyclic_cut(corpus):
    # every vertex bipartition: each side of every minimum cycle-separating
    # cut has a cycle (hence a chordless one) within the lemma's bound and
    # within its side's cap
    checked = 0
    for name, g in _small_cap_graphs(corpus):
        masks, cut, cyclic_in, cyclic_out = bipartition_table(g)
        both = cyclic_in & cyclic_out
        if not both.any():
            assert cyclic_connectivity(g).vacuous, name
            continue
        c = int(cut[both].min())
        assert cyclic_connectivity(g).value == c, name
        small, large = _side_caps(g, c)
        everything = frozenset(range(g.n))
        for mask in masks[both & (cut == c)]:
            side = frozenset(v for v in range(g.n) if int(mask) >> v & 1)
            for part in (side, everything - side):
                shortest = induced_girth(g, part)
                assert shortest <= c + _moore_girth(len(part) - c), (name, sorted(part))
                cap = small if len(part) <= g.n // 2 else large
                assert shortest <= cap, (name, sorted(part))
                checked += 1
    assert checked > 500


def test_edge_connectivity_matches_every_bipartition(corpus):
    for name, g in _small_cap_graphs(corpus):
        _, cut, _, _ = bipartition_table(g)
        least = int(cut.min())
        for limit in range(5):
            got = _edge_connectivity(g, _UnitCuts(g), limit, _Budget(None))
            assert got == min(least, limit), (name, limit)


def test_side_caps_drop_nothing_on_graphs_that_are_not_cubic():
    # two 30-cycles joined by one edge (id 60), and two triangles, each
    # joined to the first cycle by two edges: the only 1-edge
    # cycle-separating cut splits the long cycles, which the caps for a
    # cubic graph on 66 vertices would drop
    edges = [(i, (i + 1) % 30) for i in range(30)]
    edges += [(30 + i, 30 + (i + 1) % 30) for i in range(30)]
    edges += [(0, 30)]
    for t, a in ((60, 5), (63, 15)):
        edges += [(t, t + 1), (t + 1, t + 2), (t + 2, t), (a, t), (a + 1, t + 1)]
    g = MultiGraph(66, edges)
    assert _side_caps(g, 2) == (66, 66)
    res = cyclic_connectivity(g)
    assert res.value == 1 and res.witness.edges == frozenset({60})
    chk = is_cyclically_k_connected(g, 2)
    assert not chk.connected and chk.witness.edges == frozenset({60})


def test_cyclic_length_cap_matches_brute_force_at_16_vertices():
    # _side_caps at n = 16 keeps cycles of at most 8 vertices for cuts
    # below 5, half of n
    graphs = [("prism-8", prism(8)), ("moebius-16", _moebius_ladder(16))]
    graphs += [
        (f"random-16-{s}", random_bridgeless_cubic(16, random.Random(s)))
        for s in range(4)
    ]
    for name, g in graphs:
        assert cyclic_connectivity(g).value == brute_cyclic_min_cut(g), name


def test_cyclic_length_cap_matches_uncapped_sweep_where_it_prunes():
    # the minimum over all disjoint chordless-cycle pairs is the cyclic
    # connectivity; on these graphs the caps drop chordless cycles, from
    # the list and from the first place of a pair
    graphs = ((24, 0), (24, 2), (28, 2), (28, 3), (32, 2), (36, 11), (40, 4))
    for n, seed in graphs:
        g = random_bridgeless_cubic(n, random.Random(seed))
        got = cyclic_connectivity(g).value
        small, large = _side_caps(g, got - 1)
        cycles = _chordless_cycles(g, g.n, _Budget(None))
        assert any(small < len(c) <= large for c in cycles), (n, seed)
        assert any(len(c) > large for c in cycles), (n, seed)
        assert got == min(
            dinic_min_cut_between(g, a, b)[0] for a, b in _disjoint_pairs(cycles)
        ), (n, seed)


_REFERENCE_GRAPHS = [
    ("petersen", petersen()),
    ("flower-5", flower_snark(5)),
    ("blanusa-1", blanusa_snarks()[0]),
    ("parallel-4", _PARALLEL_4),
    ("parallel-6", _PARALLEL_6),
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
    cycles = _chordless_cycles(g, reference_length_bound(g.n, girth(g) - 1), _Budget(None))
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


_SWEEP_GRAPHS = [(f"flower-{k}", flower_snark(k)) for k in (5, 7, 9, 11)]
_SWEEP_GRAPHS += [(f"blanusa-{i}", g) for i, g in enumerate(blanusa_snarks(), 1)]
_SWEEP_GRAPHS += [
    ("oddness4", oddness4_snark()),
    ("parallel-4", _PARALLEL_4),
    ("parallel-6", _PARALLEL_6),
    ("2k33", _disjoint_union(k33(), k33())),
]


def _assert_matches_reference_sweep(name, g, ks):
    res = cyclic_connectivity(g)
    value, side = reference_cyclic_connectivity(g)
    assert (res.value, res.vacuous) == (value, value is None), name
    if value is None:
        assert res.witness is None, name
    else:
        assert res.witness.side == tuple(sorted(side)), name
    for k in ks:
        side = reference_cyclically_k_connected(g, k)
        chk = is_cyclically_k_connected(g, k)
        assert chk.connected == (side is None), (name, k)
        if side is not None:
            assert chk.witness.side == tuple(sorted(side)), (name, k)


@pytest.mark.parametrize("name,g", _SWEEP_GRAPHS, ids=[n for n, _ in _SWEEP_GRAPHS])
def test_cyclic_sweep_matches_the_earlier_length_cap(name, g):
    # the caps keep a subsequence of the earlier pairs, and on these graphs
    # the first pair reaching the minimum survives, so values, verdicts and
    # witnesses are unchanged.  Under the earlier cap the k-sweeps of J9
    # and J11 take seconds, so they are left out
    _assert_matches_reference_sweep(name, g, (4, 5, 6) if g.n < 36 else ())


def test_cyclic_sweep_matches_the_earlier_length_cap_on_the_corpus(corpus):
    for name, g in corpus:
        _assert_matches_reference_sweep(name, g, (4, 5, 6))


@pytest.mark.parametrize(
    "make,units",
    [(lambda: flower_snark(5), 1_338), (oddness4_snark, 3_089)],
    ids=["flower-5", "oddness4"],
)
def test_cyclic_work_units_are_pinned(make, units):
    # chordless-cycle extensions plus 4 units per disjoint cycle pair, per
    # flow of the edge-connectivity check and per node of the automorphism
    # search.  Under the earlier length cap J5 took 2,695 (1,631
    # extensions, 266 pairs) and the oddness-4 snark 43,127 (23,575
    # extensions, 4,888 pairs).  With the side caps J5 took 1,910 (950
    # extensions, 240 pairs).  Now J5 tries 60 pairs (3 per vertex), then
    # searches its group in 15 nodes and sweeps only orbit-first cycles,
    # 22 more pairs: 950 + 4 * (82 + 15) = 1,338.  The snark takes 2,945
    # extensions, and its first pair gives a 3-edge cut, which 35 flows
    # show is its edge-connectivity, so the sweep stops before the search
    g = make()
    assert cyclic_connectivity(g, max_work=units).value is not None
    with pytest.raises(BudgetExceededError):
        cyclic_connectivity(g, max_work=units - 1)
