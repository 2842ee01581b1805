import math
import random
from collections import Counter
from itertools import combinations, permutations, product

import networkx as nx
import numpy as np
import pytest

from helpers import (
    bipartition_table,
    brute_cyclic_min_cut,
    dinic_min_cut_between,
    edge_switched,
    frontier_widths,
    induced_girth,
    lcf,
    on_fresh_thread,
    random_cubic_multigraph,
    reference_cyclic_connectivity,
    reference_neighbourhood_cut,
    recursion_headroom,
    recursive_enumerate_two_factors,
    recursive_oddness,
    reference_best_order,
    reference_dp_bound,
    reference_frontier_colourable,
    reference_frontier_order,
    reference_length_bound,
    reference_remaining_bound,
    shuffled,
    three_bridged_k4s,
    three_edge_colorable,
)

import nzflow.structure
from nzflow import (
    Budget,
    BudgetExceededError,
    InternalInconsistencyError,
    MultiGraph,
    basic_checks,
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
    dot_product,
    flower_snark,
    generalized_petersen,
    k4,
    k33,
    oddness4_snark,
    petersen,
    prism,
    random_bridgeless_cubic,
    _moebius_ladder,
)
from nzflow.structure import (
    _MEMO_STEPS,
    _DovetailedDP,
    _OddnessSearch,
    _StepMemo,
    _UnitCuts,
    _best_order,
    _chordless_cycles,
    _cut_labels,
    _edge_floor,
    _frontier_colourable,
    _frontier_order,
    _frontier_profile,
    _matching_barrier,
    _moore_girth,
    _neighbourhood_cut,
    _remaining_bound,
    _renamed,
    _side_caps,
    _state_bound,
)
from nzflow.symmetry import automorphisms


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


def test_oddness_of_a_graph_without_a_perfect_matching_is_a_domain_error():
    g = three_bridged_k4s()
    assert basic_checks(g).bridges and not list(enumerate_two_factors(g))
    with pytest.raises(ValueError, match="^cubic graph has a bridge and no perfect matching$"):
        compute_oddness(g)


def test_bridgeless_graph_without_a_matching_is_an_internal_error(monkeypatch):
    # a search that ends with no matching on a bridgeless graph is a bug
    monkeypatch.setattr(_OddnessSearch, "run", lambda self: None)
    with pytest.raises(InternalInconsistencyError, match="always have one"):
        compute_oddness(petersen())


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


def test_three_edge_colourable_stays_narrow_on_ladders(monkeypatch):
    # along the lowest-id order alone prism(30) has a 31-edge frontier, and
    # the DP did not finish within a minute
    states = []
    real = nzflow.structure._frontier_colourable
    monkeypatch.setattr(
        nzflow.structure,
        "_frontier_colourable",
        lambda g, order, spend: real(g, order, states.append),
    )
    graphs = [("gp-40-2", generalized_petersen(40, 2))]
    for v in (60, 62, 200, 398):
        graphs += [(f"prism-{v}", prism(v // 2)), (f"moebius-{v}", _moebius_ladder(v))]
        graphs += [(f"gp-{v}-{k}", generalized_petersen(v // 2, k)) for k in (2, 3)]
    graphs += [(f"{name}-shuffled", shuffled(g, random.Random(g.n))) for name, g in graphs]
    for name, g in graphs:
        states.clear()
        assert three_edge_colourable(g), name
        assert sum(states) <= 100_000, name  # GP(199, 3) expands 69,317
        assert max(frontier_widths(g, _best_order(g, lambda units: None))) <= 16, name


def test_three_edge_colourable_is_bounded_by_max_work():
    with pytest.raises(BudgetExceededError, match="3-edge-colouring"):
        three_edge_colourable(flower_snark(21), max_work=1_000)
    assert three_edge_colourable(prism(30))
    for k in range(5, 22, 2):
        assert not three_edge_colourable(flower_snark(k)), k
    # charged as the DP inside compute_oddness, run to its verdict: n units
    # for each order scored and one for each state
    for g in (flower_snark(21), prism(30)):
        budget = Budget(None)
        dp = _DovetailedDP(g, budget)
        while dp.verdict is None:
            dp.step()
        assert three_edge_colourable(g, max_work=budget.used) == dp.verdict
        with pytest.raises(BudgetExceededError):
            three_edge_colourable(g, max_work=budget.used - 1)


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


def test_renaming_by_first_appearance_is_the_least_relabeling():
    relabelings = [bytes(p) + bytes(253) for p in permutations(range(3))]
    for width in range(9):
        for word in product(range(3), repeat=width):
            word = bytes(word)
            assert _renamed(word) == min(word.translate(r) for r in relabelings)


def _dp_bound_graphs(corpus):
    graphs = list(corpus)
    graphs += [(f"flower-{k}", flower_snark(k)) for k in range(5, 22, 2)]
    graphs += [
        (f"dot-{k}", dot_product(oddness4_snark(), flower_snark(k), (0, 21), 0))
        for k in range(5, 14, 2)
    ]
    graphs += [
        (f"flower-11-shuffled-{s}", shuffled(flower_snark(11), random.Random(s)))
        for s in (1, 2, 3)
    ]
    graphs += [
        (f"random-{n}-{s}", random_bridgeless_cubic(n, random.Random(s)))
        for n in range(10, 41, 2)
        for s in range(6)
    ]
    for name, g in graphs:
        order = _best_order(g, lambda units: None)
        widths = frontier_widths(g, order)
        if max(widths) <= 13:  # keeps each DP within 66,430 states a step
            yield name, g, order, widths


def test_dp_bound_covers_the_states_the_dp_expands(corpus):
    checked = 0
    for name, g, order, widths in _dp_bound_graphs(corpus):
        spent = []
        for held in _frontier_colourable(g, order, spent.append):
            pass
        assert sum(spent) <= reference_dp_bound(widths), name
        checked += 1
    assert checked >= 222  # all of them; 217 along the lowest-id order


def test_remaining_bound_covers_the_states_the_dp_has_left(corpus):
    # at every step, the recurrence started from the states the DP holds
    # bounds the units it spends from there on; capped, it stops at the
    # first partial sum past the cap
    checked = 0
    for name, g, order, widths in _dp_bound_graphs(corpus):
        profile = _frontier_profile(g, order)
        assert len(profile) == len(order), name
        spent = []
        held = [1] + list(_frontier_colourable(g, order, spent.append))
        for i in range(len(spent)):
            rest = reference_remaining_bound(widths, i, held[i])
            assert sum(spent[i:]) <= rest, (name, i)
            assert _remaining_bound(profile, i, held[i]) == rest, (name, i)
            # every term is at least 1: only the whole sum passes rest - 1
            assert _remaining_bound(profile, i, held[i], rest - 1) == rest, (name, i)
            assert rest // 2 < _remaining_bound(profile, i, held[i], rest // 2) <= rest
            checked += 1
        assert _remaining_bound(profile, 0, 1) == reference_dp_bound(widths), name
    assert checked >= 4_500


def _spliced_union(a, b):
    """The disjoint union of ``a`` and ``b``, numbered so that the order by
    id places the first half of ``a``, then ``b``, then the rest of ``a``:
    ``b`` starts a component while the frontier of ``a`` is open."""
    half = a.n // 2
    ids = [v if v < half else v + b.n for v in range(a.n)]
    edges = [(ids[u], ids[v]) for u, v in a.edges]
    edges += [(half + u, half + v) for u, v in b.edges]
    return MultiGraph(a.n + b.n, edges)


def _dp_reference_graphs(corpus):
    graphs = list(corpus)
    for k in range(5, 22, 2):
        graphs.append((f"flower-{k}", flower_snark(k)))
        graphs.append(
            (f"flower-{k}-shuffled", shuffled(flower_snark(k), random.Random(k)))
        )
    graphs += [(f"blanusa-{i}", g) for i, g in enumerate(blanusa_snarks(), 1)]
    graphs += [
        (f"dot-{k}", dot_product(oddness4_snark(), flower_snark(k), (0, 21), 0))
        for k in (5, 7, 9)
    ]
    graphs += [
        (f"random-{n}-{s}", random_bridgeless_cubic(n, random.Random(s)))
        for n in range(10, 61, 10)
        for s in range(3)
    ]
    graphs += [
        ("flower-5+prism-3", _spliced_union(flower_snark(5), prism(3))),
        ("prism-4+petersen", _spliced_union(prism(4), petersen())),
        ("parallel-4", _PARALLEL_4),
    ]
    graphs += [
        (f"multigraph-{n}-{s}", random_cubic_multigraph(n, random.Random(s)))
        for n in (6, 10, 16)
        for s in range(3)
    ]
    return graphs


def _dp_run(dp, g, order):
    """The units a DP spends at each step, and everything it yields."""
    spent = []
    return spent, list(dp(g, order, spent.append))


def test_new_edges_first_dp_spends_what_the_reference_dp_spends(corpus):
    # the states are the renaming classes of the reachable frontier
    # colourings, whatever the layout of the word, so each step expands as
    # many states, and the verdict is the same
    checked = 0
    k0_with_states = 0
    for name, g in _dp_reference_graphs(corpus):
        orders = [_best_order(g, lambda units: None), _frontier_order(g, 0, False)[0]]
        if "+" in name or name.startswith(("parallel", "multigraph")):
            orders.append(list(range(g.n)))  # new components while one is open
        for order in orders:
            if max(frontier_widths(g, order)) > 15:  # 6 of the 336 orders
                continue
            spent, steps = _dp_run(_frontier_colourable, g, order)
            reference = _dp_run(reference_frontier_colourable, g, order)
            assert (spent, steps) == reference, name
            position = {v: i for i, v in enumerate(order)}
            k0_with_states += sum(
                1
                for i, v in enumerate(order[: len(spent)])
                if spent[i] > 1 and all(position[w] > i for _, w in g.incident(v))
            )
            checked += 1
    assert checked >= 330
    assert k0_with_states >= 5


class _MemoSpy(_StepMemo):
    """A step memo that counts its matches, by identity and by equality,
    and its rejected candidates (steps of the window with the key but
    another state set), and checks its window and retention rules after
    every call."""

    __slots__ = ("counts",)

    def __init__(self):
        super().__init__()
        self.counts = Counter()

    def find(self, key, states):
        kept = [entry[1] for entry in self.recent.get(key, ()) if entry[1] is not None]
        grown = super().find(key, states)
        if grown is not None:
            same = any(other is states for other in kept)
            self.counts["identical" if same else "equal"] += 1
        elif kept:
            self.counts["rejected"] += 1
        self._check()
        return grown

    def keep(self, key, states, grown):
        repeated = bool(self.recent.get(key))
        super().keep(key, states, grown)
        # a step keeps its sets only when its key occurred in the window
        assert (self.recent[key][-1][1] is not None) == repeated
        self._check()

    def _check(self):
        step = self.steps - 1
        assert len(self.window) <= _MEMO_STEPS + 1
        assert sum(map(len, self.recent.values())) <= _MEMO_STEPS + 1
        for entries in self.recent.values():
            assert entries
            assert all(step - _MEMO_STEPS <= entry[0] <= step for entry in entries)
            assert [entry[0] for entry in entries] == sorted({e[0] for e in entries})


def _spy_on_memos(monkeypatch):
    """The :class:`_MemoSpy` of every DP started from now on."""
    memos = []

    def make():
        memos.append(_MemoSpy())
        return memos[-1]

    monkeypatch.setattr(nzflow.structure, "_StepMemo", make)
    return memos


def _memo_graphs():
    """Graphs whose DP repeats steps, and random ones whose DP cannot."""
    repeating = [(f"flower-{k}", flower_snark(k)) for k in range(5, 22, 2)]
    repeating += [
        ("prism-50", prism(50)),
        ("gp-50-2", generalized_petersen(50, 2)),
        ("gp-50-3", generalized_petersen(50, 3)),
    ]
    repeating += [
        (f"flower-21-shuffled-{s}", shuffled(flower_snark(21), random.Random(s)))
        for s in range(4)
    ]
    plain = [
        (f"random-{n}-{s}", random_bridgeless_cubic(n, random.Random(s)))
        for n in (40, 50, 60)
        for s in (1, 2)
    ]
    return repeating, plain


def test_step_memo_keeps_every_step_of_the_reference_dp(monkeypatch):
    # a step's grown set depends only on its incoming positions, its new
    # edge count and its state set, and the units are charged before the
    # lookup: so a reused step spends and yields what the reference spends
    # and yields
    memos = _spy_on_memos(monkeypatch)
    repeating, plain = _memo_graphs()
    for graphs, matches in ((repeating, True), (plain, False)):
        memos.clear()
        for name, g in graphs:
            order = _best_order(g, lambda units: None)
            spent, steps = _dp_run(_frontier_colourable, g, order)
            assert (spent, steps) == _dp_run(reference_frontier_colourable, g, order), name
        counts = sum((memo.counts for memo in memos), Counter())
        if matches:
            # matches by identity follow a first match by equality, and
            # some steps share a key but not a state set
            assert counts["identical"] > counts["equal"] > 0, counts
            assert counts["rejected"] > 0, counts
        else:
            assert counts == Counter(), counts


def test_step_memo_reuses_the_flower_snark_ring(monkeypatch):
    # J17's DP repeats every 8 steps along the ring: 41 of its 67 steps
    # reuse an earlier step's set
    memos = _spy_on_memos(monkeypatch)
    g = flower_snark(17)
    steps = list(_frontier_colourable(g, _best_order(g, lambda units: None), lambda units: None))
    assert len(steps) == 67 and steps[-1] == 0
    (memo,) = memos
    assert memo.counts["identical"] + memo.counts["equal"] == 41


def test_step_memo_forgets_steps_past_its_window():
    # keys repeating with a period past the window never keep a set; with
    # a period of at most the window every repeat after the second is a
    # match, and no entry is ever older than the window
    cases = ((_MEMO_STEPS + 1, 0), (_MEMO_STEPS, 200 - 2 * _MEMO_STEPS), (5, 200 - 10))
    for period, found in cases:
        memo = _MemoSpy()
        states = [{bytes([i])} for i in range(period)]
        hits = 0
        for step in range(200):
            key = (step % period,)
            grown = memo.find(key, states[step % period])
            if grown is None:
                memo.keep(key, states[step % period], {b"grown"})
            else:
                hits += 1
        assert hits == found, period
        kept = sum(entry[1] is not None for e in memo.recent.values() for entry in e)
        assert kept == (period if found else 0), period


def test_best_order_is_the_reference_scoring_of_every_order_in_full(corpus):
    # dropping a start once its partial bound reaches the best so far, and
    # first-come, first-served queues in place of heaps, keep every order,
    # bound and choice
    for name, g in _dp_reference_graphs(corpus):
        spent = []
        order = _best_order(g, spent.append)
        reference, bound, units = reference_best_order(g)
        assert order == reference, name
        assert sum(spent) == units, name
        assert reference_dp_bound(frontier_widths(g, order)) == bound, name
        for start in range(0, g.n, max(1, g.n // 8)):
            for fcfs in (True, False):
                full, widths = reference_frontier_order(g, start, fcfs)
                whole = reference_dp_bound(widths)
                assert _frontier_order(g, start, fcfs) == (full, whole), name
                # a cap stops the build at the first prefix whose partial
                # bound reaches it
                for cap in (bound, whole, whole + 1):
                    prefix, partial = _frontier_order(g, start, fcfs, cap)
                    assert full[: len(prefix)] == prefix, name
                    if whole < cap:
                        assert (prefix, partial) == (full, whole), name
                    else:
                        j = len(prefix)
                        assert partial == reference_dp_bound(widths[: j + 1]), name
                        assert partial >= cap > reference_dp_bound(widths[:j]), name


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
    # the first 2-factors of the truncated graphs have 4 or 6 odd circuits.
    # The DP either runs whole at its first step, or never lets the search
    # stop: it spends a unit a step, holds more states than any bound lets
    # run ahead and reads colourable at its end, and then the search
    # exhausts every matching
    real = nzflow.structure._frontier_colourable

    def at_once(g, order, spend):
        yield from list(real(g, order, spend))

    def never(g, order, spend):
        for _ in order:
            spend(1)
            yield 4**g.n

    g = make()
    results = []
    for dp in (at_once, never):
        monkeypatch.setattr(nzflow.structure, "_frontier_colourable", dp)
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


@pytest.mark.parametrize(
    "k,units",
    [(11, 1_703), (15, 2_487), (21, 3_769), (31, 6_062)],
    ids=["flower-11", "flower-15", "flower-21", "flower-31"],
)
def test_oddness_work_is_pinned_on_flower_snarks(k, units):
    # an exhaustive search needs far more.  Each search has its first
    # 2-factor with two odd circuits long before the dovetailed DP finds no
    # colouring.  Once the DP's remaining bound fits in the search's own
    # units, the DP runs ahead to that verdict and the search stops there.
    # Without barrier probes J21 needs 101,335 units and J31 about 23.9
    # million, past the default budget
    g = flower_snark(k)
    assert compute_oddness(g, max_work=units).oddness == 2
    with pytest.raises(BudgetExceededError):
        compute_oddness(g, max_work=units - 1)


def test_dp_runs_ahead_on_flower_snarks_and_keeps_the_witness(monkeypatch):
    # each search holds its witness with two odd circuits while the DP
    # runs; the DP runs ahead to its verdict once its remaining bound fits,
    # and the search returns the witness of the search whose DP never runs
    # ahead, for fewer units
    ahead = []
    real = _DovetailedDP.run_ahead

    def recorded(dp):
        real(dp)
        ahead.append(dp.verdict)

    monkeypatch.setattr(_DovetailedDP, "run_ahead", recorded)
    for k in range(9, 32, 2):
        g = flower_snark(k)
        ahead.clear()
        best, matching, units = _iterative_oddness(g)
        assert ahead[-1] is False, k  # the last check ran the DP to its end
        stepped = on_fresh_thread(recursive_oddness, g, None, True, True, True, False)
        assert (best, matching) == stepped[:2], k
        assert units < stepped[2], k


def test_dp_runs_ahead_only_where_its_bound_fits():
    # these colourable searches hold a 2-factor with two odd circuits
    # before the DP starts, and their order's bound exceeds 10^18.  Run
    # ahead whenever such a 2-factor is in hand, their DPs passed 3,000,000
    # units; with the check they spend what the search alone would
    for s, units in ((9, 7_201), (13, 6_784), (14, 13_264)):
        g = random_bridgeless_cubic(200, random.Random(s))
        best, _, used = _iterative_oddness(g, max_work=units)
        assert (best, used) == (0, units), s


def _iterative_oddness(g, max_work=None):
    search = _OddnessSearch(g, max_work)
    search.run()
    return search.best, search.best_matching, search.budget.used


def _outcome(search, g, max_work):
    try:
        return search(g, max_work)
    except BudgetExceededError as exc:
        return str(exc)


def test_oddness_search_visits_what_the_recursive_search_visits(corpus):
    # the same nodes in the same order: the same oddness, witness and work,
    # and so the same budget errors
    graphs = list(corpus)
    graphs += [(f"flower-{k}", flower_snark(k)) for k in range(5, 22, 2)]
    graphs += [(f"blanusa-{i}", g) for i, g in enumerate(blanusa_snarks(), 1)]
    graphs += [("oddness4", oddness4_snark())]
    graphs += [
        (f"dot-{k}", dot_product(oddness4_snark(), flower_snark(k), (0, 21), 0))
        for k in (5, 7, 9)
    ]
    graphs += [("flower-11-shuffled", shuffled(flower_snark(11), random.Random(1)))]
    graphs += [
        (f"random-{n}-{s}", random_bridgeless_cubic(n, random.Random(s)))
        for n in range(40, 51, 2)
        for s in range(10)
    ]
    def reference(g, max_work=None):
        return on_fresh_thread(recursive_oddness, g, max_work)

    for name, g in graphs:
        expected = reference(g)
        assert _iterative_oddness(g) == expected, name
        for max_work in (50, 400, 3_000):
            assert _outcome(_iterative_oddness, g, max_work) == _outcome(
                reference, g, max_work
            ), (name, max_work)


def test_forced_matches_keep_the_oddness_and_the_witness():
    # the search without forced matches or barrier probes, and with the DP
    # gated by the bound of the lowest-id order instead of dovetailed,
    # visits the same 2-factors in the same order, so it returns the same
    # oddness and the same witness, for more work.  Where that search is
    # too slow, only the DP's rule is the old one
    graphs = [
        (f"random-{n}-{s}", random_bridgeless_cubic(n, random.Random(s)))
        for n in range(40, 81, 10)
        for s in range(10)
    ]
    for n in (3, 4, 5, 10, 31, 50, 51, 100, 199):
        graphs += [(f"prism-{n}", prism(n)), (f"moebius-{n}", _moebius_ladder(2 * n))]
        graphs += [(f"gp-{n}-{k}", generalized_petersen(n, k)) for k in (2, 3) if 2 * k < n]
    graphs += [
        (f"dot-{k}", dot_product(oddness4_snark(), flower_snark(k), (0, 21), 0))
        for k in (5, 7, 9)
    ]
    graphs += [
        (f"flower-11-shuffled-{s}", shuffled(flower_snark(11), random.Random(s)))
        for s in range(4)
    ]
    gated = [(f"flower-{k}", flower_snark(k)) for k in range(5, 32, 2)]
    gated += [(f"blanusa-{i}", g) for i, g in enumerate(blanusa_snarks(), 1)]
    gated += [("oddness4", oddness4_snark())]
    gated += [
        (f"flower-{k}-shuffled-{s}", shuffled(flower_snark(k), random.Random(s)))
        for k, seeds in ((17, (0, 1)), (21, (0, 2, 3)))
        for s in seeds
    ]
    cases = [(name, g, (False, False, False)) for name, g in graphs]
    cases += [(name, g, (True, True, False)) for name, g in gated]
    for name, g, old in cases:
        best, matching, _ = _iterative_oddness(g)
        plain = on_fresh_thread(recursive_oddness, g, None, *old)
        assert (best, matching) == plain[:2], name


@pytest.mark.parametrize("k", [11, 17, 21])
def test_oddness_work_does_not_depend_on_the_labels(k):
    # along the lowest-id order alone, shuffled J17 took up to 777,347 units
    # and shuffled J21 (seed 1) 1,180,502, against 6,115 and 7,804 as built
    built = _iterative_oddness(flower_snark(k))[2]
    for s in range(4):
        g = shuffled(flower_snark(k), random.Random(s))
        assert _iterative_oddness(g)[2] <= 2 * built, s


def test_forced_matches_cut_the_work_on_random_graphs():
    # without forced matches these searches take 5,052, 122, 5,189, 89 and
    # 149 units
    work = [
        _iterative_oddness(random_bridgeless_cubic(80, random.Random(s)))[2]
        for s in range(5)
    ]
    assert work == [140, 40, 42, 40, 55]


def _probe(g, keep):
    """The barrier verdict on G[U], U the vertices with ``keep``, and the
    units the probe charged."""
    units = []
    found = _matching_barrier(
        [g.incident(x) for x in range(g.n)], [not k for k in keep], 0, units.append
    )
    return found, units[0]


def _has_perfect_matching(g, keep):
    h = nx.Graph()
    h.add_nodes_from(v for v in range(g.n) if keep[v])
    h.add_edges_from((u, w) for u, w in g.edges if keep[u] and keep[w])
    pairs = nx.max_weight_matching(h, maxcardinality=True)
    return 2 * len(pairs) == h.number_of_nodes()


def test_matching_barrier_finds_odd_and_unbalanced_components():
    g = petersen()
    star = [v == 0 or v in (1, 4, 5) for v in range(10)]  # K_{1,3}
    assert _probe(g, star) == (True, 4)
    path = [v in (0, 1, 2, 3) for v in range(10)]  # P4
    assert _probe(g, path) == (False, 4)
    outer = [v < 5 for v in range(10)]  # the outer 5-cycle
    assert _probe(g, outer) == (True, 5)
    # the first component with a barrier ends the probe: {0} costs one unit
    assert _probe(g, [v in (0, 2, 3) for v in range(10)]) == (True, 1)


def test_matching_barrier_is_sound(monkeypatch, corpus):
    # wherever the probe reports a barrier, G[U] has no perfect matching.
    # U is a random vertex subset, or the unmatched vertices of a node the
    # search probed
    rng = random.Random(25)
    graphs = [g for _, g in corpus]
    graphs += [flower_snark(k) for k in (5, 7, 9, 11, 13)]
    graphs += [oddness4_snark()]
    graphs += [
        random_bridgeless_cubic(n, random.Random(s))
        for n in (20, 30, 40)
        for s in range(3)
    ]
    cases = []
    for g in graphs:
        for _ in range(20):
            p = rng.random()
            cases.append((g, [rng.random() < p for _ in range(g.n)]))
    real = nzflow.structure._matching_barrier

    def recorded(incidence, matched, start, spend):
        # g is the graph whose search is running below
        cases.append((g, [not x for x in matched]))
        return real(incidence, matched, start, spend)

    monkeypatch.setattr(nzflow.structure, "_matching_barrier", recorded)
    for g in (flower_snark(13), flower_snark(17), shuffled(flower_snark(11), random.Random(1))):
        compute_oddness(g)
    reported = 0
    for g, keep in cases:
        found, units = _probe(g, keep)
        if found:
            reported += 1
            assert not _has_perfect_matching(g, keep)
        else:
            assert units == sum(keep)  # a probe that finds none visits all of U
    assert 200 <= reported <= len(cases) - 200


def test_barrier_probes_keep_the_oddness_and_the_witness(monkeypatch):
    # a probe kills only nodes without a completion, so the search without
    # probes visits the same complete 2-factors in the same order
    graphs = [(f"flower-{k}", flower_snark(k)) for k in range(5, 26, 2)]
    graphs += [(f"blanusa-{i}", g) for i, g in enumerate(blanusa_snarks(), 1)]
    graphs += [("oddness4", oddness4_snark())]
    graphs += [
        (f"dot-{k}", dot_product(oddness4_snark(), flower_snark(k), (0, 21), 0))
        for k in (5, 7, 9)
    ]
    graphs += [
        (f"flower-{k}-shuffled-{s}", shuffled(flower_snark(k), random.Random(s)))
        for k in (11, 17)
        for s in range(4)
    ]
    graphs += [
        (f"random-{n}-{s}", random_bridgeless_cubic(n, random.Random(s)))
        for n in range(40, 81, 10)
        for s in range(10)
    ]
    probed = {name: _iterative_oddness(g) for name, g in graphs}
    monkeypatch.setattr(nzflow.structure, "_matching_barrier", lambda *args: False)
    plain = {name: _iterative_oddness(g) for name, g in graphs}
    for name, _ in graphs:
        assert probed[name][:2] == plain[name][:2], name
    assert plain["flower-21"][2] == 101_335
    assert probed["flower-21"][2] == 3_769


def test_probes_never_run_on_colourable_random_graphs_or_ladders(monkeypatch):
    # these searches end before 4n units, as every random-cubic and
    # ladder-large record of the benchmark does
    probes = []
    monkeypatch.setattr(
        nzflow.structure, "_matching_barrier", lambda *args: probes.append(args)
    )
    graphs = [
        random_bridgeless_cubic(n, random.Random(s))
        for n in (40, 44, 48, 50)
        for s in range(5)
    ]
    for v in (100, 102, 148, 200, 250, 298, 350, 398):
        graphs += [prism(v // 2), _moebius_ladder(v)]
        graphs += [generalized_petersen(v // 2, k) for k in (2, 3)]
    for g in graphs:
        assert compute_oddness(g).oddness == 0
    assert probes == []


def test_two_factors_come_in_the_recursive_order(corpus):
    for name, g in corpus:
        got = [tf.matching for tf in enumerate_two_factors(g)]
        assert got == list(recursive_enumerate_two_factors(g)), name


def test_searches_need_no_recursion():
    g = prism(1500)
    with recursion_headroom():
        with pytest.raises(RecursionError):
            recursive_oddness(g)
        res = compute_oddness(g)
        first = next(enumerate_two_factors(g))
    assert res.oddness == 0
    _check_two_factor_invariants(g, res.witness)
    _check_two_factor_invariants(g, first)


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


def test_girth_matches_networkx(corpus):
    # the BFS stops at the first triangle; a parallel pair is a 2-cycle,
    # which networkx's simple graphs cannot hold
    graphs = list(corpus)
    graphs += [
        (f"random-{n}-{s}", random_bridgeless_cubic(n, random.Random(s)))
        for n in (10, 20, 40, 80)
        for s in range(5)
    ]
    graphs += [(f"flower-{k}", flower_snark(k)) for k in (5, 7, 9)]
    graphs += [
        (f"multigraph-{n}-{s}", random_cubic_multigraph(n, random.Random(s)))
        for n in (4, 6, 10, 16, 30)
        for s in range(8)
    ]
    graphs += [("parallel-4", _PARALLEL_4), ("path", MultiGraph(3, [(0, 1), (1, 2)]))]
    parallel = triangles = 0
    for name, g in graphs:
        pairs = Counter(tuple(sorted(e)) for e in g.edges)
        if max(pairs.values()) > 1:
            expected = 2
            parallel += 1
        else:
            h = nx.Graph(list(g.edges))
            h.add_nodes_from(range(g.n))
            expected = nx.girth(h)
            expected = None if expected == math.inf else expected
        assert girth(g) == expected, name
        triangles += expected == 3
    assert parallel >= 20 and triangles >= 50


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


# cubic multigraphs from the pairing model, parallel edges kept: n = 2
# gives the theta graph, most of the others have girth 2, and nine of the
# forty are vacuous
_MULTIGRAPHS = [
    (f"multi-{n}-{s}", random_cubic_multigraph(n, random.Random(s)))
    for s in range(40)
    for n in [2 + 2 * (s % 7)]
]


def test_girth_lemma_holds_on_every_bipartition(corpus):
    # a cubic multigraph is vacuous exactly when 2 * girth > n, and has a
    # cycle-separating cut of at most girth edges otherwise: by full
    # enumeration, with the girth from the edge-by-edge BFS of the helpers
    graphs = [(name, g) for name, g in _small_cap_graphs(corpus)
              if all(d == 3 for d in g.degrees())]
    vacuous = 0
    for name, g in graphs + _MULTIGRAPHS:
        shortest = induced_girth(g, frozenset(range(g.n)))
        least = brute_cyclic_min_cut(g)
        if 2 * shortest > g.n:
            assert least is None, name
            vacuous += 1
        else:
            assert least is not None and least <= shortest, name
    assert vacuous >= 5


def test_girth_lemma_gives_the_value_and_witness_of_the_full_sweep(monkeypatch, corpus):
    # with no pair left to the sweep, the lemma alone decides: wherever the
    # graph is vacuous or lambda_c is the girth, the value, the verdict and
    # the witness (the cut around the first shortest chordless cycle) are
    # those of the sweep
    graphs = [(name, g) for name, g in _small_cap_graphs(corpus) + _MULTIGRAPHS
              if all(d == 3 for d in g.degrees())]
    settled = [(name, g, cyclic_connectivity(g)) for name, g in graphs]
    caps = nzflow.structure._side_caps
    monkeypatch.setattr(nzflow.structure, "_side_caps", lambda g, c: (0, caps(g, c)[1]))
    decided = 0
    for name, g, res in settled:
        if res.vacuous or res.value == girth(g):
            assert cyclic_connectivity(g) == res, name
            decided += 1
    assert decided >= 50


def test_neighbourhood_lemma_holds_on_every_bipartition(corpus):
    # on the simple cubic graphs of the girth-lemma test, by full
    # enumeration: (a) each side of every minimum cycle-separating cut
    # below the girth holds a closed neighbourhood N[u]; (b) every cut of
    # fewer than 6 edges with an N[u] on each side separates two cycles.
    # So the least such cut, when below the girth, is the cyclic
    # connectivity, and the value step computes it and names a minimum
    # cycle-separating cut as its side
    graphs = [(name, g) for name, g in _small_cap_graphs(corpus) + _MULTIGRAPHS
              if all(d == 3 for d in g.degrees()) and (girth(g) or 0) >= 3]
    below = separated = 0
    for name, g in graphs:
        masks, cut, cyclic_in, cyclic_out = bipartition_table(g)
        rest = ((1 << g.n) - 1) ^ masks
        closed = [sum(1 << x for x in (v, *(w for _, w in g.incident(v))))
                  for v in range(g.n)]
        apart = (np.logical_or.reduce([masks & c == c for c in closed])
                 & np.logical_or.reduce([rest & c == c for c in closed]))
        both = cyclic_in & cyclic_out
        shortest = girth(g)
        least = brute_cyclic_min_cut(g)
        if least is not None and least < shortest:
            assert apart[both & (cut == least)].all(), name
            below += 1
        small = apart & (cut < 6)
        assert both[small].all(), name
        separated += int(small.sum())
        mu = min(int(cut[apart].min()) if apart.any() else shortest, shortest)
        if mu < shortest:
            assert least == mu, name
        else:
            assert least == (None if 2 * shortest > g.n else shortest), name
        value, side = _neighbourhood_cut(g, shortest, Budget(None))
        assert value == mu, name
        if mu < shortest:
            # masks[i] is i + 1 and leaves out vertex n - 1
            mask = sum(1 << v for v in side)
            if mask >> (g.n - 1) & 1:
                mask ^= (1 << g.n) - 1
            assert both[mask - 1] and cut[mask - 1] == least, name
        else:
            assert side is None, name
    assert below >= 10 and separated >= 1_000


_ORACLE_GRAPHS = [
    (f"random-{n}-{s}", random_bridgeless_cubic(n, random.Random(s)))
    for n, seeds in ((24, range(8)), (32, range(8)), (40, range(3)), (44, [5]), (60, [0]))
    for s in seeds
]
_ORACLE_GRAPHS += [(f"gp-{n}-2", generalized_petersen(n, 2)) for n in (8, 10, 12, 16)]
_ORACLE_GRAPHS += [(f"gp-{n}-3", generalized_petersen(n, 3)) for n in (8, 10, 12, 16)]
_ORACLE_GRAPHS += [(f"prism-{n}", prism(n)) for n in (4, 5, 8, 15, 30)]
_ORACLE_GRAPHS += [(f"moebius-{n}", _moebius_ladder(n)) for n in (8, 10, 20, 60)]
_ORACLE_GRAPHS += [
    ("dot-petersen", dot_product(petersen(), petersen(), (0, 2), 0)),
    ("dot-5", dot_product(oddness4_snark(), flower_snark(5), (0, 21), 0)),
]


@pytest.mark.parametrize("name,g", _ORACLE_GRAPHS, ids=[n for n, _ in _ORACLE_GRAPHS])
def test_neighbourhood_value_matches_the_full_sweep(name, g):
    # closed-neighbourhood cuts with the girth lemma against the sweep over
    # every disjoint pair of chordless cycles under the earlier length cap:
    # the two share no argument.  Random graphs 32-3, 32-5 and 44-5 and the
    # dot products have a cut below the girth
    res = cyclic_connectivity(g)
    value, _ = reference_cyclic_connectivity(g)
    assert (res.value, res.vacuous) == (value, value is None)


def _independent_edges(g):
    """Edge 0 and the first edge that shares no end with it."""
    ends = set(g.edges[0])
    return 0, next(e for e, pair in enumerate(g.edges) if not ends & set(pair))


# graphs for the cut-label value step: every kind of cut it reads below
# girths 3, 4 and 5, girth 6, and vacuous graphs
_BOND_GRAPHS = [(f"flower-{k}", flower_snark(k)) for k in range(5, 22, 2)]
_BOND_GRAPHS += [(f"blanusa-{i}", g) for i, g in enumerate(blanusa_snarks(), 1)]
_BOND_GRAPHS += [
    ("dot-petersen-flower-5", dot_product(
        petersen(), flower_snark(5), _independent_edges(petersen()), 0)),
    ("dot-flower-5-flower-5", dot_product(
        flower_snark(5), flower_snark(5), _independent_edges(flower_snark(5)), 0)),
    ("oddness4", oddness4_snark()),
    ("2k4", _disjoint_union(k4(), k4())),
    ("2k33", _disjoint_union(k33(), k33())),
    ("k4", k4()),
    ("k33", k33()),
    ("prism-3", prism(3)),
    ("bridged-10", _BRIDGED),
    ("dot-5", dot_product(oddness4_snark(), flower_snark(5), (0, 21), 0)),
]
_BOND_GRAPHS += [(f"gp-{n}-2", generalized_petersen(n, 2)) for n in (5, 8, 10, 12, 16, 24)]
_BOND_GRAPHS += [(f"gp-{n}-3", generalized_petersen(n, 3)) for n in (7, 8, 10, 12, 16, 24)]
_BOND_GRAPHS += [(f"prism-{n}", prism(n)) for n in (4, 5, 8, 15, 30)]
_BOND_GRAPHS += [(f"moebius-{n}", _moebius_ladder(n)) for n in (8, 10, 20, 60)]
_BOND_GRAPHS += [
    (f"random-{n}-{s}", random_bridgeless_cubic(n, random.Random(s)))
    for n in (16, 20, 24, 32, 40, 48, 60, 80, 100)
    for s in range(3)
]


def _assert_bond_scan_matches_the_pair_sweeps(name, g, reference):
    # the value step's cut-label value for the bounds L = min(g, 3..5), and
    # the witness it names, against the first pair of closed
    # neighbourhoods that attains the least cut between them: from Dinic
    # where ``reference`` is set, and from the package's pair sweep with
    # the floor 0, which shares no code with the labels
    shortest = girth(g)
    mu, side = _neighbourhood_cut(g, 6, Budget(None), 0)
    if reference:
        ref_mu, ref_side = reference_neighbourhood_cut(g)
        if ref_mu is None or ref_mu >= 6:
            assert side is None, name
        else:
            assert (mu, side) == (ref_mu, ref_side), name
    for cap in (3, 4, 5):
        limit = min(shortest, cap)
        res = nzflow.structure._cyclic(g, Budget(None), cap)
        if 2 * shortest > g.n:
            assert res.vacuous and res.value is None, (name, cap)
        elif mu < limit:
            assert (res.value, res.vacuous) == (mu, False), (name, cap)
            assert res.witness.side == tuple(sorted(side)), (name, cap)
        else:
            assert (res.value, res.vacuous) == (limit, False), (name, cap)
    full = cyclic_connectivity(g)
    for k in range(1, 8):
        chk = is_cyclically_k_connected(g, k)
        assert chk.connected == (full.vacuous or full.value >= k), (name, k)
        assert chk.witness == (None if chk.connected else full.witness), (name, k)


def test_bond_scan_matches_the_pair_sweeps_on_the_corpus(corpus):
    for name, g in corpus:
        _assert_bond_scan_matches_the_pair_sweeps(name, g, True)


@pytest.mark.parametrize("name,g", _BOND_GRAPHS, ids=[n for n, _ in _BOND_GRAPHS])
def test_bond_scan_matches_the_pair_sweeps(name, g):
    # Dinic up to 40 vertices, the package's pair sweep on all; the random
    # graphs of girth 4 and 5 and the dot products have nontrivial 3- and
    # 4-bonds, and Blanusa 1-2 and the two girth-5 dot products lambda_c 4
    _assert_bond_scan_matches_the_pair_sweeps(name, g, g.n <= 40)


# girth 6: GP(20, 3) with two edge switches that keep the girth and leave
# only the identity automorphism, so the orbit rule skips no row, and two
# disjoint Heawood graphs (lambda_c = 0)
_GIRTH_SIX_ROWS = [
    ("gp-20-3-switched", edge_switched(generalized_petersen(20, 3), [(48, 56), (25, 31)]),
     True),
    ("2heawood", _disjoint_union(lcf([5, -5], 7), lcf([5, -5], 7)), False),
]


@pytest.mark.parametrize(
    "name,g,trivial", _GIRTH_SIX_ROWS, ids=[n for n, *_ in _GIRTH_SIX_ROWS]
)
def test_girth_six_value_step_sweeps_only_the_first_eleven_rows(
    monkeypatch, name, g, trivial
):
    # a pair attaining the least cut mu has a cut of mu edges between its
    # sets, with at most 2 mu ends, so some vertex x <= 2 mu has N[x] on
    # one side and the pair's set on the other side makes with it a pair
    # attaining mu: the first such pair has row at most 2 mu <= 2L - 2, and
    # the value step (L = 6) makes at most 11 n flows
    assert girth(g) == 6
    assert (automorphisms(g) == []) == trivial, name
    flows = []
    real = _UnitCuts.min_cut

    def counted(self, side_a, side_b, limit=None):
        flows.append(side_a)
        return real(self, side_a, side_b, limit)

    monkeypatch.setattr(_UnitCuts, "min_cut", counted)
    value, side = _neighbourhood_cut(g, 6, Budget(None))
    assert len(flows) <= (2 * 6 - 1) * g.n, name
    assert {a[0] for a in flows} <= set(range(11)), name
    mu, ref_side = reference_neighbourhood_cut(g)
    res = cyclic_connectivity(g)
    assert res.value == min(mu, 6), name
    if mu >= 6:
        assert (value, side) == (6, None), name
    else:
        assert (value, side) == (mu, ref_side), name
        assert res.witness.side == tuple(sorted(side)), name


def test_bond_scan_finds_each_kind_of_cut(corpus):
    # the graphs above reach every branch of the scan: a disconnected
    # graph, a bridge, a 2-edge cut, a nontrivial 3-bond at girths 4 and 5,
    # a nontrivial 4-bond at girth 5, and no cut below the girth
    kinds = Counter()
    for name, g in list(corpus) + _BOND_GRAPHS:
        res = cyclic_connectivity(g)
        kinds[girth(g), res.value] += 1
    for kind in ((3, 0), (3, 1), (3, 2), (3, 3), (4, 0), (4, 3), (4, 4), (4, None),
                 (5, 3), (5, 4), (5, 5)):
        assert kinds[kind] >= 1, (kind, kinds)


def test_values_of_girth_three_to_five_build_no_flow_network(monkeypatch, corpus):
    # the value of a cubic graph of girth 3 to 5, and each k-check it
    # passes, come from the cut labels: no pair sweep, no flow
    graphs = [(name, g) for name, g in list(corpus) + _BOND_GRAPHS
              if 3 <= girth(g) <= 5 and g.n <= 60]
    expected = {name: cyclic_connectivity(g) for name, g in graphs}

    def refuse(g):
        raise AssertionError("flow network built")

    monkeypatch.setattr(nzflow.structure, "_UnitCuts", refuse)
    for name, g in graphs:
        res = cyclic_connectivity(g)
        assert (res.value, res.vacuous) == (expected[name].value, expected[name].vacuous)
        for k in range(1, 8):
            if res.vacuous or res.value >= k:
                assert is_cyclically_k_connected(g, k).connected, (name, k)
    assert len(graphs) > 150


def _random_multigraph(seed):
    """A multigraph of 2 to 12 vertices and n - 1 to 2n random edges:
    bridges, parallel edges, vertices of every small degree and several
    components are all common."""
    rng = random.Random(seed)
    n = rng.randint(2, 12)
    m = rng.randint(n - 1, 2 * n)
    return MultiGraph(n, [tuple(rng.sample(range(n), 2)) for _ in range(m)])


_SPARSE_MULTIGRAPHS = [(f"sparse-{s}", _random_multigraph(s)) for s in range(60)]


def _is_cut(g, edges):
    """Whether ``edges`` is the set of edges leaving some vertex set: a
    2-colouring of the vertices exists in which exactly these edges join
    the two colours (breadth-first, by parity)."""
    inside = set(edges)
    colour = [-1] * g.n
    for root in range(g.n):
        if colour[root] >= 0:
            continue
        colour[root] = 0
        queue = [root]
        for v in queue:
            for eid, w in g.incident(v):
                want = colour[v] ^ (eid in inside)
                if colour[w] < 0:
                    colour[w] = want
                    queue.append(w)
                elif colour[w] != want:
                    return False
    return True


def test_cut_labels_xor_to_zero_exactly_on_cuts(corpus):
    # the cut-space lemma: every set of at most 3 edges, 100 random edge
    # sets and the cuts around 100 random vertex sets, against a parity
    # 2-colouring; a disconnected graph gets no labels
    rng = random.Random(0)
    cuts = 0
    for name, g in _small_cap_graphs(corpus) + _MULTIGRAPHS + _SPARSE_MULTIGRAPHS:
        labels = _cut_labels(g, Budget(None))
        h = nx.MultiGraph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        assert (labels is None) == (not nx.is_connected(h)), name
        if labels is None:
            continue
        sets = [s for size in range(1, 4) for s in combinations(range(g.m), size)]
        sets += [rng.sample(range(g.m), rng.randint(1, g.m)) for _ in range(100)]
        for _ in range(100):
            side = {v for v in range(g.n) if rng.random() < 0.5}
            sets.append([e for e, (u, v) in enumerate(g.edges) if (u in side) != (v in side)])
        for edges in sets:
            x = 0
            for e in edges:
                x ^= labels[e]
            assert (x == 0) == _is_cut(g, edges), (name, edges)
            cuts += x == 0
    assert cuts > 10_000


def test_edge_connectivity_matches_every_bipartition(corpus):
    # the floor of every pair sweep, min(edge-connectivity, 3) from the cut
    # labels, against the least cut over every vertex bipartition
    floors = Counter()
    for name, g in _small_cap_graphs(corpus) + _MULTIGRAPHS + _SPARSE_MULTIGRAPHS:
        _, cut, _, _ = bipartition_table(g)
        expected = min(int(cut.min()), 3)
        assert _edge_floor(_cut_labels(g, Budget(None))) == expected, name
        floors[expected] += 1
    assert min(floors[f] for f in range(4)) >= 5, floors


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
        cycles = _chordless_cycles(g, g.n, Budget(None))
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
    pairs = list(_disjoint_pairs(_chordless_cycles(g, g.n, Budget(None))))
    assert pairs
    for a, b in pairs:
        value, side = dinic_min_cut_between(g, a, b)
        assert cuts.min_cut(a, b) == (value, side), (a, b)
        assert cuts.min_cut(a, b, value + 1) == (value, side), (a, b)
        assert cuts.min_cut(a, b, value) == (value, None), (a, b)


def _value_step_names_the_witness(g, value):
    """Whether ``cyclic_connectivity`` names the closed-neighbourhood cut of
    its value step: on a cubic graph of girth 3 to 6, below the girth."""
    shortest = girth(g)
    return (value is not None and shortest is not None and 3 <= shortest <= 6
            and value < shortest and all(d == 3 for d in g.degrees()))


@pytest.mark.parametrize("name,g", _REFERENCE_GRAPHS, ids=[n for n, _ in _REFERENCE_GRAPHS])
def test_cyclic_witness_is_first_reference_minimum(name, g):
    res = cyclic_connectivity(g)
    # every graph here settles in the first sweep, capped from the girth
    assert res.value <= girth(g)
    if _value_step_names_the_witness(g, res.value):
        # the first pair of closed neighbourhoods that reaches the minimum
        value, side = reference_neighbourhood_cut(g)
    else:
        cycles = _chordless_cycles(
            g, reference_length_bound(g.n, girth(g) - 1), Budget(None)
        )
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
    # the cages, of girth 7 and 8, are the cubic graphs whose value still
    # comes from the cycle-pair sweep; their sweeps reach the group search
    ("mcgee", lcf([12, 7, -7], 8)),
    ("tutte-coxeter", lcf([-13, -9, 7, -7, 9, 13], 5)),
]


def _assert_matches_reference_sweep(name, g):
    # each k verdict follows from the reference value, and a failing check
    # names the minimum witness of cyclic_connectivity: the reference
    # sweep's, or below the girth of a cubic graph of girth 3 to 6 the side
    # of the first pair of closed neighbourhoods that reaches the minimum
    res = cyclic_connectivity(g)
    value, side = reference_cyclic_connectivity(g)
    assert (res.value, res.vacuous) == (value, value is None), name
    if _value_step_names_the_witness(g, value):
        mu, side = reference_neighbourhood_cut(g)
        assert mu == value, name
    if value is None:
        assert res.witness is None, name
    else:
        assert res.witness.side == tuple(sorted(side)), name
    for k in range(1, 8):
        chk = is_cyclically_k_connected(g, k)
        assert chk.connected == (value is None or value >= k), (name, k)
        assert chk.witness == (None if chk.connected else res.witness), (name, k)


@pytest.mark.parametrize("name,g", _SWEEP_GRAPHS, ids=[n for n, _ in _SWEEP_GRAPHS])
def test_cyclic_sweep_matches_the_earlier_length_cap(name, g):
    # the caps keep a subsequence of the earlier pairs, and on these graphs
    # the first pair reaching the minimum survives, so values, verdicts and
    # the sweep's witnesses are unchanged
    _assert_matches_reference_sweep(name, g)


def test_cyclic_sweep_matches_the_earlier_length_cap_on_the_corpus(corpus):
    for name, g in corpus:
        _assert_matches_reference_sweep(name, g)


_RESWEPT_GRAPHS = [
    ("theta", MultiGraph(2, [(0, 1)] * 3)),
    ("k5", MultiGraph(5, combinations(range(5), 2))),
    ("k4+k4", _disjoint_union(k4(), k4())),
] + _MULTIGRAPHS


def test_cyclic_sweep_matches_the_reference_where_it_swept_again():
    # the reference rises from the girth and, when nothing disjoint is
    # within the caps, sweeps again with no cap; the girth lemma settles
    # these graphs in one sweep with the same values, verdicts and sides
    for name, g in _RESWEPT_GRAPHS:
        _assert_matches_reference_sweep(name, g)


@pytest.mark.parametrize(
    "name,g,k,size",
    [
        ("blanusa-1", blanusa_snarks()[0], 6, 4),
        ("dot-5", dot_product(oddness4_snark(), flower_snark(5), (0, 21), 0), 5, 3),
    ],
    ids=["blanusa-1", "dot-5"],
)
def test_failing_k_check_names_the_minimum_cut(name, g, k, size):
    # the first cut below k need not be minimum: the k-check names the
    # witness of cyclic_connectivity, not a 5-edge or 4-edge cut below k
    chk = is_cyclically_k_connected(g, k)
    assert not chk.connected
    assert len(chk.witness.edges) == size
    assert chk.witness == cyclic_connectivity(g).witness


def test_k_check_above_the_value_costs_what_the_value_does():
    # J21 (girth 6, lambda_c 6) fails k = 7 by the girth lemma; its witness,
    # the cut around its first 6-cycle, needs one enumeration of 6-cycles
    # after the value step, not a sweep for every cut below 7
    g = flower_snark(21)
    chk = is_cyclically_k_connected(g, 7, max_work=3_000)
    assert not chk.connected
    assert chk.witness == cyclic_connectivity(g).witness
    assert len(chk.witness.edges) == 6


@pytest.mark.parametrize(
    "make,units,value",
    [
        (lambda: flower_snark(5), 465, 5),
        (oddness4_snark, 1_475, 3),
        (lambda: _truncation(petersen()), 45, 3),
        (k4, 0, None),
        (k33, 0, None),
    ],
    ids=["flower-5", "oddness4", "truncated-petersen", "k4", "k33"],
)
def test_cyclic_work_units_are_pinned(make, units, value):
    # the value of a cubic graph of girth 3 to 5 costs one unit per edge
    # for its cut labels and, from girth 4, one per pair of edges in each
    # row the bond scan reads.  J5 (girth 5, 30 edges) reads every row for
    # no 3- or 4-bond: 30 + 435 = 465 (320 with the pair flows: 60 pairs,
    # 15 nodes of group search and 5 more pairs, 4 units each).  The
    # oddness-4 snark (54 edges) finds its first nontrivial 3-bond in the
    # row of edge 48: 54 + 1,421 = 1,475 (144 with the flows: one pair and
    # 35 flows for the edge-connectivity).  The truncated Petersen graph
    # has girth 3, so its labels alone show that no cut of at most 2 edges
    # is below it: 45 (116 for 29 edge-connectivity flows).  K4 and K3,3
    # have no two disjoint cycles, since 2g > n, which costs no work
    g = make()
    assert cyclic_connectivity(g, max_work=units).value == value
    if units:
        with pytest.raises(BudgetExceededError):
            cyclic_connectivity(g, max_work=units - 1)


def test_cyclic_witness_charges_the_call_budget():
    # the witness is named on first read, under the budget of the call:
    # J5's value costs 465 units and its witness, the cut around its first
    # 5-cycle, 150 more to enumerate the chordless cycles of at most 5
    # vertices.  The oddness-4 snark's witness, below its girth, is the
    # side of the first pair of closed neighbourhoods whose cut is the
    # value 3, which the pair sweep reaches at its first pair: 4 units
    # after the value's 1,475
    g = flower_snark(5)
    res = cyclic_connectivity(g, max_work=615)
    assert res.witness == cyclic_connectivity(g).witness
    short = cyclic_connectivity(g, max_work=614)
    assert short.value == 5
    with pytest.raises(BudgetExceededError):
        short.witness
    snark = cyclic_connectivity(oddness4_snark(), max_work=1_479)
    assert len(snark.witness.edges) == snark.value == 3
    short = cyclic_connectivity(oddness4_snark(), max_work=1_478)
    assert short.value == 3
    with pytest.raises(BudgetExceededError):
        short.witness


def test_cyclic_result_hashes_and_equals_itself_without_its_witness():
    # 276 units, the least that gives J7's value, leave too few to name its
    # witness; hashing the result and comparing it with itself name none.
    # The value step sweeps only the rows u < 11 and searches the group
    # before its first pair, which took this from 416 to 276
    r = cyclic_connectivity(flower_snark(7), max_work=276)
    assert r.value == 6
    assert hash(r) == hash(cyclic_connectivity(flower_snark(7)))
    assert r == r
    with pytest.raises(BudgetExceededError):
        r.witness
    with pytest.raises(BudgetExceededError):
        cyclic_connectivity(flower_snark(7), max_work=275)


@pytest.fixture
def sweeps(monkeypatch):
    """The calls of the cycle sweep and of the cycle enumeration, in order,
    each with its second argument: the sweep's ``cut_size`` and the
    enumeration's length cap ``max_len``."""
    calls = []
    for name in ("_cycle_cut", "_chordless_cycles"):
        def counted(*args, _real=getattr(nzflow.structure, name), _name=name, **kwargs):
            calls.append((_name, args[1]))
            return _real(*args, **kwargs)

        monkeypatch.setattr(nzflow.structure, name, counted)
    return calls


@pytest.mark.parametrize("n, value", [(6, 9), (7, 12)])
def test_non_cubic_graph_sweeps_once(sweeps, n, value):
    # a graph that is not cubic gets no caps, so its one sweep, for cuts
    # below the girth (3), enumerates every chordless cycle and is exact,
    # also with lambda_c above the girth
    res = cyclic_connectivity(MultiGraph(n, combinations(range(n), 2)))
    assert res.value == value
    assert len(res.witness.edges) == value
    assert sweeps == [("_cycle_cut", 2), ("_chordless_cycles", n)]


_ONE_SWEEP_GRAPHS = [
    ("k4", k4(), None, False),
    ("k33", k33(), None, False),
    ("k5", MultiGraph(5, combinations(range(5), 2)), None, True),
    ("theta", MultiGraph(2, [(0, 1)] * 3), None, True),
    ("2k33", _disjoint_union(k33(), k33()), 0, False),
    ("petersen", petersen(), 5, False),
]


@pytest.mark.parametrize(
    "name,g,value,swept", _ONE_SWEEP_GRAPHS, ids=[n for n, *_ in _ONE_SWEEP_GRAPHS]
)
def test_every_cyclic_call_sweeps_once(sweeps, name, g, value, swept):
    # at most one enumeration and one sweep per call, also where no
    # disjoint pair is within the caps: the girth lemma decides vacuity
    # without a second sweep with no cap.  A cubic graph of girth 3 to 6
    # (K4, K3,3, 2K3,3 and Petersen) is decided by closed neighbourhoods
    # and never sweeps cycle pairs: below the girth the value step's cut
    # is the witness, and at the girth (Petersen) naming the witness, on
    # its first read or when is_cyclically_k_connected fails, enumerates
    # the chordless cycles of at most girth vertices, once
    once = ["_cycle_cut", "_chordless_cycles"]
    at_girth = [("_chordless_cycles", girth(g))] if value == girth(g) else []
    res = cyclic_connectivity(g)
    assert (res.value, res.vacuous) == (value, value is None), name
    assert [call for call, _ in sweeps] == (once if swept else [])
    sweeps.clear()
    for _ in range(2):
        assert (res.witness is None) == (value is None), name
    assert sweeps == at_girth
    for k in (1, 3, 6):
        sweeps.clear()
        chk = is_cyclically_k_connected(g, k)
        assert chk.connected == (value is None or value >= k), (name, k)
        if swept:
            assert [call for call, _ in sweeps] == once, (name, k)
        else:
            assert sweeps == ([] if chk.connected else at_girth), (name, k)


def test_girth_three_to_six_never_sweeps_cycle_pairs(sweeps, corpus):
    # the value, its witness and every k-check of a cubic graph of girth 3
    # to 6 enumerate at most the chordless cycles of girth length
    graphs = list(corpus) + [
        (name, g) for name, g in _SWEEP_GRAPHS
        if 3 <= girth(g) <= 6 and all(d == 3 for d in g.degrees())
    ]
    for name, g in graphs:
        sweeps.clear()
        cyclic_connectivity(g).witness
        for k in range(1, 8):
            is_cyclically_k_connected(g, k).witness
        assert set(sweeps) <= {("_chordless_cycles", girth(g))}, name


@pytest.mark.parametrize(
    "name,units",
    [("mcgee", [36, 36, 36, 666, 666, 156]), ("tutte-coxeter", [45, 45, 45, 1_035, 1_035, 136])],
    ids=["mcgee", "tutte-coxeter"],
)
def test_cage_k_checks_up_to_six_use_closed_neighbourhoods(sweeps, name, units):
    # lemma parts (a) and (b) need only cuts below min(g, 6), so a k-check
    # with k <= 6 on a cubic graph of girth g >= 7 enumerates no cycle: for
    # k <= 5 the cut labels decide it (one unit per edge, and from k = 4
    # one per pair of edges, 630 on McGee's 36 edges and 990 on
    # Tutte-Coxeter's 45), for k = 6 the closed-neighbourhood flows (156
    # and 136 units: the rows u < 11 after one group search, where sweeping
    # every row took 356 and 444); with the pair flows every k <= 6 cost
    # 92, 92, 92, 356, 356, 356 and 116, 116, 116, 444, 444, 444.  The value
    # and k = 7 still sweep cycle pairs
    g = dict(_SWEEP_GRAPHS)[name]
    for k, least in enumerate(units, 1):
        assert is_cyclically_k_connected(g, k, max_work=least).connected, (name, k)
        with pytest.raises(BudgetExceededError):
            is_cyclically_k_connected(g, k, max_work=least - 1)
    assert sweeps == []
    assert is_cyclically_k_connected(g, 7).connected
    assert [call for call, _ in sweeps] == ["_cycle_cut", "_chordless_cycles"]
