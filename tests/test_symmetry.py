"""The automorphism search against VF2++, and the cyclic sweep over orbit
representatives against the sweep over every cycle."""

import random
from collections import Counter

import pytest

from helpers import diamond_necklace, lcf, random_cubic_multigraph, shuffled, vf2_orbits

import nzflow.structure
from nzflow import MultiGraph, cyclic_connectivity, girth, is_cyclically_k_connected
from nzflow.catalog import (
    _moebius_ladder,
    blanusa_snarks,
    flower_snark,
    generalized_petersen,
    k33,
    k4,
    oddness4_snark,
    prism,
    random_bridgeless_cubic,
)
from nzflow.symmetry import automorphisms, orbits


def _disjoint_union(*graphs):
    edges, offset = [], 0
    for g in graphs:
        edges += [(u + offset, v + offset) for u, v in g.edges]
        offset += g.n
    return MultiGraph(offset, edges)


_FAMILIES = [(f"prism-{n}", prism(n)) for n in range(3, 11)]
_FAMILIES += [(f"moebius-{n}", _moebius_ladder(n)) for n in range(6, 17, 2)]
_FAMILIES += [
    (f"gp-{n}-{k}", generalized_petersen(n, k))
    for n, k in ((7, 2), (8, 3), (9, 2), (10, 2), (10, 3), (12, 5), (13, 5))
]
_MULTI = [
    ("parallel-6", MultiGraph(
        6, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (2, 5), (3, 4)]
    )),
    ("theta", MultiGraph(2, [(0, 1)] * 3)),
    ("k4+k33", _disjoint_union(k4(), k33())),
    ("3k33", _disjoint_union(k33(), k33(), k33())),
]


def _is_automorphism(g, gamma):
    assert sorted(gamma) == list(range(g.n))
    edges = Counter(frozenset(e) for e in g.edges)
    return edges == Counter(frozenset((gamma[u], gamma[v])) for u, v in g.edges)


def test_generators_are_automorphisms_of_the_edge_multiset(corpus):
    graphs = corpus + _FAMILIES + _MULTI
    graphs += [("flower-9", flower_snark(9)), ("oddness4", oddness4_snark())]
    for name, g in graphs:
        gens = automorphisms(g)
        assert all(_is_automorphism(g, gamma) for gamma in gens), name


def test_orbits_match_vf2(corpus):
    # the families up to the corpus's 14 vertices; VF2++ lists every
    # automorphism, so larger groups take it long
    small = [(name, g) for name, g in _FAMILIES if g.n <= 14]
    for name, g in corpus + small + _MULTI[:2]:
        assert orbits(g.n, automorphisms(g)) == vf2_orbits(g), name


def test_search_spends_one_unit_per_node():
    nodes = []
    automorphisms(flower_snark(5), lambda: nodes.append(1))
    assert len(nodes) == 15


_SWEEP = [(f"flower-{k}", flower_snark(k)) for k in (5, 7, 9)]
_SWEEP += [(f"gp-{n}-2", generalized_petersen(n, 2)) for n in (12, 15)]
_SWEEP += [(f"gp-{n}-3", generalized_petersen(n, 3)) for n in (10, 11)]
_SWEEP += [(f"prism-{n}", prism(n)) for n in (8, 12)]
_SWEEP += [(f"{name}-shuffled", shuffled(g, random.Random(3))) for name, g in _SWEEP]
# the unrestricted sweeps of J11 and J13 take most of a second
_SWEEP += [(f"flower-{k}", flower_snark(k)) for k in (11, 13)]
# the cages (girth 7 and 8), whose value comes from the cycle-pair sweep
_SWEEP += [
    ("mcgee", lcf([12, 7, -7], 8)),
    ("tutte-coxeter", lcf([-13, -9, 7, -7, 9, 13], 5)),
]
# twin vertices, whose closed neighbourhoods coincide
_SWEEP += [(f"necklace-{r}", diamond_necklace(r)) for r in (3, 4, 6)]
# trivial groups, where the search runs and finds nothing
_SWEEP += [
    (f"random-{n}-{s}", random_bridgeless_cubic(n, random.Random(s)))
    for n, s in ((24, 0), (32, 2), (40, 4))
]


def _sweep_results(g, exact=None):
    """The exact result and the verdicts for k = 4, 5, 6.  Given the exact
    value, a k at or below it is answered without a check: every check
    then finds no cut below k and reports no witness."""
    res = cyclic_connectivity(g)
    out = [(res.value, res.vacuous, res.witness and res.witness.side)]
    for k in (4, 5, 6):
        if exact is not None and (exact.vacuous or exact.value >= k):
            out.append((True, None))
            continue
        chk = is_cyclically_k_connected(g, k)
        out.append((chk.connected, chk.witness and chk.witness.side))
    return out, res


@pytest.mark.parametrize("name,g", _SWEEP, ids=[n for n, _ in _SWEEP])
def test_orbit_sweep_matches_the_sweep_over_every_cycle(monkeypatch, name, g):
    # the first pair in sweep order to reach the minimum has an orbit-first
    # first cycle, and the witness side does not depend on the flow, so
    # skipping the other first cycles changes nothing, whenever the group
    # search starts.  The default run checks every k; the runs that search
    # at once or never skip each k at or below the value.  _GROUP_AFTER
    # times only the witness and cycle sweeps: the value step's sweep
    # searches before its first pair, so the last run finds no
    # automorphism, and no sweep skips a first set
    got, res = _sweep_results(g)
    monkeypatch.setattr(nzflow.structure, "_GROUP_AFTER", 0)
    assert _sweep_results(g, res)[0] == got, name
    monkeypatch.setattr(nzflow.structure, "_GROUP_AFTER", g.n * g.n * g.n)
    assert _sweep_results(g, res)[0] == got, name
    monkeypatch.setattr(nzflow.structure, "automorphisms", lambda g, spend=None: [])
    assert _sweep_results(g, res)[0] == got, name


def test_group_search_waits_for_long_sweeps(monkeypatch, corpus):
    searched = []
    real = nzflow.structure.automorphisms

    def counting(g, spend=None):
        searched.append(g.n)
        return real(g, spend)

    monkeypatch.setattr(nzflow.structure, "automorphisms", counting)
    for _, g in corpus + [("blanusa-1", blanusa_snarks()[0])]:
        cyclic_connectivity(g).witness
        is_cyclically_k_connected(g, 6)
    # below girth 6 the cut labels give the value, and a witness sweep
    # stops at its first pair whose cut is that value.  Blanusa-1's value
    # step searched its group in each call while its sweep could stop only
    # at its edge-connectivity 3, below its cyclic connectivity 4
    assert searched == []
    # J7's value step, at girth 6, tries every pair of its first 11 rows
    # when no cut lies below 6, so it searches its group first
    cyclic_connectivity(flower_snark(7))
    assert searched == [28]
    searched.clear()
    # the oddness-4 snark's first pair attains its value
    cyclic_connectivity(oddness4_snark()).witness
    assert searched == []


def _two_copies_joined_at_a_vertex(g):
    """Two copies of ``g`` with vertex 0 deleted, each former neighbour of
    0 joined to its twin; the join's ends are 0-5, copy by copy in
    turn."""
    ends = sorted(v for _, v in g.incident(0))
    rest = [v for v in range(1, g.n) if v not in ends]
    label = [{}, {}]
    for k, v in enumerate(ends + rest):
        label[0][v], label[1][v] = 2 * k, 2 * k + 1
    edges = [(label[0][v], label[1][v]) for v in ends]
    for copy in label:
        edges += [(copy[u], copy[v]) for u, v in g.edges if 0 not in (u, v)]
    return MultiGraph(2 * g.n - 2, edges)


@pytest.fixture
def timed_searches(monkeypatch):
    """The pair flows made so far, and for each automorphism search the
    number of flows before it."""
    flows = []
    searched = []
    real_cut, real_group = nzflow.structure._UnitCuts.min_cut, automorphisms

    def counted(self, *args):
        flows.append(1)
        return real_cut(self, *args)

    def counting(g, spend=None):
        searched.append(len(flows))
        return real_group(g, spend)

    monkeypatch.setattr(nzflow.structure._UnitCuts, "min_cut", counted)
    monkeypatch.setattr(nzflow.structure, "automorphisms", counting)
    return flows, searched


def test_value_step_searches_the_group_before_its_first_pair(timed_searches):
    # the girth-6 value step searches the group before any flow (with the
    # row bound, J9's flows went from 129 to 78 and GP(30, 3)'s from 224
    # to 50); a witness sweep below girth 6 stops at its first pair that
    # attains the value, so it still waits for _GROUP_AFTER pairs per
    # vertex.  Two GP(7, 2) joined through a 3-edge cut whose six ends
    # come first have girth 5 and lambda_c 3, and their witness sweep
    # passes 3n pairs before it reaches a pair that attains 3
    flows, searched = timed_searches
    for g in (flower_snark(9), generalized_petersen(30, 3)):
        flows.clear()
        searched.clear()
        cyclic_connectivity(g)
        assert searched == [0]
        assert flows
    g = _two_copies_joined_at_a_vertex(generalized_petersen(7, 2))
    res = cyclic_connectivity(g)
    assert (girth(g), res.value) == (5, 3)
    flows.clear()
    searched.clear()
    assert len(res.witness.edges) == 3
    assert len(searched) == 1
    assert searched[0] >= nzflow.structure._GROUP_AFTER * g.n


@pytest.mark.parametrize(
    "g, after",
    [(lcf([12, 7, -7], 8), 85), (lcf([-13, -9, 7, -7, 9, 13], 5), 130)],
    ids=["mcgee", "tutte-coxeter"],
)
def test_cycle_sweep_searches_the_group_after_three_pairs_per_vertex(
    timed_searches, g, after
):
    # girth 7 and 8, so the cycle sweep decides; it has no starting bound
    # and may stop at its floor, so it searches once, after the row in
    # which its pairs pass _GROUP_AFTER * n (72 on McGee, 90 on
    # Tutte-Coxeter)
    _, searched = timed_searches
    cyclic_connectivity(g)
    assert searched == [after]
    assert after >= nzflow.structure._GROUP_AFTER * g.n


def test_cycle_sweep_stopping_at_its_floor_never_searches(timed_searches):
    # a cubic multigraph of girth 2 whose first cycle pair attains its
    # floor min(kappa', 3) = 2 stops before any group search
    flows, searched = timed_searches
    g = random_cubic_multigraph(10, random.Random(0))
    res = cyclic_connectivity(g)
    assert (girth(g), res.value, len(flows)) == (2, 2, 1)
    assert searched == []
