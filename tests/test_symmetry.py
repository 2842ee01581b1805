"""The automorphism search against VF2++, and the cyclic sweep over orbit
representatives against the sweep over every cycle."""

import random
from collections import Counter

import pytest

from helpers import shuffled, vf2_orbits

import nzflow.structure
from nzflow import MultiGraph, cyclic_connectivity, is_cyclically_k_connected
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
# trivial groups, where the search runs and finds nothing
_SWEEP += [
    (f"random-{n}-{s}", random_bridgeless_cubic(n, random.Random(s)))
    for n, s in ((24, 0), (32, 2), (40, 4))
]


def _sweep_results(g, exact=None):
    """The exact result and the verdicts for k = 4, 5, 6.  Given the exact
    value, a k at or below it is answered without a sweep: every sweep
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
    # the first pair in sweep order to reach the minimum, or to go below k,
    # has an orbit-first first cycle, and the witness side does not depend
    # on the flow, so skipping the other first cycles changes nothing,
    # whenever the group search starts.  The default run sweeps every k;
    # the runs that search at once and never sweep the k below the value
    got, res = _sweep_results(g)
    monkeypatch.setattr(nzflow.structure, "_GROUP_AFTER", 0)
    assert _sweep_results(g, res)[0] == got, name
    monkeypatch.setattr(nzflow.structure, "_GROUP_AFTER", g.n * g.n * g.n)
    assert _sweep_results(g, res)[0] == got, name


def test_group_search_waits_for_long_sweeps(monkeypatch, corpus):
    searched = []
    real = nzflow.structure.automorphisms

    def counting(g, spend=None):
        searched.append(g.n)
        return real(g, spend)

    monkeypatch.setattr(nzflow.structure, "automorphisms", counting)
    for _, g in corpus + [("blanusa-1", blanusa_snarks()[0])]:
        cyclic_connectivity(g)
        is_cyclically_k_connected(g, 6)
    assert searched == [18]  # Blanusa-1's exact sweep, once
    searched.clear()
    # the oddness-4 snark's first pair is its minimum cut
    cyclic_connectivity(oddness4_snark())
    assert searched == []
