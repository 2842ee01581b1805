"""The iterative Dinic against the recursive reference it replaced."""

import random

import pytest

from helpers import RecursiveMaxFlow, network_orientation

import nzflow.maxflow
import nzflow.valuation
from nzflow import flow_to_valuation, solve_nowhere_zero_flow, valuation_to_flow
from nzflow.maxflow import MaxFlow, feasible_circulation


def both_flows(n, arcs, s, t):
    """Max-flow value, per-arc flows and residual reach of ``s``, from the
    package and from the reference, on the same network."""
    results = []
    for cls in (MaxFlow, RecursiveMaxFlow):
        net = cls(n)
        ids = [net.add_edge(*arc) for arc in arcs]
        value = net.max_flow(s, t)
        results.append((value, [net.flow_on(a) for a in ids], net.reachable(s)))
    return results


def test_iterative_dinic_matches_recursive_on_random_networks():
    rng = random.Random(2024)
    for _ in range(300):
        n = rng.randint(2, 14)
        arcs = []
        for _ in range(rng.randint(0, 4 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                arcs.append((u, v, rng.randint(0, 6)))
        s, t = rng.sample(range(n), 2)
        mine, ref = both_flows(n, arcs, s, t)
        assert mine == ref, (n, arcs, s, t)


class _Checked(MaxFlow):
    """A MaxFlow that replays every network it solves in the reference and
    requires the same per-arc flows."""

    solved = 0

    def __init__(self, n):
        super().__init__(n)
        self.arcs = []

    def add_edges(self, arcs):
        arcs = list(arcs)
        self.arcs += arcs
        return super().add_edges(arcs)

    def max_flow(self, s, t):
        ref = RecursiveMaxFlow(self.n)
        ids = [ref.add_edge(*arc) for arc in self.arcs]
        value = super().max_flow(s, t)
        assert value == ref.max_flow(s, t)
        assert [self.flow_on(2 * i) for i in range(len(ids))] == [
            ref.flow_on(a) for a in ids
        ]
        type(self).solved += 1
        return value


def test_iterative_dinic_matches_recursive_on_realization_networks(
    corpus, monkeypatch
):
    # the corpus's 5-flow valuations: each realization builds one network,
    # the circulation's, and replays it in the reference; the orientation
    # runs Dinic on the graph's arrays and must give the tails that the
    # reference finds on the network s -> edge -> end -> t
    monkeypatch.setattr(nzflow.valuation, "MaxFlow", _Checked)
    monkeypatch.setattr(nzflow.maxflow, "MaxFlow", _Checked)
    _Checked.solved = 0
    for name, g in corpus:
        val = flow_to_valuation(g, solve_nowhere_zero_flow(g, 5), 5)
        out_deg = nzflow.valuation._prescribed_out_degrees(g, val, 5)
        flow = valuation_to_flow(g, val, 5)
        assert list(flow.tails) == network_orientation(g, out_deg), name
    assert _Checked.solved == len(corpus)


def test_feasible_circulation_values_follow_the_arc_order():
    # a directed 4-cycle with a chord: bounds force the cycle, the chord
    # stays at its lower bound
    arcs = [(0, 1, 1, 3), (1, 2, 1, 3), (2, 3, 0, 3), (3, 0, 1, 3), (0, 2, 0, 0)]
    values = feasible_circulation(4, arcs)
    assert values == [1, 1, 1, 1, 0]
    assert feasible_circulation(2, [(0, 1, 1, 2)]) is None
    assert feasible_circulation(2, [(0, 1, 2, 1)]) is None


def test_max_flow_on_a_long_path_needs_no_recursion():
    n = 3000
    net = MaxFlow(n)
    ids = [net.add_edge(v, v + 1, 2) for v in range(n - 1)]
    assert net.max_flow(0, n - 1) == 2
    assert all(net.flow_on(a) == 2 for a in ids)
    assert net.reachable(0) == {0}
    assert net.reaching(n - 1) == {n - 1}


def test_reaching_is_reverse_reachability():
    net = MaxFlow(4)
    net.add_edge(0, 1, 1)
    net.add_edge(1, 2, 2)
    net.add_edge(2, 3, 1)
    assert net.max_flow(0, 3) == 1
    # saturated: 0->1 and 2->3; 1->2 keeps one unit
    assert net.reachable(0) == {0}
    assert net.reaching(3) == {3}
    assert net.reachable(1) == {0, 1, 2}
    assert net.reaching(2) == {1, 2, 3}


@pytest.mark.parametrize("cls", [MaxFlow, RecursiveMaxFlow])
def test_zero_capacity_arcs_carry_nothing(cls):
    net = cls(3)
    a = net.add_edge(0, 1, 0)
    b = net.add_edge(0, 2, 1)
    c = net.add_edge(2, 1, 1)
    assert net.max_flow(0, 1) == 1
    assert (net.flow_on(a), net.flow_on(b), net.flow_on(c)) == (0, 1, 1)
