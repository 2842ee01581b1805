"""Independent oracles used to cross-check the package's algorithms.

These deliberately share no code with the implementations they check:
the edge colorer is a plain backtracker, the cyclic-connectivity oracle
enumerates vertex subsets, the cut reference contracts both vertex sets into
a Dinic network, and the balance oracle recomputes margins from scratch with
Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from nzflow.graph import MultiGraph
from nzflow.maxflow import MaxFlow


def three_edge_colorable(g: MultiGraph) -> bool:
    """Proper 3-edge-colorability by straightforward backtracking."""
    colors = [0] * g.m  # 0 = unassigned, colors 1..3

    def ok(eid: int, c: int) -> bool:
        u, v = g.endpoints(eid)
        for w in (u, v):
            for e2, _ in g.incident(w):
                if e2 != eid and colors[e2] == c:
                    return False
        return True

    def rec(eid: int) -> bool:
        if eid == g.m:
            return True
        for c in (1, 2, 3):
            if ok(eid, c):
                colors[eid] = c
                if rec(eid + 1):
                    return True
                colors[eid] = 0
        return False

    return rec(0)


def _has_cycle(g: MultiGraph, vertices: frozenset[int]) -> bool:
    edges_inside = sum(
        1 for (u, v) in g.edges if u in vertices and v in vertices
    )
    comps = 0
    seen: set[int] = set()
    for start in vertices:
        if start in seen:
            continue
        comps += 1
        stack = [start]
        seen.add(start)
        while stack:
            x = stack.pop()
            for _, w in g.incident(x):
                if w in vertices and w not in seen:
                    seen.add(w)
                    stack.append(w)
    return edges_inside > len(vertices) - comps


def brute_cyclic_min_cut(g: MultiGraph) -> int | None:
    """Minimum size of a cycle-separating edge cut, by full enumeration.

    None when no vertex subset splits the graph into two cycle-containing
    sides.  Exponential; keep to small graphs.
    """
    best = None
    all_v = frozenset(range(g.n))
    for size in range(1, g.n // 2 + 1):
        for combo in combinations(range(g.n), size):
            side = frozenset(combo)
            other = all_v - side
            if not _has_cycle(g, side) or not _has_cycle(g, other):
                continue
            cut = sum(1 for (u, v) in g.edges if (u in side) != (v in side))
            if best is None or cut < best:
                best = cut
    return best


def dinic_min_cut_between(
    g: MultiGraph, side_a: tuple[int, ...], side_b: tuple[int, ...]
) -> tuple[int, frozenset[int]]:
    """Minimum edge cut separating two disjoint vertex sets, and the set
    reachable from ``side_a`` in the residual network of a maximum flow.

    Contracts ``side_a`` to node 0 and ``side_b`` to node 1, adds every other
    edge as two unit arcs, and runs Dinic.
    """
    node = {}
    for v in side_a:
        node[v] = 0
    for v in side_b:
        node[v] = 1
    nxt = 2
    for v in range(g.n):
        if v not in node:
            node[v] = nxt
            nxt += 1
    net = MaxFlow(nxt)
    for (u, v) in g.edges:
        a, b = node[u], node[v]
        if a == b:
            continue
        net.add_edge(a, b, 1)
        net.add_edge(b, a, 1)
    value = net.max_flow(0, 1)
    reach = net.reachable(0)
    side = frozenset(v for v in range(g.n) if node[v] in reach)
    return value, side


def brute_margin(g: MultiGraph, numerators, denominator, subset) -> Fraction:
    total = sum(numerators[v] for v in subset)
    cut = sum(1 for (u, v) in g.edges if (u in subset) != (v in subset))
    return Fraction(abs(total), denominator) - cut


def brute_is_balanced(g: MultiGraph, numerators, denominator) -> bool:
    for size in range(g.n + 1):
        for combo in combinations(range(g.n), size):
            if brute_margin(g, numerators, denominator, set(combo)) > 0:
                return False
    return True
