"""Independent oracles used to cross-check the package's algorithms.

These deliberately share no code with the implementations they check:
the edge colorer is a plain backtracker, the cyclic-connectivity oracle
enumerates vertex subsets, the cut reference contracts both vertex sets into
a Dinic network, and the balance oracle recomputes margins from scratch with
Fractions.  Automorphism orbits come from every automorphism networkx's VF2++
enumerates.  The package's earlier implementations stay here as references
for the ones that replaced them: VF2 isomorphism through networkx (replaced
by ``catalog.canonical_form``), the recursive Dinic and the orientation
and bounded circulation networks it solves, the balance check with one
network per sign, the graph6 decoder that expands every bit and the
encoder that fills an adjacency matrix, the recursive flow solver, oddness
search and 2-factor enumeration, the frontier DP that appends a vertex's
new edges to the word and renames each word by a scan, the frontier order
on lazy heaps, the scoring of every candidate order in full and the
profile of its bound rebuilt from an order alone, the
2-factor, colour-{1,2}, augmented-graph and 4-flow constructions that
re-trace every circuit with ``trace_circuit``,
the partition variants that rebuild and re-partition each switched or
reversed flow, and the cyclic-connectivity sweep under its earlier length
cap.  The exhaustive
balance checker (also batched over many weightings of one graph) and the
table of every vertex bipartition's cut, both vectorized over all subsets
with numpy, are the references for ``check_balanced_mincut`` and for the
cyclic sweep's cycle caps.  Two constructions the catalog lacks build
test graphs: LCF notation (for the McGee and Tutte–Coxeter cages) and the
diamond necklace.  numpy and networkx are test dependencies only.
"""

from __future__ import annotations

import heapq
import math
import sys
import threading
from collections import deque
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

import networkx as nx
import numpy as np

from nzflow.errors import Budget, BudgetExceededError, InternalInconsistencyError
from nzflow.flows import (
    Flow,
    make_flow,
    mod_to_integer_flow,
    reverse_flow,
    switch_path,
)
from nzflow.graph import MultiGraph, trace_circuit
from nzflow.structure import (
    _FIRST_APPEARANCE,
    _GROWTH,
    _ORDER_STARTS,
    _UnitCuts,
    _best_order,
    _chordless_cycles,
    _frontier_colourable,
    _state_bound,
    girth,
)
from nzflow.valuation import (
    BalanceReport,
    Valuation,
    _class_difference,
    flow_partition,
)


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
    sides.  Exponential (every bipartition, from :func:`bipartition_table`);
    keep to small graphs.
    """
    _, cut, cyclic_in, cyclic_out = bipartition_table(g)
    both = cyclic_in & cyclic_out
    return int(cut[both].min()) if both.any() else None


def random_cubic_multigraph(n: int, rng) -> MultiGraph:
    """A cubic multigraph on ``n`` vertices from the pairing model: the 3n
    half-edges are paired at random, and a pairing with a loop is drawn
    again.  Parallel edges and disconnected graphs are kept."""
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = list(zip(stubs[::2], stubs[1::2]))
        if all(u != v for u, v in edges):
            return MultiGraph(n, edges)


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
    net = RecursiveMaxFlow(nxt)
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


def bipartition_table(g: MultiGraph):
    """Every vertex bipartition of ``g``, vectorized over subset masks.

    Returns ``(masks, cut, cyclic_in, cyclic_out)``: the masks run over the
    nonempty vertex sets S without vertex n - 1, ``cut`` counts the edges
    leaving S, and ``cyclic_in`` / ``cyclic_out`` tell whether S and its
    complement induce a subgraph with a cycle (a nonempty 2-core, found by
    peeling vertices of induced degree below 2).
    """
    n = g.n
    masks = np.arange(1, 1 << (n - 1), dtype=np.int64)
    inside = [((masks >> v) & 1).astype(bool) for v in range(n)]
    cut = np.zeros(len(masks), dtype=np.int64)
    for u, v in g.edges:
        cut += inside[u] ^ inside[v]

    def has_cycle(alive):
        while True:
            degree = [np.zeros(len(masks), dtype=np.int64) for _ in range(n)]
            for u, v in g.edges:
                both = alive[u] & alive[v]
                degree[u] += both
                degree[v] += both
            peeled = [a & (d >= 2) for a, d in zip(alive, degree)]
            if all(np.array_equal(a, b) for a, b in zip(alive, peeled)):
                return np.logical_or.reduce(alive)
            alive = peeled

    return masks, cut, has_cycle(inside), has_cycle([~x for x in inside])


def induced_girth(g: MultiGraph, vertices: frozenset[int]) -> int | None:
    """Length of a shortest cycle inside ``vertices``, or None if they
    induce a forest: for each edge, a shortest path between its ends that
    avoids it, by BFS."""
    best = None
    for eid, (a, b) in enumerate(g.edges):
        if a not in vertices or b not in vertices:
            continue
        dist = {a: 0}
        queue = deque([a])
        while queue:
            x = queue.popleft()
            for e2, y in g.incident(x):
                if e2 != eid and y in vertices and y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        if b in dist and (best is None or dist[b] + 1 < best):
            best = dist[b] + 1
    return best


def reference_length_bound(n: int, cut_size: int) -> int:
    """The earlier cycle length cap of the cyclic sweep, never proved: a
    minimum cycle-separating cut of size c was taken to have, on each side,
    a chordless cycle of length <= c + 2*ceil(log2 n) + 2."""
    return cut_size + 2 * math.ceil(math.log2(max(n, 2))) + 2


def reference_pair_sweep(g: MultiGraph, cycles):
    """The earlier sweep over every disjoint pair of ``cycles``, in order,
    each flow stopped at the best cut so far.  Returns the best cut and the
    side of the first pair that reached it, or ``(None, None)``."""
    cuts = _UnitCuts(g)
    # bit j of through[v] is set when cycle j passes through v
    through = [0] * g.n
    for j, c in enumerate(cycles):
        for v in c:
            through[v] |= 1 << j
    everything = (1 << len(cycles)) - 1
    best = best_side = None
    for i, a in enumerate(cycles):
        hit = 0
        for v in a:
            hit |= through[v]
        later = (everything ^ hit) >> i  # bit d stands for cycle i + d
        while later:
            low = later & -later
            later ^= low
            j = i + low.bit_length() - 1
            value, side = cuts.min_cut(a, cycles[j], best)
            if best is None or value < best:
                best, best_side = value, side
    return best, best_side


def reference_cyclic_connectivity(g: MultiGraph):
    """``cyclic_connectivity`` under ``reference_length_bound``: the value
    and the witness side, or ``(None, None)`` for the vacuous verdict."""
    upper = girth(g)
    if upper is None:
        return None, None
    while True:
        cycles = _chordless_cycles(g, reference_length_bound(g.n, upper - 1), Budget(None))
        value, side = reference_pair_sweep(g, cycles)
        if value is None:
            cycles = _chordless_cycles(g, g.n, Budget(None))
            value, side = reference_pair_sweep(g, cycles)
            if value is None:
                return None, None
        if value <= upper:
            return value, side
        upper = value


def reference_neighbourhood_cut(g: MultiGraph):
    """The least Dinic cut between disjoint closed neighbourhoods N[u],
    N[w], u < w, of a simple graph, and the residual side from N[u] of the
    first pair, by u and then w, that attains it; ``(None, None)`` when no
    two are disjoint."""
    closed = [(v, *(w for _, w in g.incident(v))) for v in range(g.n)]
    best = best_side = None
    for u, w in combinations(range(g.n), 2):
        if not set(closed[u]) & set(closed[w]):
            value, side = dinic_min_cut_between(g, closed[u], closed[w])
            if best is None or value < best:
                best, best_side = value, side
    return best, best_side


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



def to_networkx(g: MultiGraph) -> nx.MultiGraph:
    out = nx.MultiGraph()
    out.add_nodes_from(range(g.n))
    for (u, v) in g.edges:
        out.add_edge(u, v)
    return out


def isomorphic(a: MultiGraph, b: MultiGraph) -> bool:
    """Isomorphism by networkx's VF2."""
    if a.n != b.n or a.m != b.m:
        return False
    return nx.is_isomorphic(to_networkx(a), to_networkx(b))


def shuffled(g: MultiGraph, rng) -> MultiGraph:
    """``g`` with its vertices relabelled, its edges reordered and each edge
    written either way round."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u])
             for u, v in g.edges]
    rng.shuffle(edges)
    return MultiGraph(g.n, edges)


def lcf(jumps: list[int], repeats: int) -> MultiGraph:
    """The cubic graph of LCF notation ``[jumps]^repeats``: a Hamiltonian
    cycle on ``len(jumps) * repeats`` vertices plus the chord from each
    vertex i to i + jumps[i mod len(jumps)]."""
    n = len(jumps) * repeats
    edges = {(i, (i + 1) % n) for i in range(n)}
    edges |= {(i, (i + jumps[i % len(jumps)]) % n) for i in range(n)}
    return MultiGraph(n, sorted({(min(e), max(e)) for e in edges}))


def edge_switched(g: MultiGraph, switches: list[tuple[int, int]]) -> MultiGraph:
    """``g`` with each pair of edge ids (e, f) of ``switches`` switched in
    turn: edges e = (a, b) and f = (c, d) become (a, c) and (b, d), which
    keeps every degree."""
    edges = list(g.edges)
    for e, f in switches:
        (a, b), (c, d) = edges[e], edges[f]
        edges[e], edges[f] = (a, c), (b, d)
    return MultiGraph(g.n, edges)


def diamond_necklace(r: int) -> MultiGraph:
    """``r`` copies of K4 - e joined in a ring by the edges between their
    vertices of degree 2.  The two middle vertices of each diamond have
    the same closed neighbourhood."""
    edges = []
    for i in range(0, 4 * r, 4):
        edges += [(i, i + 1), (i, i + 2), (i + 1, i + 2), (i + 1, i + 3),
                  (i + 2, i + 3), (i + 3, (i + 4) % (4 * r))]
    return MultiGraph(4 * r, edges)


def three_bridged_k4s() -> MultiGraph:
    """Three copies of K4, each with one edge subdivided, and the three
    subdivision vertices joined to a centre: a cubic graph on 16 vertices
    whose three bridges leave no perfect matching."""
    edges = []
    for i in range(0, 15, 5):
        edges += [(i, i + 2), (i, i + 3), (i + 1, i + 2), (i + 1, i + 3),
                  (i + 2, i + 3), (i, i + 4), (i + 4, i + 1), (i + 4, 15)]
    return MultiGraph(16, edges)


def vf2_orbits(g: MultiGraph) -> list[int]:
    """The least vertex of each vertex's orbit, over every automorphism
    networkx's VF2++ enumerates."""
    nxg = to_networkx(g)
    least = list(range(g.n))
    for iso in nx.vf2pp_all_isomorphisms(nxg, nxg):
        for v, w in iso.items():
            least[w] = min(least[w], v)
    return least


@lru_cache(maxsize=32)
def _subset_tables(g: MultiGraph):
    """Per-graph cut sizes and popcounts of every subset mask (n <= 20)."""
    n = g.n
    size = 1 << n
    idx = np.arange(size, dtype=np.uint32)
    bits = ((idx[None, :] >> np.arange(n, dtype=np.uint32)[:, None]) & 1).astype(
        np.int8
    )
    cut = np.zeros(size, dtype=np.int64)
    for (u, v) in g.edges:
        cut += (bits[u] ^ bits[v]).astype(np.int64)
    popcount = bits.sum(axis=0, dtype=np.int64)
    return cut, popcount


def check_balanced_bruteforce(
    g: MultiGraph, val: Valuation, *, max_vertices: int = 20
) -> BalanceReport:
    """Exhaustive balancedness check over all vertex subsets.

    Exact and complete, but exponential: guarded to ``max_vertices``.  On a
    violation the violator is a maximal-margin subset with the fewest
    vertices, then lexicographically first.
    """
    if g.n > max_vertices:
        raise ValueError(
            f"{g.n} vertices exceeds brute-force guard of {max_vertices}"
        )
    if len(val.numerators) != g.n:
        raise ValueError("valuation does not cover the vertex set")
    cut, popcount = _subset_tables(g)
    # sums[mask] over the set bits of mask, by doubling: the masks whose top
    # bit is i are the masks below 1 << i plus vertex i
    sums = np.zeros(1 << g.n, dtype=np.int64)
    for i, w in enumerate(val.numerators):
        np.add(sums[: 1 << i], w, out=sums[1 << i : 2 << i])
    margins = np.abs(sums) - val.denominator * cut
    best = int(margins.max())
    if best <= 0:
        return BalanceReport(True, None, Fraction(0), None)
    candidates = np.nonzero(margins == best)[0]
    smallest = candidates[popcount[candidates] == popcount[candidates].min()]
    decoded = sorted(
        (tuple(v for v in range(g.n) if (int(mask) >> v) & 1) for mask in smallest)
    )
    violator = decoded[0]
    return BalanceReport(
        balanced=False,
        violator=violator,
        margin=Fraction(best, val.denominator),
        class_difference=_class_difference(val, violator),
    )


def brute_max_margins(
    g: MultiGraph, rows, denominator: int, *, chunk: int = 256
) -> list[int]:
    """For each row of vertex numerators, the largest |sum| - denominator *
    cut over every vertex subset: the margin numerator that
    :func:`check_balanced_bruteforce` maximizes, for many valuations of one
    graph at once.

    Each chunk of rows is one int16 array of every row's subset sums, built
    by the same doubling; the asserts keep every sum and every
    denominator * cut inside int16.
    """
    n = g.n
    weights = np.array(rows, dtype=np.int16).reshape(len(rows), n)
    cut, _ = _subset_tables(g)
    limit = np.iinfo(np.int16).max
    assert int(np.abs(weights.astype(np.int64)).sum(axis=1).max(initial=0)) <= limit
    assert denominator * int(cut.max()) <= limit
    scaled_cut = (denominator * cut).astype(np.int16)
    best: list[int] = []
    for lo in range(0, len(rows), chunk):
        w = weights[lo : lo + chunk]
        sums = np.zeros((len(w), 1 << n), dtype=np.int16)
        for i in range(n):
            np.add(sums[:, : 1 << i], w[:, i : i + 1], out=sums[:, 1 << i : 2 << i])
        np.abs(sums, out=sums)
        sums -= scaled_cut
        best.extend(int(x) for x in sums.max(axis=1))
    return best


class RecursiveMaxFlow:
    """Dinic with a recursive blocking-flow search, arcs tried in insertion
    order.  Arc ids come in (forward, reverse) pairs."""

    def __init__(self, n: int):
        self.n = n
        self._to: list[int] = []
        self._cap: list[int] = []
        self._orig: list[int] = []
        self._adj: list[list[int]] = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int, cap: int) -> int:
        arc = len(self._to)
        self._to.append(v)
        self._cap.append(cap)
        self._orig.append(cap)
        self._adj[u].append(arc)
        self._to.append(u)
        self._cap.append(0)
        self._orig.append(0)
        self._adj[v].append(arc + 1)
        return arc

    def flow_on(self, arc: int) -> int:
        return self._orig[arc] - self._cap[arc]

    def _bfs_levels(self, s: int, t: int) -> list[int] | None:
        level = [-1] * self.n
        level[s] = 0
        q = deque([s])
        while q:
            v = q.popleft()
            for arc in self._adj[v]:
                w = self._to[arc]
                if self._cap[arc] > 0 and level[w] == -1:
                    level[w] = level[v] + 1
                    q.append(w)
        return level if level[t] != -1 else None

    def max_flow(self, s: int, t: int) -> int:
        total = 0
        while True:
            level = self._bfs_levels(s, t)
            if level is None:
                return total
            it = [0] * self.n
            while True:
                pushed = self._dfs(s, t, float("inf"), level, it)
                if not pushed:
                    break
                total += pushed

    def _dfs(self, v, t, limit, level, it):
        if v == t:
            return limit
        while it[v] < len(self._adj[v]):
            arc = self._adj[v][it[v]]
            w = self._to[arc]
            if self._cap[arc] > 0 and level[w] == level[v] + 1:
                pushed = self._dfs(w, t, min(limit, self._cap[arc]), level, it)
                if pushed:
                    self._cap[arc] -= pushed
                    self._cap[arc ^ 1] += pushed
                    return pushed
            it[v] += 1
        return 0

    def reachable(self, s: int) -> set[int]:
        seen = {s}
        q = deque([s])
        while q:
            v = q.popleft()
            for arc in self._adj[v]:
                w = self._to[arc]
                if self._cap[arc] > 0 and w not in seen:
                    seen.add(w)
                    q.append(w)
        return seen


def network_orientation(g: MultiGraph, out_deg) -> list[int] | None:
    """Tails of the orientation with out-degrees ``out_deg`` that
    :class:`RecursiveMaxFlow` finds on the network s -> edge -> end -> t,
    or None.  Arcs are added edge by edge (s -> e, e -> u, e -> v, unit
    capacities), then one arc x -> t of capacity ``out_deg[x]`` per vertex."""
    m = g.m
    if sum(out_deg) != m:
        return None
    net = RecursiveMaxFlow(m + g.n + 2)
    s, t = m + g.n, m + g.n + 1
    first_end = []
    for eid, (u, v) in enumerate(g.edges):
        net.add_edge(s, eid, 1)
        first_end.append(net.add_edge(eid, m + u, 1))
        net.add_edge(eid, m + v, 1)
    for v, d in enumerate(out_deg):
        net.add_edge(m + v, t, d)
    if net.max_flow(s, t) != m:
        return None
    return [
        u if net.flow_on(a) else v for a, (u, v) in zip(first_end, g.edges)
    ]


def network_circulation(
    n: int, arcs: list[tuple[int, int, int, int]]
) -> list[int] | None:
    """Integer circulation with per-arc bounds, or None if infeasible, from
    the bounded circulation network solved by :class:`RecursiveMaxFlow`.

    ``arcs`` holds ``(u, v, low, high)`` tuples; the result assigns each arc
    a value in ``[low, high]`` with exact conservation at every node.
    Standard reduction: route the mandatory lower bounds, add the arcs
    ``u -> v`` of capacity ``high - low`` in order, then ``s -> v`` for every
    node with positive excess and ``v -> t`` for every node with negative
    excess, in node order, and saturate the excesses.
    """
    if any(low > high for (_u, _v, low, high) in arcs):
        return None
    net = RecursiveMaxFlow(n + 2)
    s, t = n, n + 1
    excess = [0] * n
    for (u, v, low, _high) in arcs:
        excess[v] += low
        excess[u] -= low
    ids = [net.add_edge(u, v, high - low) for (u, v, low, high) in arcs]
    for v, x in enumerate(excess):
        if x > 0:
            net.add_edge(s, v, x)
        elif x < 0:
            net.add_edge(v, t, -x)
    if net.max_flow(s, t) != sum(x for x in excess if x > 0):
        return None
    return [low + net.flow_on(a) for a, (_u, _v, low, _high) in zip(ids, arcs)]


def two_network_check_balanced_mincut(
    g: MultiGraph, val: Valuation
) -> BalanceReport:
    """Balance check with one project-selection network per sign: the best
    set of each sign is the residual reach of its source, the larger value
    wins, ties go to the smaller, then lexicographically first, set."""
    den = val.denominator
    best_margin_num = 0
    best_set: tuple[int, ...] | None = None
    for sign in (1, -1):
        weights = [sign * x for x in val.numerators]
        positive_total = sum(w for w in weights if w > 0)
        if positive_total == 0:
            continue
        net = RecursiveMaxFlow(g.n + 2)
        s, t = g.n, g.n + 1
        for v, w in enumerate(weights):
            if w > 0:
                net.add_edge(s, v, w)
            elif w < 0:
                net.add_edge(v, t, -w)
        for (u, v) in g.edges:
            net.add_edge(u, v, den)
            net.add_edge(v, u, den)
        objective = positive_total - net.max_flow(s, t)
        if objective <= 0:
            continue
        chosen = tuple(sorted(net.reachable(s) - {s}))
        if (
            best_set is None
            or objective > best_margin_num
            or (
                objective == best_margin_num
                and (len(chosen), chosen) < (len(best_set), best_set)
            )
        ):
            best_margin_num = objective
            best_set = chosen
    if best_set is None:
        return BalanceReport(True, None, Fraction(0), None)
    return BalanceReport(
        balanced=False,
        violator=best_set,
        margin=Fraction(best_margin_num, den),
        class_difference=_class_difference(val, best_set),
    )


def bit_stream_graph6_edges(record: str) -> list[tuple[int, int]]:
    """Edges of a well-formed graph6 record (no header), by expanding every
    data character into its six bits and walking the upper triangle."""
    if record[0] != "~":
        n, pos = ord(record[0]) - 63, 1
    else:
        n = 0
        for ch in record[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        pos = 4
    bits = []
    for ch in record[pos:]:
        val = ord(ch) - 63
        for shift in range(5, -1, -1):
            bits.append((val >> shift) & 1)
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return edges


def matrix_serialize_graph6(g: MultiGraph) -> str:
    """graph6 record of a simple graph through an n x n adjacency matrix
    and the list of all n(n-1)/2 upper-triangle bits, padded to whole
    characters."""
    seen: set[tuple[int, int]] = set()
    adj = [[False] * g.n for _ in range(g.n)]
    for (u, v) in g.edges:
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError("graph6 cannot encode parallel edges")
        seen.add(key)
        adj[u][v] = adj[v][u] = True
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr(((n >> shift) & 0x3F) + 63) for shift in (12, 6, 0))
    bits: list[int] = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if adj[i][j] else 0)
    while len(bits) % 6:
        bits.append(0)
    body = []
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i : i + 6]:
            val = (val << 1) | b
        body.append(chr(val + 63))
    return head + "".join(body)


@contextmanager
def recursion_headroom(frames: int = 50):
    """Lower Python's recursion limit to ``frames`` above the caller's
    stack depth, and restore it on exit."""
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def on_fresh_thread(fn, *args):
    """``fn(*args)`` run on a new thread, whose stack starts near depth 0,
    with its result returned and its exception raised again here.

    Deep recursive Python code has been measured to run several times
    slower when entered from a deep stack (the recursive oddness search on
    J21: 0.5 s on a fresh thread, 2.0 to 2.7 s inside a pytest test), so
    the recursive references run on one."""
    outcome = {}

    def run():
        try:
            outcome["value"] = fn(*args)
        except BaseException as exc:  # handed to the caller below
            outcome["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()
    thread.join()
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def recursive_solve_nowhere_zero_flow(
    g: MultiGraph, k: int, *, max_work: int | None = 5_000_000
) -> Flow | None:
    """The nowhere-zero k-flow search with one Python frame per decision:
    the same edge picks, value order, work count and integer conversion as
    ``solve_nowhere_zero_flow``."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if g.m == 0:
        return Flow(graph=g, tails=(), values=(), modulus=k)
    m, n = g.m, g.n
    incid: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(g.edges):
        incid[u].append((eid, 1))
        incid[v].append((eid, -1))

    value: list[int | None] = [None] * m
    unassigned = [g.degree(v) for v in range(n)]
    vsum = [0] * n
    work = 0

    def assign(eid: int, val: int, trail: list[int]) -> bool:
        queue = [(eid, val)]
        while queue:
            e, x = queue.pop()
            if value[e] is not None:
                if value[e] != x:
                    return False
                continue
            value[e] = x
            trail.append(e)
            u, v = g.endpoints(e)
            for w, s in ((u, 1), (v, -1)):
                vsum[w] = (vsum[w] + s * x) % k
                unassigned[w] -= 1
            for w in (u, v):
                if unassigned[w] == 0:
                    if vsum[w] % k != 0:
                        return False
                elif unassigned[w] == 1:
                    e2, s2 = next(
                        (e3, s3) for e3, s3 in incid[w] if value[e3] is None
                    )
                    forced = (-vsum[w] * s2) % k
                    if forced == 0:
                        return False
                    queue.append((e2, forced))
        return True

    def undo(trail: list[int]) -> None:
        for e in reversed(trail):
            x = value[e]
            value[e] = None
            u, v = g.endpoints(e)
            for w, s in ((u, 1), (v, -1)):
                vsum[w] = (vsum[w] - s * x) % k
                unassigned[w] += 1

    def pick() -> int | None:
        best = None
        best_key = None
        for e in range(m):
            if value[e] is not None:
                continue
            u, v = g.endpoints(e)
            key = (min(unassigned[u], unassigned[v]), e)
            if best_key is None or key < best_key:
                best, best_key = e, key
        return best

    def search() -> bool:
        nonlocal work
        e = pick()
        if e is None:
            return True
        for x in range(1, k):
            work += 1
            if max_work is not None and work > max_work:
                raise BudgetExceededError(
                    f"flow search exceeded {max_work} assignments"
                )
            trail: list[int] = []
            if assign(e, x, trail) and search():
                return True
            undo(trail)
        return False

    if not search():
        return None
    modular = Flow(
        graph=g,
        tails=tuple(u for (u, _) in g.edges),
        values=tuple(value),  # type: ignore[arg-type]
        modulus=k,
    )
    return mod_to_integer_flow(g, modular, k)


def traced_two_factor_circuits(g: MultiGraph, matching) -> tuple[tuple[int, ...], ...]:
    """Circuits of the complement of a perfect matching: walk each from its
    smallest unvisited vertex, then put its edge set in canonical order with
    ``trace_circuit``."""
    factor = frozenset(range(g.m)) - frozenset(matching)
    visited = [False] * g.n
    circuits = []
    for start in range(g.n):
        if visited[start]:
            continue
        circuit_edges = set()
        v, prev = start, -1
        while True:
            visited[v] = True
            eid, w = next(
                (eid, w) for eid, w in g.incident(v) if eid in factor and eid != prev
            )
            circuit_edges.add(eid)
            prev, v = eid, w
            if v == start:
                break
        circuits.append(trace_circuit(g, circuit_edges)[1])
    return tuple(circuits)


def traced_color12_circuits(g: MultiGraph, c) -> tuple[tuple[int, ...], ...]:
    """Even circuits of the colour-{1,2} subgraph, each traced canonically,
    sorted by smallest vertex."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for eid, (u, v) in enumerate(g.edges):
        if c.colors[eid] in (1, 2):
            adj[u].append((eid, v))
            adj[v].append((eid, u))
    visited = {v for p in c.paths for eid in p for v in g.endpoints(eid)}
    circuits = []
    for v in range(g.n):
        if v in visited:
            continue
        eids = set()
        cur, prev = v, -1
        while True:
            visited.add(cur)
            eid, w = next(t for t in adj[cur] if t[0] != prev)
            eids.add(eid)
            prev, cur = eid, w
            if cur == v:
                break
        circuits.append(trace_circuit(g, eids)[1])
    circuits.sort(key=lambda circ: min(min(g.endpoints(e)) for e in circ))
    return tuple(circuits)


def traced_augmented_circuits(ag) -> tuple[tuple, tuple]:
    """``(closed_circuits, twin_circuits)`` of an augmented graph, every one
    re-traced on the augmented graph."""
    mg, c = ag.graph, ag.coloring
    closed = [
        trace_circuit(mg, set(path) | {pair.closure})[1]
        for path, pair in zip(c.paths, ag.pairs)
    ]
    closed += [trace_circuit(mg, circ)[1] for circ in traced_color12_circuits(ag.base, c)]
    twins = [trace_circuit(mg, {p.closure, p.mate})[1] for p in ag.pairs]
    return tuple(closed), tuple(twins)


def traced_canonical_4flow(ag, flip_closed=None) -> Flow:
    """The canonical 4-flow with every circuit's tails from ``trace_circuit``:
    value 2 around each 2-factor circuit, 1 around each closed circuit, and 1
    around each twin 2-circuit in the direction of its closure edge.  A true
    ``flip_closed[i]`` reverses closed circuit i, and with it its twin."""
    g = ag.graph
    flip_closed = flip_closed or [False] * len(ag.closed_circuits)
    signed = [0] * g.m

    def add(eids, tails, value):
        for eid, tail in zip(eids, tails):
            signed[eid] += value if tail == g.endpoints(eid)[0] else -value

    for circ in ag.coloring.factor.circuits:
        _, eids, tails = trace_circuit(g, circ)
        add(eids, tails, 2)
    for idx, (circ, flip) in enumerate(zip(ag.closed_circuits, flip_closed)):
        _, eids, tails = trace_circuit(g, circ)
        add(eids, tails, -1 if flip else 1)
        if idx < len(ag.pairs):
            pair = ag.pairs[idx]
            t = tails[eids.index(pair.closure)]
            if flip:
                t = g.other_end(pair.closure, t)
            add((pair.closure, pair.mate), (t, g.other_end(pair.closure, t)), 1)
    return make_flow(g, signed, 4)


def flow_built_partition_variants(ag, base_flow):
    """Reference for ``engine._partition_variants`` that takes no lemma on
    trust: every reversal and path switch builds its flow with
    ``reverse_flow`` or ``switch_path`` and partitions that flow again."""
    z = ag.coloring.missing2
    f = base_flow
    part = flow_partition(ag, f)
    if z and not part.is_white(z[0]):
        f = reverse_flow(f)
        part = flow_partition(ag, f)
    if len(z) == 4 and not part.is_white(z[2]):
        f = switch_path(ag, f, 1)
        part = flow_partition(ag, f)
        if not part.is_white(z[0]) or not part.is_white(z[2]):
            raise InternalInconsistencyError("normalization failed")
    variants = [("primary", part)]
    if z:
        f2 = switch_path(ag, f, 0)
        p2 = flow_partition(ag, f2)
        if not p2.is_white(z[0]):
            p2 = flow_partition(ag, reverse_flow(f2))
        variants.append(("switched", p2))
    for _tag, pv in variants:
        for i in range(len(z) // 2):
            if pv.is_white(z[2 * i]) == pv.is_white(z[2 * i + 1]):
                raise InternalInconsistencyError(
                    "path ends landed in the same partition class"
                )
    return variants


# _COMPLETIONS[k][used]: the colours missing from bitmask ``used``, in every
# order, when k coloured edges meet at a vertex; empty if two share a colour
_COMPLETIONS = [
    [
        [bytes(p) for p in permutations(c for c in range(3) if not used >> c & 1)]
        if bin(used).count("1") == k
        else []
        for used in range(8)
    ]
    for k in range(4)
]


def reference_frontier_colourable(g: MultiGraph, order: list[int], spend):
    """The frontier DP with a vertex's new edges at the back of the word:
    each grown word is the kept colours followed by the new ones, renamed
    by a scan for first appearance.  The same steps, yields and verdict as
    ``structure._frontier_colourable``, which puts the new edges in front."""
    placed = [False] * g.n
    frontier: list[int] = []  # edge ids with exactly one placed end
    states = {b""}
    for v in order:
        placed[v] = True
        incoming = []
        outgoing = []
        for eid, w in g.incident(v):
            if placed[w]:
                incoming.append(frontier.index(eid))
            else:
                outgoing.append(eid)
        keep = [i for i in range(len(frontier)) if i not in incoming]
        frontier = [frontier[i] for i in keep] + outgoing
        completions = _COMPLETIONS[len(incoming)]
        spend(len(states))
        grown = set()
        for state in states:
            used = 0
            for i in incoming:
                used |= 1 << state[i]
            head = bytes(map(state.__getitem__, keep))
            for tail in completions[used]:
                grown.add(reference_renamed(head + tail))
        states = grown
        yield len(states)
        if not states:
            return


def reference_frontier_order(
    g: MultiGraph, start: int, fcfs: bool = True
) -> tuple[list[int], list[int]]:
    """The frontier order of ``structure._frontier_order`` by one lazy heap
    per count: ties go to the entry with the least sequence number, pushed
    when a vertex's count rises (``fcfs``), or to the lowest id.  Returns
    the order and the frontier width entering each vertex."""
    placed = [False] * g.n
    placed_edges = [0] * g.n
    heaps: list[list[tuple[int, int]]] = [
        [(-1, start)] + [(v, v) for v in range(g.n) if v != start], [], [], []
    ]
    seq = g.n  # above every count-0 key
    order: list[int] = []
    widths: list[int] = []
    width = 0
    for _ in range(g.n):
        for count in (3, 2, 1, 0):
            heap = heaps[count]
            while heap and (
                placed[heap[0][1]] or placed_edges[heap[0][1]] != count
            ):
                heapq.heappop(heap)  # stale entry: placed, or its count grew
            if heap:
                break
        _, v = heapq.heappop(heap)
        placed[v] = True
        order.append(v)
        widths.append(width)
        for _, w in g.incident(v):
            if placed[w]:
                width -= 1
            else:
                width += 1
                placed_edges[w] += 1
                heapq.heappush(heaps[placed_edges[w]], (seq if fcfs else w, w))
                seq += 1
    return order, widths


def reference_renamed(word: bytes) -> bytes:
    """``word`` with its colours renamed in order of first appearance, by
    one translation table found from its first colour and its first other
    colour: the renaming every step of ``structure._grow`` ends in, and
    the least of the word's six relabelings."""
    return word.translate(
        _FIRST_APPEARANCE[word[:1] + word.lstrip(word[:1])[:1]]
    )


def reference_frontier_profile(
    g: MultiGraph, order: list[int]
) -> list[tuple[int, int]]:
    """The profile ``structure._best_order`` returns with its order, found
    from the order alone: for each vertex v_i, the pair
    (_state_bound(w_i), _GROWTH[k_i]), where w_i is the frontier width
    entering v_i and k_i its edges to earlier vertices."""
    position = [0] * g.n
    for i, v in enumerate(order):
        position[v] = i
    profile = []
    width = 0
    for i, v in enumerate(order):
        k = sum(position[w] < i for _, w in g.incident(v))
        profile.append((_state_bound(width), _GROWTH[k]))
        width += 3 - 2 * k
    return profile


def frontier_widths(g: MultiGraph, order: list[int]) -> list[int]:
    """The frontier width entering each vertex of ``order``."""
    placed = [False] * g.n
    width = 0
    widths = []
    for v in order:
        widths.append(width)
        placed[v] = True
        for _, w in g.incident(v):
            width += -1 if placed[w] else 1
    return widths


def reference_remaining_bound(widths: list[int], i: int, states: int) -> int:
    """The bound of ``structure._remaining_bound``, summed whole from the
    width entering each vertex of an order: ``states`` at its i-th vertex,
    then the recurrence of ``structure._frontier_order``.  A vertex entered
    at width w and left at width w' has (3 + w - w') / 2 edges to placed
    vertices."""
    bound = total = states
    for before, after in zip(widths[i:], widths[i + 1:]):
        k = (3 + before - after) // 2
        bound = min(_state_bound(after), bound * _GROWTH[k])
        total += bound
    return total


def reference_dp_bound(widths: list[int]) -> int:
    """The bound B of ``structure._frontier_order``, summed over a whole
    order: the remaining bound of its first vertex, where the DP holds one
    state."""
    return reference_remaining_bound(widths, 0, 1)


def reference_best_order(g: MultiGraph) -> tuple[list[int], int, int]:
    """``structure._best_order`` with every candidate order built whole:
    the order of least :func:`reference_dp_bound`, the first on ties, its
    bound, and the n units charged per candidate."""
    starts = {i * g.n // _ORDER_STARTS for i in range(_ORDER_STARTS)}
    candidates = [(0, False)] + [(start, True) for start in sorted(starts)]
    scored = []
    for start, fcfs in candidates:
        order, widths = reference_frontier_order(g, start, fcfs)
        scored.append((reference_dp_bound(widths), order))
    bound, order = min(scored, key=lambda item: item[0])
    return order, bound, g.n * len(candidates)


class RecursiveOddnessSearch:
    """The oddness search with one Python frame per matched vertex: the same
    nodes in the same order, the same work count and the same stopping
    rule as ``structure._OddnessSearch``.

    Branch-and-bound over perfect matchings, tracking complement circuits.

    When a vertex gets matched, its two non-matching edges are committed to
    the 2-factor.  The partial 2-factor is a union of paths; a circuit closes
    when an edge joins the two ends of one path, and its parity is then
    final.  A branch dies once its closed odd circuits rule out improving on
    the best complete 2-factor seen so far (odd counts are always even, so
    ``closed_odd >= best - 1`` suffices).

    The search stops at the first complete 2-factor with at most ``floor``
    odd circuits.  ``floor`` starts at 0 and becomes 2 when the frontier DP
    finds no 3-edge-colouring.  With ``dovetailed`` (the default), a node
    entered once the work reaches 4n builds the order of
    ``structure._best_order`` and starts the DP; from then on, each node
    steps it one vertex at a time for as long as the search's own units
    (all units but the DP's) are at least the DP's.  While the best
    2-factor has two odd circuits, the DP runs ahead to its verdict at once
    if :func:`reference_remaining_bound` from the states it holds is at
    most the search's own units.  That is checked when such a 2-factor is
    found and before each step, but after a failed check not again until
    the search's own units have grown by n.  With ``ahead=False`` the DP
    never runs ahead.  With ``dovetailed=False`` the older gate runs
    instead: at n units the node computes the lowest-id order and
    :func:`reference_dp_bound` of it, and the DP runs whole at the first
    node the work reaches that bound.
    Pruning only drops branches that cannot beat ``best``, so the first
    such 2-factor in DFS order is always visited and is the same witness an
    exhaustive search returns, whichever rule runs the DP.

    With ``forced`` (the default), a child then matches each unmatched
    vertex left with two 2-factor edges along its third edge, in the order
    they got their second 2-factor edge, one unit each.  With
    ``forced=False`` such a vertex waits until the DFS reaches it: the same
    2-factors in the same order, for more work.

    With ``probed`` (the default), a node entered once the work reaches
    ``probe_at`` (first 4n) runs the barrier test of :meth:`_barrier`.  A
    node with a barrier dies, and so does each ancestor that still has a
    child to try while the test holds there; the first ancestor that passes
    tries its next child and sets the next probe ``interval`` units on.  A
    probe that finds no barrier doubles ``interval``.  With
    ``probed=False`` no probe runs: the same 2-factors in the same order,
    for other work.
    """

    def __init__(
        self,
        g: MultiGraph,
        max_work: int | None,
        forced: bool = True,
        probed: bool = True,
        dovetailed: bool = True,
        ahead: bool = True,
    ):
        self.g = g
        self.max_work = max_work
        self.forced = forced
        self.dovetailed = dovetailed
        self.ahead = ahead
        self.interval = 4 * g.n
        self.probe_at = self.interval if probed else math.inf
        self.unwinding = False
        self.work = 0
        self.best: int | None = None
        self.best_matching: frozenset[int] | None = None
        n = g.n
        self.matched = [False] * n
        self.in_factor = [False] * g.m
        # path bookkeeping for the partial 2-factor
        self.path_end = list(range(n))  # far end of the path, for end vertices
        self.path_len = [0] * n  # edge count of the path, stored at its ends
        self.is_end = [True] * n
        self.closed_odd = 0
        self.found_any = False
        self.floor = 0
        # the work at which a node next looks at the DP
        self.gate: int | float = 4 * n if dovetailed else n
        self.dp = None  # the dovetailed DP's steps, once started
        self.dp_work = 0  # the units the dovetailed DP has spent
        self.dp_widths: list[int] = []  # the frontier widths of its order
        self.dp_held = 1  # the states it holds
        self.dp_placed = 0  # the vertices of its order it has placed
        self.check_at = 0  # the search's own units before the next check
        self.order: list[int] | None = None  # the gated DP's order

    def run(self) -> None:
        try:
            self._extend(0)
        except _StopSearch:
            pass

    def _spend(self, units: int) -> None:
        self.work += units
        if self.max_work is not None and self.work > self.max_work:
            raise BudgetExceededError(
                f"oddness search exceeded {self.max_work} work units"
            )

    def _tick(self) -> None:
        self._spend(1)
        if self.work >= self.gate:
            if self.dovetailed:
                self._step_dp()
            else:
                self._open_gate()

    def _dp_spend(self, units: int) -> None:
        self.dp_work += units
        self._spend(units)

    def _step_dp(self) -> None:
        if self.dp is None:
            order, _ = _best_order(self.g, self._spend)
            self.dp = _frontier_colourable(self.g, order, self._dp_spend)
            self.dp_widths = frontier_widths(self.g, order)
        while self.work - self.dp_work >= self.dp_work:
            own = self.work - self.dp_work
            if self.ahead and self.best == 2 and own >= self.check_at:
                self._run_ahead()
                if self.gate == math.inf:
                    return
                continue
            self.dp_held = next(self.dp)
            self.dp_placed += 1
            if not self.dp_held or self.dp_placed == self.g.n:
                self.gate = math.inf
                self._settle(self.dp_held > 0)
                return

    def _run_ahead(self) -> None:
        """Run the DP to its verdict if its remaining bound fits in the
        search's own units; else check again n of them later."""
        own = self.work - self.dp_work
        rest = reference_remaining_bound(
            self.dp_widths, self.dp_placed, self.dp_held
        )
        if rest > own:
            self.check_at = own + self.g.n
            return
        self.gate = math.inf
        self._settle(all(self.dp))

    def _open_gate(self) -> None:
        if self.order is None:
            self.order, widths = reference_frontier_order(self.g, 0, fcfs=False)
            self.gate = reference_dp_bound(widths)
            if self.gate > self.work:
                return
        self.gate = math.inf
        self._settle(all(_frontier_colourable(self.g, self.order, self._spend)))

    def _settle(self, colourable: bool) -> None:
        if not colourable:
            self.floor = 2
            if self.best is not None and self.best <= self.floor:
                raise _StopSearch

    def _barrier(self, v: int) -> bool:
        """Whether a component of G[U], U the unmatched vertices, has odd
        order, or is bipartite with colour classes of unequal size.  The
        components are taken in order of their lowest vertex, and each one
        up to the first such component costs a unit per vertex."""
        g = self.g
        seen: dict[int, int] = {}
        barrier = False
        for root in range(v, g.n):
            if self.matched[root] or root in seen:
                continue
            side = {root: 0}
            todo = [root]
            bipartite = True
            while todo:
                x = todo.pop()
                for _, y in g.incident(x):
                    if self.matched[y]:
                        continue
                    if y not in side:
                        side[y] = 1 - side[x]
                        todo.append(y)
                    elif side[y] == side[x]:
                        bipartite = False
            seen.update(side)
            ones = sum(side.values())
            if len(side) % 2 == 1 or (bipartite and 2 * ones != len(side)):
                barrier = True
                break
        self._spend(len(seen))
        return barrier

    def _add_factor_edge(self, a: int, b: int, trail: list) -> bool:
        """Commit edge (a, b) to the 2-factor; False when an odd circuit
        closes and the branch is already hopeless."""
        if self.is_end[a] and self.path_end[a] == b and self.is_end[b]:
            # closing a circuit
            length = self.path_len[a] + 1
            trail.append(("close", a, b))
            self.is_end[a] = self.is_end[b] = False
            if length % 2 == 1:
                self.closed_odd += 1
                if self.best is not None and self.closed_odd >= self.best - 1:
                    return False
            return True
        ea, eb = self.path_end[a], self.path_end[b]
        new_len = self.path_len[a] + self.path_len[b] + 1
        trail.append(
            ("merge", a, b, ea, eb, self.path_len[ea], self.path_len[eb])
        )
        if a != ea:
            self.is_end[a] = False
        if b != eb:
            self.is_end[b] = False
        self.path_end[ea] = eb
        self.path_end[eb] = ea
        self.path_len[ea] = self.path_len[eb] = new_len
        return True

    def _undo(self, trail: list) -> None:
        for rec in reversed(trail):
            if rec[0] == "close":
                _, a, b = rec
                self.is_end[a] = self.is_end[b] = True
                if (self.path_len[a] + 1) % 2 == 1:
                    self.closed_odd -= 1
            else:
                _, a, b, ea, eb, la, lb = rec
                self.is_end[a] = True
                self.is_end[b] = True
                self.path_end[ea] = a
                self.path_len[ea] = la
                self.path_end[eb] = b
                self.path_len[eb] = lb
                self.path_end[a] = ea
                self.path_end[b] = eb

    def _extend(self, lo: int) -> None:
        """Match the lowest unmatched vertex; every vertex below ``lo`` is
        already matched."""
        g = self.g
        v = next((u for u in range(lo, g.n) if not self.matched[u]), None)
        if v is None:
            self.found_any = True
            total = self.closed_odd
            if self.best is None or total < self.best:
                self.best = total
                self.best_matching = frozenset(
                    eid
                    for eid in range(g.m)
                    if not self.in_factor[eid]
                )
                if self.best <= self.floor:
                    raise _StopSearch
                if self.ahead and self.best == 2 and self.dp is not None:
                    if self.gate != math.inf:  # the DP is still running
                        self._run_ahead()
            return
        self._tick()
        if (
            self.best is not None
            and self.closed_odd >= self.best - 1
        ):
            return
        if self.work >= self.probe_at:
            if self._barrier(v):
                self.unwinding = True
                return
            self.interval *= 2
            self.probe_at = self.work + self.interval
        for eid, w in g.incident(v):
            if self.matched[w]:
                continue
            if self.unwinding:
                # a descendant had a barrier; so may this node
                if self._barrier(v):
                    return
                self.unwinding = False
                self.probe_at = self.work + self.interval
            pairs: list = []
            factor_added: list = []
            trail: list = []
            if self._match(v, w, eid, pairs, factor_added, trail):
                self._extend(v + 1)
            self._undo(trail)
            for e2 in factor_added:
                self.in_factor[e2] = False
            for a, b in pairs:
                self.matched[a] = self.matched[b] = False

    def _match(self, v, w, eid, pairs, factor_added, trail) -> bool:
        """Match (v, w) along ``eid``, commit the other edges at v and w to
        the 2-factor, then make the forced matches; False when the branch
        dies.  Every change is logged for the caller to undo."""
        g = self.g
        forced: list = []
        while True:
            self.matched[v] = self.matched[w] = True
            pairs.append((v, w))
            for x in (v, w):
                for e2, y in g.incident(x):
                    if e2 == eid or self.in_factor[e2]:
                        continue
                    if not self.is_end[y]:
                        # y already has two 2-factor edges
                        return False
                    self.in_factor[e2] = True
                    factor_added.append(e2)
                    p, q = g.endpoints(e2)
                    if not self._add_factor_edge(p, q, trail):
                        return False
                    if not self.is_end[y]:
                        forced.append(y)
            if not self.forced:
                return True
            while forced:
                v = forced.pop(0)
                if not self.matched[v]:
                    break
            else:
                return True
            eid, w = next((e, z) for e, z in g.incident(v) if not self.in_factor[e])
            self._spend(1)


class _StopSearch(Exception):
    pass


def recursive_oddness(
    g: MultiGraph,
    max_work: int | None = None,
    forced: bool = True,
    probed: bool = True,
    dovetailed: bool = True,
    ahead: bool = True,
):
    """``(oddness, witness matching, work)`` of the recursive search."""
    search = RecursiveOddnessSearch(g, max_work, forced, probed, dovetailed, ahead)
    search.run()
    return search.best, search.best_matching, search.work


def recursive_enumerate_two_factors(g: MultiGraph):
    """Every perfect matching of a cubic graph, as a frozenset of edge ids,
    by one Python frame per matched vertex: the lowest unmatched vertex
    first, its incident edges in ascending id order."""
    matched = [False] * g.n
    chosen: list[int] = []

    def rec():
        v = next((u for u in range(g.n) if not matched[u]), None)
        if v is None:
            yield frozenset(chosen)
            return
        matched[v] = True
        for eid, w in g.incident(v):
            if matched[w]:
                continue
            matched[w] = True
            chosen.append(eid)
            yield from rec()
            chosen.pop()
            matched[w] = False
        matched[v] = False

    yield from rec()
