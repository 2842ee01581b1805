"""2-factor enumeration, oddness, and cyclic edge-connectivity of cubic graphs.

A 2-factor of a cubic graph is the complement of a perfect matching, so both
are enumerated by deterministic backtracking over ascending edge ids.  The
oddness search additionally tracks circuits of the complement as they close
and prunes branches that can no longer beat the current best; a dynamic
program over a vertex order's frontier decides 3-edge-colourability, which
lets that search stop before exhausting the matchings of a snark.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from itertools import permutations
from typing import Iterator

from .errors import BudgetExceededError, InternalInconsistencyError
from .graph import EdgeCut, MultiGraph, walk_circuit
from .symmetry import automorphisms, orbits


@dataclass(frozen=True)
class TwoFactor:
    """A perfect matching together with its complementary 2-factor.

    ``circuits`` lists the circuits of the 2-factor, each as a tuple of edge
    ids in the canonical traversal order of :func:`~nzflow.graph.trace_circuit`
    (from the smallest vertex toward its smaller neighbor), ordered by their
    smallest vertex.  Later stages read tails off these tuples without
    tracing again, so :func:`~nzflow.coloring.canonical_coloring` rejects a
    hand-built TwoFactor whose circuits break this order.
    """

    matching: frozenset[int]
    factor: frozenset[int]
    circuits: tuple[tuple[int, ...], ...]
    odd_count: int


@dataclass(frozen=True)
class OddnessResult:
    oddness: int
    witness: TwoFactor


def two_factor_from_matching(g: MultiGraph, matching) -> TwoFactor:
    """Build the TwoFactor whose matching is the given edge id set."""
    matching = frozenset(int(e) for e in matching)
    cover = [0] * g.n
    for eid in matching:
        u, v = g.endpoints(eid)
        cover[u] += 1
        cover[v] += 1
    if any(c != 1 for c in cover):
        raise ValueError("edge set is not a perfect matching")
    factor = frozenset(range(g.m)) - matching
    local: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for eid, (u, v) in enumerate(g.edges):
        if eid in matching:
            continue
        local[u].append((eid, v))
        local[v].append((eid, u))
    if any(len(inc) != 2 for inc in local):
        raise ValueError("complement of the matching is not 2-regular")
    # each unvisited vertex is the smallest of its circuit, where the
    # canonical walk starts
    visited = [False] * g.n
    circuits = []
    for start in range(g.n):
        if visited[start]:
            continue
        vertices, edges, _ = walk_circuit(local, start)
        for v in vertices:
            visited[v] = True
        circuits.append(edges)
    odd = sum(1 for c in circuits if len(c) % 2 == 1)
    return TwoFactor(
        matching=matching,
        factor=factor,
        circuits=tuple(circuits),
        odd_count=odd,
    )


def _require_cubic(g: MultiGraph) -> None:
    bad = [v for v in range(g.n) if g.degree(v) != 3]
    if bad:
        raise ValueError(f"graph is not cubic (first offender: vertex {bad[0]})")


def enumerate_two_factors(g: MultiGraph) -> Iterator[TwoFactor]:
    """Yield every matching/2-factor pair of a cubic graph, exactly once.

    Deterministic order: the search always matches the lowest unmatched
    vertex and tries its incident edges in ascending id order.
    """
    _require_cubic(g)
    matched = [False] * g.n
    chosen: list[int] = []

    def rec() -> Iterator[TwoFactor]:
        v = next((u for u in range(g.n) if not matched[u]), None)
        if v is None:
            yield two_factor_from_matching(g, chosen)
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


def _frontier_order(g: MultiGraph) -> tuple[list[int], list[int]]:
    """Vertex order for the frontier DP, and the frontier width entering
    each vertex (the number of edges with exactly one placed end).

    The next vertex is the one with the most edges to placed vertices,
    lowest id on ties; one lazy heap per count keeps this O(m log n).
    """
    placed = [False] * g.n
    placed_edges = [0] * g.n
    heaps: list[list[int]] = [list(range(g.n)), [], [], []]
    order: list[int] = []
    widths: list[int] = []
    width = 0
    for _ in range(g.n):
        for count in (3, 2, 1, 0):
            heap = heaps[count]
            while heap and (placed[heap[0]] or placed_edges[heap[0]] != count):
                heapq.heappop(heap)  # stale entry: placed, or its count grew
            if heap:
                break
        v = heapq.heappop(heap)
        placed[v] = True
        order.append(v)
        widths.append(width)
        for _, w in g.incident(v):
            if placed[w]:
                width -= 1
            else:
                width += 1
                placed_edges[w] += 1
                heapq.heappush(heaps[placed_edges[w]], w)
    return order, widths


def _state_bound(width: int) -> int:
    """Upper bound on the DP's states over a frontier of ``width`` edges.

    By the parity lemma every colour appears on the frontier a number of
    times congruent to ``width`` mod 2.  There are (3^w + 3(-1)^w)/4 such
    words and, by Burnside, (3^w + 15)/24 classes under colour renaming for
    even w >= 2, (3^w - 3)/24 for odd w and 1 for w = 0: this bound equals
    the count for even w and exceeds it by one for odd w.
    """
    return (3**width + 3) // 24 + 1


# the six relabelings of colours 0, 1, 2, as bytes.translate tables
_RENAMINGS = [bytes(p) + bytes(253) for p in permutations(range(3))]
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


def _frontier_colourable(g: MultiGraph, order: list[int], spend) -> bool:
    """3-edge-colourability by dynamic programming along ``order``.

    A state colours the frontier edges (bytes, in frontier order) and is
    stored with its colours renamed by first appearance, the least of its
    six relabelings.  Placing a vertex checks the colours of its edges to
    placed vertices and gives its other edges the remaining colours in
    every order.  ``spend(k)`` is charged one unit per state expanded.
    ``MultiGraph`` has no loops, so every edge has two distinct ends.
    """
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
                word = head + tail
                grown.add(min(word.translate(r) for r in _RENAMINGS))
        if not grown:
            return False
        states = grown
    return True


def three_edge_colourable(g: MultiGraph) -> bool:
    """Whether the cubic graph ``g`` has a proper 3-edge-colouring.

    A dynamic program over the frontier of :func:`_frontier_order`; its
    cost is at most the sum of :func:`_state_bound` over the frontier
    widths, and on graphs such as flower snarks that frontier stays narrow.
    """
    _require_cubic(g)
    order, _ = _frontier_order(g)
    return _frontier_colourable(g, order, lambda units: None)


class _OddnessSearch:
    """Branch-and-bound over perfect matchings, tracking complement circuits.

    When a vertex gets matched, its two non-matching edges are committed to
    the 2-factor.  The partial 2-factor is a union of paths; a circuit closes
    when an edge joins the two ends of one path, and its parity is then
    final.  A branch dies once its closed odd circuits rule out improving on
    the best complete 2-factor seen so far (odd counts are always even, so
    ``closed_odd >= best - 1`` suffices).

    The search stops at the first complete 2-factor with at most ``floor``
    odd circuits.  ``floor`` starts at 0; once the work reaches an upper
    bound on the cost of the frontier DP, the DP runs once, and if the
    graph has no 3-edge-colouring ``floor`` becomes 2.  Pruning only drops
    branches that cannot beat ``best``, so the first such 2-factor in DFS
    order is always visited and is the same witness an exhaustive search
    returns.
    """

    def __init__(self, g: MultiGraph, max_work: int | None):
        self.g = g
        self.max_work = max_work
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
        # the DP expands at least one state per vertex, so its bound is
        # worth computing only once the search has spent n units
        self.gate: int | None = n
        self.order: list[int] | None = None

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
        if self.work == self.gate:
            self._open_gate()

    def _open_gate(self) -> None:
        if self.order is None:
            self.order, widths = _frontier_order(self.g)
            self.gate = sum(_state_bound(w) for w in widths)
            if self.gate > self.work:
                return
        self.gate = None
        if not _frontier_colourable(self.g, self.order, self._spend):
            self.floor = 2
            if self.best is not None and self.best <= self.floor:
                raise _StopSearch

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
            return
        self._tick()
        if (
            self.best is not None
            and self.closed_odd >= self.best - 1
        ):
            return
        for eid, w in g.incident(v):
            if self.matched[w]:
                continue
            self.matched[v] = self.matched[w] = True
            factor_added = []
            trail: list = []
            ok = True
            for x in (v, w):
                for e2, y in g.incident(x):
                    if e2 == eid or self.in_factor[e2]:
                        continue
                    if not self.is_end[y]:
                        # y already has two 2-factor edges
                        ok = False
                        break
                    self.in_factor[e2] = True
                    factor_added.append(e2)
                    p, q = g.endpoints(e2)
                    if not self._add_factor_edge(p, q, trail):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                self._extend(v + 1)
            self._undo(trail)
            for e2 in factor_added:
                self.in_factor[e2] = False
            self.matched[v] = self.matched[w] = False


class _StopSearch(Exception):
    pass


def compute_oddness(
    g: MultiGraph, *, max_work: int | None = None
) -> OddnessResult:
    """Minimum number of odd circuits over all 2-factors, with a witness.

    A branch-and-bound over perfect matchings in DFS order; the witness is
    the first 2-factor in that order attaining the oddness.  The search
    exits at an all-even 2-factor.  Oddness is 0 exactly when the graph is
    3-edge-colourable and at least 2 otherwise, so once the search has
    spent as many units as the frontier DP of :func:`three_edge_colourable`
    can cost (the sum of :func:`_state_bound` over its frontier widths), the
    DP runs once; if it finds no colouring, the search exits at its first
    2-factor with two odd circuits instead of exhausting every matching.
    Each matching choice and each DP state costs one work unit; more than
    ``max_work`` units raise :class:`BudgetExceededError`.
    """
    _require_cubic(g)
    search = _OddnessSearch(g, max_work)
    search.run()
    if search.best_matching is None:
        if not search.found_any:
            raise InternalInconsistencyError(
                "cubic graph has no perfect matching; "
                "bridgeless cubic graphs always have one"
            )
        raise InternalInconsistencyError("search finished without a witness")
    witness = two_factor_from_matching(g, search.best_matching)
    if witness.odd_count != search.best:
        raise InternalInconsistencyError("witness odd count disagrees with search")
    return OddnessResult(oddness=search.best, witness=witness)


# ---------------------------------------------------------------------------
# cyclic edge-connectivity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CyclicCheck:
    """Outcome of a cyclic k-edge-connectivity test."""

    connected: bool
    witness: EdgeCut | None


@dataclass(frozen=True)
class CyclicConnectivity:
    """Exact cyclic edge-connectivity, or the vacuous verdict.

    ``value`` is None when the graph has no two vertex-disjoint cycles, in
    which case it counts as cyclically k-edge-connected for every k.
    """

    value: int | None
    vacuous: bool
    witness: EdgeCut | None


class _Budget:
    def __init__(self, limit: int | None):
        self.limit = limit
        self.used = 0

    def spend(self, units: int = 1) -> None:
        self.used += units
        if self.limit is not None and self.used > self.limit:
            raise BudgetExceededError(
                f"cyclic connectivity search exceeded {self.limit} work units"
            )


def _adjacency_masks(g: MultiGraph) -> list[int]:
    masks = [0] * g.n
    for (u, v) in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _chordless_cycles(
    g: MultiGraph, max_len: int, budget: _Budget
) -> list[tuple[int, ...]]:
    """All chordless cycles with at most ``max_len`` vertices.

    Cycles are vertex tuples starting at their smallest vertex.  Parallel
    edge pairs contribute 2-circuits.  A path is only extended by vertices
    with no edge back into its interior, so everything emitted is chordless,
    and each cycle appears exactly once (second vertex smaller than last).
    """
    adj = _adjacency_masks(g)
    n = g.n
    neighbors = [sorted(set(w for _, w in g.incident(v))) for v in range(n)]
    cycles: list[tuple[int, ...]] = []

    seen_pairs: dict[tuple[int, int], int] = {}
    for (u, v) in g.edges:
        key = (min(u, v), max(u, v))
        seen_pairs[key] = seen_pairs.get(key, 0) + 1
    for (u, v), cnt in sorted(seen_pairs.items()):
        if cnt >= 2:
            cycles.append((u, v))

    for v0 in range(n):
        bit0 = 1 << v0
        stack: list[tuple[list[int], int]] = []
        for w in neighbors[v0]:
            if w > v0:
                stack.append(([v0, w], bit0 | (1 << w)))
        while stack:
            path, mask = stack.pop()
            budget.spend()
            last = path[-1]
            inner = mask & ~bit0 & ~(1 << last)
            for y in neighbors[last]:
                if y <= v0 or (mask >> y) & 1:
                    continue
                if adj[y] & inner:
                    continue  # chord back into the path interior
                if adj[y] & bit0:
                    if len(path) >= 2 and path[1] < y:
                        cycles.append(tuple(path + [y]))
                    # any extension through y would keep the chord y-v0
                    continue
                if len(path) + 1 < max_len:
                    stack.append((path + [y], mask | (1 << y)))
    cycles.sort(key=lambda c: (len(c), c))
    return cycles


class _UnitCuts:
    """Minimum edge cuts between disjoint vertex sets of one graph.

    Built once per graph: every non-loop edge ``e = (u, v)`` becomes the
    unit arcs ``2e`` (u -> v) and ``2e + 1`` (v -> u).  A cut query keeps one
    flow list over the arcs and grows the flow by breadth-first augmenting
    paths from every vertex of one set at once, each ending at the first
    vertex of the other set it reaches; that is max-flow on the graph with
    both sets contracted, without building the contracted network.
    """

    def __init__(self, g: MultiGraph):
        self.out: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
        self.head = [0] * (2 * g.m)
        for eid, (u, v) in enumerate(g.edges):
            if u == v:
                continue
            self.out[u].append((2 * eid, v))
            self.out[v].append((2 * eid + 1, u))
            self.head[2 * eid] = v
            self.head[2 * eid + 1] = u
        # an arc carries flow only while its reverse does not: augmenting
        # along the reverse of a used arc cancels the flow instead
        self.flow = [0] * (2 * g.m)
        self.is_sink = [False] * g.n
        # search number `stamp` has visited v when seen[v] == stamp, and
        # reached it along arc via[v] (-1 for the source vertices)
        self.seen = [0] * g.n
        self.via = [0] * g.n
        self.stamp = 0

    def min_cut(
        self,
        side_a: tuple[int, ...],
        side_b: tuple[int, ...],
        limit: int | None = None,
    ) -> tuple[int, frozenset[int] | None]:
        """Size and source side of a minimum cut separating the two sets.

        The side is everything reachable from ``side_a`` in the residual
        graph of a maximum flow: the inclusion-minimal minimum-cut side,
        the same for every maximum flow.  Once the flow reaches ``limit``
        the search stops and returns ``(limit, None)``.
        """
        out, head, flow, is_sink = self.out, self.head, self.flow, self.is_sink
        seen, via = self.seen, self.via
        for v in side_b:
            is_sink[v] = True
        used: list[int] = []
        value = 0
        side = None
        while limit is None or value < limit:
            self.stamp += 1
            stamp = self.stamp
            for v in side_a:
                seen[v] = stamp
                via[v] = -1
            queue = list(side_a)
            t = -1
            for v in queue:
                for arc, w in out[v]:
                    if seen[w] != stamp and not flow[arc]:
                        seen[w] = stamp
                        via[w] = arc
                        if is_sink[w]:
                            t = w
                            break
                        queue.append(w)
                if t >= 0:
                    break
            if t < 0:
                side = frozenset(queue)  # every vertex the search reached
                break
            value += 1
            arc = via[t]
            while arc >= 0:
                if flow[arc ^ 1]:
                    flow[arc ^ 1] = 0
                else:
                    flow[arc] = 1
                    used.append(arc)
                arc = via[head[arc ^ 1]]
        for arc in used:
            flow[arc] = 0
        for v in side_b:
            is_sink[v] = False
        return value, side


def _edge_connectivity(
    g: MultiGraph, cuts: _UnitCuts, limit: int, budget: _Budget
) -> int:
    """The edge-connectivity of ``g``, or ``limit`` if it is not smaller.

    Every edge cut separates vertex 0 from some other vertex, so it is the
    least of the n - 1 cuts between vertex 0 and each other vertex, each
    flow stopped at the least cut so far.  Each flow costs 4 work units.
    """
    least = limit
    for v in range(1, g.n):
        if least == 0:
            break
        budget.spend(4)
        least, _ = cuts.min_cut((0,), (v,), least)
    return least


# The sweeps of one call search for automorphisms once they have tried this
# many cycle pairs per vertex.  Measured against the mean pair of the same
# graph, the search costs 0.3 to 1.7 pairs per vertex from 30 vertices up
# (flower snarks, GP(40, 2), random cubic graphs with a trivial group) and
# up to 3.8 below 20, so waiting about as long as the search would take
# bounds what a graph that stops soon after pays for it.  No graph of the
# 109-graph corpus (at most 2.6 pairs per vertex) reaches it.
_GROUP_AFTER = 3


class _Symmetry:
    """The automorphisms of one graph, searched for once, when the sweeps
    of one call have tried ``_GROUP_AFTER`` pairs per vertex; the search
    spends 4 units of the call's budget per node."""

    def __init__(self, g: MultiGraph, budget: _Budget):
        self.g = g
        self.budget = budget
        self.pairs = 0
        self.gens: list[list[int]] | None = None

    def orbit_firsts(
        self, cycles: list[tuple[int, ...]], count: int
    ) -> list[bool] | None:
        """Whether each of the first ``count`` cycles comes first in its
        orbit, or None while the group is not known."""
        if self.gens is None:
            if self.pairs < _GROUP_AFTER * self.g.n:
                return None
            self.gens = automorphisms(self.g, lambda: self.budget.spend(4))
        # automorphisms keep lengths, so the first ``count`` cycles (sorted
        # by length, ``count`` at a length boundary) are closed under them;
        # a chordless cycle is its vertex set's induced subgraph
        head = cycles[:count]
        index = {frozenset(c): i for i, c in enumerate(head)}
        least = orbits(count, [
            [index[frozenset(gamma[v] for v in c)] for c in head] for gamma in self.gens
        ])
        return [least[i] == i for i in range(count)]


def _cycle_pair_sweep(
    g: MultiGraph,
    cycles: list[tuple[int, ...]],
    small_cap: int,
    budget: _Budget,
    stop_below: int | None,
    symmetry: _Symmetry,
) -> tuple[int | None, frozenset[int] | None]:
    """Minimum cut over disjoint cycle pairs; early exit below ``stop_below``.

    ``cycles`` is sorted by length, and the first cycle of every pair is at
    most ``small_cap`` long.  A pair's flow stops growing once it reaches
    the best cut so far, since that pair can no longer lower the minimum.
    Every cut between two cycles is an edge cut, so the sweep also stops
    once the best cut equals the graph's edge-connectivity, which is
    computed the first time the best cut is at most the minimum degree.
    Once ``symmetry`` knows the automorphisms, a first cycle that is not
    the first of its orbit is skipped (see :func:`cyclic_connectivity`).
    """
    best: int | None = None
    best_side: frozenset[int] | None = None
    floor: int | None = None  # the edge-connectivity, once computed
    min_degree = min(g.degrees(), default=0)
    cuts = _UnitCuts(g)
    # bit j of through[v] is set when cycle j passes through v, so the
    # cycles disjoint from cycle i are the bits that no vertex of i sets
    through = [0] * g.n
    for j, c in enumerate(cycles):
        for v in c:
            through[v] |= 1 << j
    everything = (1 << len(cycles)) - 1
    outer = bisect_right([len(c) for c in cycles], small_cap)
    firsts = None
    for i in range(outer):
        if firsts is None:
            firsts = symmetry.orbit_firsts(cycles, outer)
        if firsts is not None and not firsts[i]:
            continue
        hit = 0
        for v in cycles[i]:
            hit |= through[v]
        later = (everything ^ hit) >> i  # bit d stands for cycle i + d
        symmetry.pairs += later.bit_count()
        while later:
            low = later & -later
            later ^= low
            j = i + low.bit_length() - 1
            budget.spend(4)
            value, side = cuts.min_cut(cycles[i], cycles[j], best)
            if best is None or value < best:
                best = value
                best_side = side
                if stop_below is not None and best < stop_below:
                    return best, best_side
                if floor is None and best <= min_degree:
                    floor = _edge_connectivity(g, cuts, best, budget)
                if best == floor:
                    return best, best_side
    return best, best_side


def _moore_girth(order: int) -> int:
    """The largest girth a cubic multigraph on ``order`` vertices can have
    by the Moore bound, and 0 for the empty graph.

    A cubic multigraph of girth at least 2r + 1 has at least
    n0(3, 2r + 1) = 3 * 2^r - 2 vertices (the ball of radius r around a
    vertex is a tree), and one of girth at least 2r has at least
    n0(3, 2r) = 2^(r + 1) - 2 (the same around an edge).  Loops and
    parallel edges give girth 1 and 2, which the same counts allow.
    """
    g = 0
    while True:
        r, odd = divmod(g + 1, 2)
        if (3 * 2**r - 2 if odd else 2 ** (r + 1) - 2) > order:
            return g
        g += 1


def _side_caps(g: MultiGraph, cut_size: int) -> tuple[int, int]:
    """Lengths ``(small, large)`` such that, if ``g`` has a cycle-separating
    cut of at most ``cut_size`` edges, then some minimum one separates a
    chordless cycle of at most ``small`` vertices from one of at most
    ``large``.

    Lemma.  Let G be cubic and S a vertex set with exactly c edges leaving
    it whose induced subgraph G[S] is connected and has a cycle.  Then S
    holds a chordless cycle of at most c + m(|S| - c) vertices, where m is
    :func:`_moore_girth`.

    Proof.  Counting degrees, G[S] has (3|S| - c)/2 edges, so its
    cyclomatic number is (|S| - c)/2 + 1 >= 1 and |S| >= c.  Prune its
    pendant trees, leaving its core, in which every vertex has degree 2 or
    3.  The core loses 3 - d degrees at a vertex of core degree d, and
    those degrees belong to cut edges or to pendant trees.  A pendant tree
    on t vertices, hanging from one core vertex, has t - 1 inner edges and
    one edge to the core; its vertices have 3t degrees, so t + 1 >= 2 of
    its edges are cut edges.  A core vertex of degree 2 has either a cut
    edge or one pendant tree, so the core has at most c of them.
    Suppressing them leaves a cubic multigraph H with the same cyclomatic
    number, so on 2((|S| - c)/2 + 1) - 2 = |S| - c vertices; if that is
    0, the core is a single cycle through at most c vertices.
    Otherwise H has a cycle of at most m(|S| - c) edges, which runs
    through as many vertices of H and at most c suppressed ones: a cycle
    of G[S] with at most c + m(|S| - c) vertices.  A shortest cycle of
    G[S] is chordless, since a chord would lie in G[S] and close a
    shorter one.

    Sides.  Let c now be the cyclic edge-connectivity.  If G is
    connected, both sides of a minimum cycle-separating cut are
    connected: were S a union of parts S1, S2 with no edge between them,
    S1 having a cycle, then the edges leaving S1 would separate that cycle
    from the other side's with fewer edges, since some edge leaves S2.  If
    G is disconnected, c = 0, and two components with cycles serve as S
    and T.  Either way S and T are disjoint, so the smaller has at most
    n // 2 vertices and, as each has at least c, the larger at most n - c.
    As m grows with the order, the smaller side has a chordless cycle of
    at most c + m(n // 2 - c) vertices and the larger one of at most
    c + m(n - 2c).  The cut between those two cycles is at most c, since
    S separates them, and at least c, since it separates two cycles.

    The caps are the maxima of these bounds over every c <= ``cut_size``
    and c <= n // 2 (the smaller side has at least c vertices).  The lemma
    counts degrees, so on graphs that are not cubic both caps are n: no
    cycle is dropped.
    """
    n = g.n
    if any(d != 3 for d in g.degrees()):
        return n, n
    small = large = 0
    for c in range(min(cut_size, n // 2) + 1):
        small = max(small, c + _moore_girth(n // 2 - c))
        large = max(large, c + _moore_girth(n - 2 * c))
    return small, large


def _capped_sweep(
    g: MultiGraph,
    cut_size: int,
    budget: _Budget,
    stop_below: int | None,
    symmetry: _Symmetry,
) -> tuple[int | None, frozenset[int] | None]:
    """The sweep over the chordless cycles that :func:`_side_caps` keeps
    for cuts of at most ``cut_size`` edges."""
    small, large = _side_caps(g, cut_size)
    cycles = _chordless_cycles(g, large, budget)
    return _cycle_pair_sweep(g, cycles, small, budget, stop_below, symmetry)


def is_cyclically_k_connected(
    g: MultiGraph, k: int, *, max_work: int | None = 2_000_000
) -> CyclicCheck:
    """Whether every edge cut separating two cycles has at least k edges.

    On failure the witness is a cycle-separating cut with fewer than k edges.
    Graphs without two vertex-disjoint cycles are vacuously k-connected for
    every k.  A cut of fewer than k edges, if there is one, is found among
    the chordless cycles that :func:`_side_caps` keeps for k - 1.  The
    sweep skips first cycles outside their orbit's first as
    :func:`cyclic_connectivity` does, under the same budget; being below
    k is kept by automorphisms, so the verdict and witness do not change.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    budget = _Budget(max_work)
    value, side = _capped_sweep(
        g, k - 1, budget, stop_below=k, symmetry=_Symmetry(g, budget)
    )
    if value is not None and value < k:
        cut = frozenset(
            eid for eid, (u, v) in enumerate(g.edges) if (u in side) != (v in side)
        )
        return CyclicCheck(False, EdgeCut(side=tuple(sorted(side)), edges=cut))
    return CyclicCheck(True, None)


def girth(g: MultiGraph) -> int | None:
    """Length of a shortest cycle, or None for forests.  BFS per vertex."""
    pair_counts: dict[tuple[int, int], int] = {}
    for (u, v) in g.edges:
        key = (min(u, v), max(u, v))
        pair_counts[key] = pair_counts.get(key, 0) + 1
    if any(c >= 2 for c in pair_counts.values()):
        return 2
    best: int | None = None
    for root in range(g.n):
        dist = {root: 0}
        parent_edge = {root: -1}
        queue = [root]
        qi = 0
        while qi < len(queue):
            v = queue[qi]
            qi += 1
            if best is not None and dist[v] * 2 >= best:
                break
            for eid, w in g.incident(v):
                if eid == parent_edge[v]:
                    continue
                if w in dist:
                    length = dist[v] + dist[w] + 1
                    if best is None or length < best:
                        best = length
                else:
                    dist[w] = dist[v] + 1
                    parent_edge[w] = eid
                    queue.append(w)
    return best


def cyclic_connectivity(
    g: MultiGraph, *, max_work: int | None = 2_000_000
) -> CyclicConnectivity:
    """Exact cyclic edge-connectivity via disjoint chordless cycle pairs.

    The minimum cut separating two cycles equals the minimum, over pairs of
    vertex-disjoint chordless cycles, of the max-flow between them after
    contraction.  The sweep builds the graph's unit arcs once and, for each
    pair, grows the flow by augmenting paths from one cycle to the other,
    stopping once it reaches the best cut found so far (such a pair cannot
    lower the minimum).

    Proof of the caps (in full at :func:`_side_caps`).  Both sides of a
    minimum cut of size c are connected.  A side S, with its pendant trees
    pruned and its at most c degree-2 vertices suppressed, is a cubic
    multigraph on |S| - c vertices, whose girth the Moore bound limits; so
    S has a chordless cycle of at most c + m(|S| - c) vertices, with m
    :func:`_moore_girth`.  The smaller side has at most n // 2 vertices
    and the larger at most n - c.  A sweep under the caps for cuts below
    ``upper`` therefore finds any such cut, and a cut of exactly ``upper``
    it finds is minimum.  ``upper`` starts at the girth and rises to the
    sweep's value until the sweep settles at or below it.  Only pairs whose
    first (shorter) cycle is within the smaller side's cap are tried, and
    the sweep stops once its best cut equals the edge-connectivity.

    Orbit representatives.  Once the sweeps have tried 3 pairs per vertex
    (``_GROUP_AFTER``), :func:`~nzflow.symmetry.automorphisms` gives the
    automorphism group, and from then on a pair's first cycle must be the
    earliest cycle of its orbit.  This keeps the value, the vacuous verdict
    and the witness.  Automorphisms keep cycle lengths, vertex sets and
    disjointness, so the pairs the caps keep, and their cut values, are
    closed under them.  Let P = (C_i, C_j), i < j, be the first pair in
    sweep order with some property that automorphisms keep, such as
    reaching the minimum or being below k.  If an automorphism mapped C_i
    to an earlier cycle C_h, h < i, then {C_h, image of C_j} would be a
    kept pair with the same property, tried before P (its first cycle is
    C_h or an even earlier one); so C_i comes first in its orbit and the
    restricted sweep tries P.  Before P both sweeps keep a best cut above
    P's value (the restricted one tries a subset of the same pairs), so
    both compute P's cut in full; the side is everything the residual
    graph reaches from C_i, the inclusion-minimal minimum-cut side, which
    does not depend on the flow.  After P neither sweep improves.  The
    edge-connectivity stop fires at the first pair whose cut equals it,
    again P.  Any group of automorphisms would do, so the restriction may
    start mid-sweep.

    Every disjoint pair, every flow of the edge-connectivity check and
    every node of the automorphism search costs 4 work units, and every
    extension step of the cycle enumeration 1; more than ``max_work``
    units raise :class:`BudgetExceededError`.
    """
    budget = _Budget(max_work)
    symmetry = _Symmetry(g, budget)
    gi = girth(g)
    if gi is None:
        return CyclicConnectivity(value=None, vacuous=True, witness=None)
    upper = gi
    while True:
        value, side = _capped_sweep(
            g, upper - 1, budget, stop_below=None, symmetry=symmetry
        )
        if value is None:
            # nothing disjoint at these caps: decide vacuity with no cap
            cycles = _chordless_cycles(g, g.n, budget)
            value, side = _cycle_pair_sweep(
                g, cycles, g.n, budget, stop_below=None, symmetry=symmetry
            )
            if value is None:
                return CyclicConnectivity(value=None, vacuous=True, witness=None)
        if value <= upper:
            cut = frozenset(
                eid
                for eid, (u, v) in enumerate(g.edges)
                if (u in side) != (v in side)
            )
            return CyclicConnectivity(
                value=value,
                vacuous=False,
                witness=EdgeCut(side=tuple(sorted(side)), edges=cut),
            )
        upper = value
