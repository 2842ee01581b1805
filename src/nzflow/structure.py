"""2-factor enumeration, oddness, and cyclic edge-connectivity of cubic graphs.

A 2-factor of a cubic graph is the complement of a perfect matching, so both
are enumerated by deterministic backtracking over ascending edge ids.  The
oddness search additionally tracks circuits of the complement as they close
and prunes branches that can no longer beat the current best.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .errors import BudgetExceededError, InternalInconsistencyError
from .graph import EdgeCut, MultiGraph, trace_circuit


@dataclass(frozen=True)
class TwoFactor:
    """A perfect matching together with its complementary 2-factor.

    ``circuits`` lists the circuits of the 2-factor, each as a tuple of edge
    ids in canonical traversal order, ordered by their smallest vertex.
    """

    matching: frozenset[int]
    factor: frozenset[int]
    circuits: tuple[tuple[int, ...], ...]
    odd_count: int

    def parities(self) -> tuple[bool, ...]:
        """True for each odd circuit."""
        return tuple(len(c) % 2 == 1 for c in self.circuits)


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
    # walk the 2-regular complement, one circuit per unvisited vertex
    visited = [False] * g.n
    circuits = []
    for start in range(g.n):
        if visited[start]:
            continue
        circuit_edges = set()
        v, prev = start, -1
        while True:
            visited[v] = True
            nxt = next(
                (eid, w)
                for eid, w in g.incident(v)
                if eid in factor and eid != prev
            )
            circuit_edges.add(nxt[0])
            prev, v = nxt[0], nxt[1]
            if v == start:
                break
        _, edges, _ = trace_circuit(g, circuit_edges)
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


class _OddnessSearch:
    """Branch-and-bound over perfect matchings, tracking complement circuits.

    When a vertex gets matched, its two non-matching edges are committed to
    the 2-factor.  The partial 2-factor is a union of paths; a circuit closes
    when an edge joins the two ends of one path, and its parity is then
    final.  A branch dies once its closed odd circuits rule out improving on
    the best complete 2-factor seen so far (odd counts are always even, so
    ``closed_odd >= best - 1`` suffices).
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

    def run(self) -> None:
        try:
            self._extend()
        except _StopSearch:
            pass

    def _tick(self) -> None:
        self.work += 1
        if self.max_work is not None and self.work > self.max_work:
            raise BudgetExceededError(
                f"oddness search exceeded {self.max_work} work units"
            )

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

    def _extend(self) -> None:
        g = self.g
        v = next((u for u in range(g.n) if not self.matched[u]), None)
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
                if self.best == 0:
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
                self._extend()
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

    Exits early when an all-even 2-factor is found.  Raises
    :class:`BudgetExceededError` when ``max_work`` matching choices are
    exhausted before the search completes.
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


def _cycle_pair_sweep(
    g: MultiGraph,
    cycles: list[tuple[int, ...]],
    budget: _Budget,
    stop_below: int | None,
) -> tuple[int | None, frozenset[int] | None]:
    """Minimum cut over disjoint cycle pairs; early exit below ``stop_below``.

    A pair's flow stops growing once it reaches the best cut so far, since
    that pair can no longer lower the minimum.
    """
    best: int | None = None
    best_side: frozenset[int] | None = None
    cuts = _UnitCuts(g)
    # bit j of through[v] is set when cycle j passes through v, so the
    # cycles disjoint from cycle i are the bits that no vertex of i sets
    through = [0] * g.n
    for j, c in enumerate(cycles):
        for v in c:
            through[v] |= 1 << j
    everything = (1 << len(cycles)) - 1
    for i in range(len(cycles)):
        hit = 0
        for v in cycles[i]:
            hit |= through[v]
        later = (everything ^ hit) >> i  # bit d stands for cycle i + d
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
    return best, best_side


def _length_bound(n: int, cut_size: int) -> int:
    # a minimum cycle-separating cut of size c has, on each side, a chordless
    # cycle of length <= c + 2*ceil(log2 n) + 2 (degree-2 chains are globally
    # bounded by the cut size, the cubic core has logarithmic girth)
    return cut_size + 2 * math.ceil(math.log2(max(n, 2))) + 2


def is_cyclically_k_connected(
    g: MultiGraph, k: int, *, max_work: int | None = 2_000_000
) -> CyclicCheck:
    """Whether every edge cut separating two cycles has at least k edges.

    On failure the witness is a cycle-separating cut with fewer than k edges.
    Graphs without two vertex-disjoint cycles are vacuously k-connected for
    every k.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    budget = _Budget(max_work)
    cycles = _chordless_cycles(g, _length_bound(g.n, k - 1), budget)
    value, side = _cycle_pair_sweep(g, cycles, budget, stop_below=k)
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
    lower the minimum).  Cycle lengths are capped by a bound derived from
    the best cut found so far and the sweep repeats until the cap is
    self-consistent.  Every disjoint pair costs 4 work units and every
    extension step of the cycle enumeration 1; more than ``max_work`` units
    raise :class:`BudgetExceededError`.
    """
    budget = _Budget(max_work)
    gi = girth(g)
    if gi is None:
        return CyclicConnectivity(value=None, vacuous=True, witness=None)
    upper = gi
    while True:
        cycles = _chordless_cycles(g, _length_bound(g.n, upper - 1), budget)
        value, side = _cycle_pair_sweep(g, cycles, budget, stop_below=None)
        if value is None:
            # nothing disjoint at this cap: decide vacuity with no cap
            cycles = _chordless_cycles(g, g.n, budget)
            value, side = _cycle_pair_sweep(g, cycles, budget, stop_below=None)
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
