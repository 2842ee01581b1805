"""Flow partitions, balanced valuations, and exact balancedness checking.

A vertex valuation f is balanced when ``|sum over X of f| <= |cut(X)|`` for
every vertex subset X.  All arithmetic is exact: values are integers over a
fixed denominator, never floats.  Balance is checked in polynomial time by
reading both signs of the objective off one max flow on the graph's own
arrays; the test suite cross-checks it against an exhaustive checker over
all subsets.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import InternalInconsistencyError, UnbalancedValuationError
from .flows import AugmentedGraph, Flow, is_nowhere_zero, verify_flow
from .graph import MultiGraph, check_vertex_set


class FlowPartition(NamedTuple):
    """Vertex bipartition induced by a canonical 4-flow on the augmented
    graph: white vertices have out-degree below half their degree, black
    above.  ``base_weights`` is the induced +-2 weighting.
    """

    white: tuple[int, ...]
    black: tuple[int, ...]
    augmented: AugmentedGraph
    base_weights: tuple[int, ...]

    def is_white(self, v: int) -> bool:
        return self.base_weights[v] == -2

    def swapped(self, vertices) -> "FlowPartition":
        """The partition with the classes of ``vertices`` exchanged."""
        flip = set(vertices)
        return _partition_of(
            self.augmented,
            [-w if v in flip else w for v, w in enumerate(self.base_weights)],
        )


def _partition_of(ag: AugmentedGraph, weights) -> FlowPartition:
    return FlowPartition(
        white=tuple(v for v, w in enumerate(weights) if w == -2),
        black=tuple(v for v, w in enumerate(weights) if w == 2),
        augmented=ag,
        base_weights=tuple(weights),
    )


class _ValuationFields(NamedTuple):
    denominator: int
    numerators: tuple[int, ...]


class Valuation(_ValuationFields):
    """Exact rational vertex weights: ``numerators[v] / denominator``."""

    __slots__ = ()

    def __new__(cls, denominator: int, numerators: tuple[int, ...]) -> Valuation:
        if denominator < 1:
            raise ValueError("valuation denominator must be at least 1")
        return super().__new__(cls, denominator, numerators)

    @classmethod
    def _make(cls, iterable) -> Valuation:
        # _replace builds through _make, so it runs the check too
        return cls(*iterable)

    def value(self, v: int) -> Fraction:
        return Fraction(self.numerators[v], self.denominator)


class BalanceReport(NamedTuple):
    """Outcome of a balancedness check.

    On violation, ``violator`` is a maximal-margin subset (ties: fewest
    vertices, then lexicographic where the checker can see all optima) and
    ``margin`` the exact positive excess.  ``class_difference`` is the
    black/white imbalance of the violator for two-valued valuations.
    """

    balanced: bool
    violator: tuple[int, ...] | None
    margin: Fraction
    class_difference: int | None

    def to_json(self) -> dict:
        return {
            "balanced": self.balanced,
            "violator": list(self.violator) if self.violator else None,
            "margin": [self.margin.numerator, self.margin.denominator],
            "class_difference": self.class_difference,
        }


def flow_partition(ag: AugmentedGraph, f4: Flow) -> FlowPartition:
    """Split the vertices by the sign of ``2*outdeg - deg`` under ``f4``.

    Requires a nowhere-zero 4-flow on the augmented graph for which that
    quantity is +-1 everywhere, as the canonical construction guarantees;
    the input is verified.  Other partitions of the pipeline are read off
    this one with :meth:`FlowPartition.swapped`, so it runs once per record.
    """
    g = ag.graph
    if verify_flow(g, f4) or not is_nowhere_zero(f4):
        raise ValueError("partition requires a verified nowhere-zero flow")
    weights = []
    for v, (out, inc) in enumerate(zip(_out_degrees(g, f4), g.incidence)):
        s = 2 * out - len(inc)
        if s not in (-1, 1):
            raise ValueError(
                f"vertex {v}: 2*outdeg - deg = {s}, flow is not canonical"
            )
        weights.append(2 * s)
    return _partition_of(ag, weights)


def to_five_thirds(p: FlowPartition) -> Valuation:
    """The +-5/3 valuation of a flow partition: -5/3 on white, +5/3 on black."""
    return Valuation(
        denominator=3,
        numerators=tuple(-5 if w == -2 else 5 for w in p.base_weights),
    )


def flow_to_valuation(g: MultiGraph, f: Flow, k: int) -> Valuation:
    """The valuation ``k/(k-2) * (2*outdeg - deg)`` of a verified flow
    (k >= 3)."""
    _check_k(k)
    if f.modulus != k:
        raise ValueError("flow modulus disagrees with k")
    if verify_flow(g, f) or not is_nowhere_zero(f):
        raise ValueError("valuation requires a verified nowhere-zero flow")
    return Valuation(
        denominator=k - 2,
        numerators=tuple(
            k * (2 * out - g.degree(v))
            for v, out in enumerate(_out_degrees(g, f))
        ),
    )


def _check_k(k: int) -> None:
    """Reject a modulus for which ``k/(k-2)`` is not a positive ratio."""
    if k < 3:
        raise ValueError(f"k must be at least 3, not {k}")


def _out_degrees(g: MultiGraph, f: Flow) -> list[int]:
    """Edges leaving each vertex under a nowhere-zero flow ``f``."""
    out = [0] * g.n
    for tail in f.tails:
        out[tail] += 1
    return out


# ---------------------------------------------------------------------------
# one max flow on the graph's arrays
# ---------------------------------------------------------------------------


def _max_flow(
    g: MultiGraph, tails, rem: list[int], fwd: list[int], bwd: list[int]
) -> bool:
    """Dinic on the graph's own arrays: route the vertices' supply to their
    demand over the edges; True when all supply is routed.

    Edge e has residual ``fwd[e]`` from ``tails[e]`` to its other end and
    ``bwd[e]`` back; ``rem[v] > 0`` is supply left at v (its arc from s),
    and ``rem[v] < 0`` is demand left (its arc to t).  All three lists
    change in place and end as the residual network of a maximum flow,
    whatever the starting residuals.  With ``bwd`` zero at the start it is
    also the flow, ending in ``bwd``, that ``RecursiveMaxFlow`` in
    ``tests/helpers.py`` (Dinic, arcs tried in insertion order) finds on
    the network with arcs tail -> head of capacity ``fwd[e]`` in edge id
    order, then s -> v and v -> t in vertex order, so a vertex tries one arc
    per incident edge in id order (``g.incident``), then its terminal arc.
    A positive start would be a second arc per edge, whose place in the arc
    order that network does not fix.

    Levels: the arcs into s or out of t never increase the level, so every
    level-increasing path is s, v1, ..., vj, t with v1 a source and vj a
    sink.  Level 1 holds the vertices with supply left.  The reference
    labels every vertex; the search here stops at the first layer, ``top``,
    that holds a vertex with demand left, so t is at level top + 1.  Every
    vertex of a level-increasing path to t is nearer than t, and is labelled
    here with the reference's level, so the vertices left out are dead ends
    that the reference enters and leaves without a push: the flow is the
    same.  Only vertices on layer ``top`` can have demand left, since t
    would be nearer otherwise.  One there goes straight to t when it has
    demand left, its edges leading to dead ends, and is a dead end itself
    otherwise.  Below it, a vertex tries its incident edges in id order;
    its terminal arc is never level-increasing.

    Blocking flow: the reference restarts at s after a push and walks the
    current-arc pointers again.  Every pointer on the path still points at
    the arc it took, and the walk takes that arc again unless the push
    saturated it, so it stops at the first saturated arc of the path, in
    path order.  Below, the search resumes there: at s when the push used
    up the source's supply (s then tries the next source), at the tail of
    the first saturated edge, or, when only the arc to t was saturated, at
    the sink, which is then a dead end.

    Phase 1: when t is at level 3, every path is s, source, sink, t, and
    the pushes run along edges out of a source into a sink.  Such a push
    only lowers the residual of its edge from the source, so an edge that
    is usable now was usable at the start of the phase, and the sink at its
    other end is on level 2.  The phase is therefore a greedy pass: each
    source in vertex order sends what it can over its incident edges in id
    order, straight into each sink with demand left, skipping an edge with
    no residual from the source, until its supply is used up.  When t is
    farther, no source has an edge with residual into a sink with demand
    left, and the pass sends nothing; Dinic's levels grow from phase to
    phase, so no later phase has t at level 3.
    """
    n = g.n
    inc = g.incidence
    sources = [v for v in range(n) if rem[v] > 0]
    for v in sources:  # phase 1, when t is at level 3
        for e, w in inc[v]:
            if rem[w] < 0 and (fwd[e] if tails[e] == v else bwd[e]):
                ahead = tails[e] == v
                p = min(rem[v], fwd[e] if ahead else bwd[e], -rem[w])
                d = p if ahead else -p
                fwd[e] -= d
                bwd[e] += d
                rem[w] += p
                rem[v] -= p
                if not rem[v]:
                    break
    while True:
        sources = [v for v in sources if rem[v] > 0]
        if not sources:
            return True
        level = [0] * n  # 0: unlabelled
        for v in sources:
            level[v] = 1
        front, top = sources, 1
        while not any(rem[v] < 0 for v in front):
            top += 1
            nxt = []
            for a in front:
                for e, b in inc[a]:
                    if not level[b] and (fwd[e] if tails[e] == a else bwd[e]):
                        level[b] = top
                        nxt.append(b)
            if not nxt:
                return False
            front = nxt
        ptr = [0] * n  # next incident edge to try
        for root in sources:
            path, via = [root], []  # vertices, and the edges between them
            while path:
                a = path[-1]
                if level[a] == top:
                    if rem[a] < 0:
                        res = [
                            fwd[e] if tails[e] == b else bwd[e]
                            for b, e in zip(path, via)
                        ]
                        p = min(rem[root], -rem[a], *res)
                        for b, e in zip(path, via):
                            d = p if tails[e] == b else -p
                            fwd[e] -= d
                            bwd[e] += d
                        rem[root] -= p
                        rem[a] += p
                        if not rem[root]:
                            break
                        if p in res:  # resume at the first saturated edge
                            first = res.index(p)
                            del path[first + 1 :], via[first:]
                            continue
                else:
                    nb, i, want = inc[a], ptr[a], level[a] + 1
                    while i < len(nb):
                        e, b = nb[i]
                        if level[b] == want and (
                            fwd[e] if tails[e] == a else bwd[e]
                        ):
                            break
                        i += 1
                    ptr[a] = i
                    if i < len(nb):
                        path.append(b)
                        via.append(e)
                        continue
                # dead end: retreat and skip the edge that led here
                path.pop()
                if via:
                    via.pop()
                    ptr[path[-1]] += 1


def _residual_reach(
    g: MultiGraph, tails, fwd, bwd, starts, back: bool
) -> tuple[int, ...]:
    """The vertices reachable from ``starts`` over edges with residual left,
    sorted; with ``back``, the vertices that can reach ``starts`` instead."""
    seen, found = set(starts), list(starts)
    for a in found:  # grows while it is read: a breadth-first search
        for e, b in g.incident(a):
            if b not in seen and (fwd[e] if (tails[e] == a) != back else bwd[e]):
                seen.add(b)
                found.append(b)
    return tuple(sorted(found))


# ---------------------------------------------------------------------------
# balancedness check
# ---------------------------------------------------------------------------


def _class_difference(val: Valuation, subset) -> int | None:
    magnitudes = {abs(x) for x in val.numerators}
    if len(magnitudes) != 1:
        return None
    unit = magnitudes.pop()
    if unit == 0:
        return None
    total = sum(val.numerators[v] for v in subset)
    return abs(total) // unit


def check_balanced_mincut(g: MultiGraph, val: Valuation) -> BalanceReport:
    """Polynomial balancedness check from one s-t min-cut network.

    Write ``F(X) = sum over X of f*den`` (integers) and ``T = F(V)``.  For
    the plus sign, maximizing ``F(X) - den*|cut(X)|`` is a project selection
    problem: positive-weight vertices hang off the source, negative off the
    sink, and each graph edge contributes capacity ``den`` both ways.  A cut
    with source side ``{s} + X`` costs ``P - F(X) + den*|cut(X)|``, where P
    sums the positive weights, so the best plus value is ``P - C`` for the
    min-cut value C, attained exactly by the min-cut source sides.

    The minus sign needs no second network.  The complement Y of X has
    ``cut(Y) = cut(X)`` and ``F(Y) = T - F(X)``, so
    ``-F(Y) - den*|cut(Y)| = F(X) - den*|cut(X)| - T``: the best minus value
    is ``P - C - T`` (N - C, with N the total of the negative weights'
    magnitudes), and the minus-optimal sets are the complements of the
    plus-optimal ones.  Each family is closed under union and intersection;
    the candidate taken per sign is its inclusion-minimal member, as a
    separate minus-sign network would give.  For the plus sign that is the
    residual reach of s; for the minus sign it is the complement of the
    inclusion-maximal plus side, i.e. the vertices that can still reach t
    in the residual network.  Both are the same for every maximum flow.
    The valuation is balanced iff both values are at most zero (the empty
    set always achieves zero).  On a violation the larger value wins, ties
    going to the smaller, then lexicographically first, candidate; for
    ``T = 0``, as on pipeline valuations, both signs tie.

    :func:`_max_flow` solves it on the graph's arrays, each edge oriented
    from its first end with residual ``den`` both ways and ``rem`` the
    weights.  The supply and the demand left over are the plus and minus
    values; the plus side is the residual reach of the vertices with supply
    left, and the minus side the vertices that still reach demand left.
    """
    if len(val.numerators) != g.n:
        raise ValueError("valuation does not cover the vertex set")
    den = val.denominator
    tails = [u for u, _v in g.edges]
    rem = list(val.numerators)
    fwd, bwd = [den] * g.m, [den] * g.m
    _max_flow(g, tails, rem, fwd, bwd)
    plus = sum(r for r in rem if r > 0)
    minus = plus - sum(val.numerators)
    best = max(plus, minus)
    if best <= 0:
        return BalanceReport(True, None, Fraction(0), None)
    sides = []
    if plus == best:
        starts = [v for v, r in enumerate(rem) if r > 0]
        sides.append(_residual_reach(g, tails, fwd, bwd, starts, False))
    if minus == best:
        starts = [v for v, r in enumerate(rem) if r < 0]
        sides.append(_residual_reach(g, tails, fwd, bwd, starts, True))
    violator = min(sides, key=lambda side: (len(side), side))
    return BalanceReport(
        balanced=False,
        violator=violator,
        margin=Fraction(best, den),
        class_difference=_class_difference(val, violator),
    )


def subset_margin(g: MultiGraph, val: Valuation, subset) -> Fraction:
    """Exact ``|sum over X of f| - |cut(X)|`` for one subset."""
    s = check_vertex_set(g, subset)
    total = sum(val.numerators[v] for v in s)
    cut_size = sum(1 for (u, v) in g.edges if (u in s) != (v in s))
    return Fraction(abs(total), val.denominator) - cut_size


# ---------------------------------------------------------------------------
# balanced valuation -> flow (reverse direction)
# ---------------------------------------------------------------------------


def _prescribed_out_degrees(g: MultiGraph, val: Valuation, k: int) -> list[int]:
    """Out-degrees forced by ``f(v) = k/(k-2) * (2*outdeg - deg)``.

    Each distinct (numerator, degree) pair is converted once: a +-5/3
    valuation of a cubic graph has two.  An error names the first vertex
    whose pair fails.
    """
    scale = val.denominator * k
    pairs = list(zip(val.numerators, g.degrees()))
    out_of = {}
    for num, deg in set(pairs):
        # 2*outdeg = f(v) * (k-2)/k + deg = (num*(k-2) + deg*scale) / scale
        two_outdeg, rem = divmod(num * (k - 2) + deg * scale, scale)
        out_of[num, deg] = None if rem or two_outdeg % 2 else two_outdeg // 2
    bad = {p for p, d in out_of.items() if d is None or not 0 <= d <= p[1]}
    if bad:
        v = next(v for v, p in enumerate(pairs) if p in bad)
        d = out_of[pairs[v]]
        if d is None:
            raise ValueError(
                f"vertex {v}: valuation value {val.value(v)} is not of the "
                f"degree form for k={k}"
            )
        raise ValueError(f"vertex {v}: prescribed out-degree {d} infeasible")
    return [out_of[p] for p in pairs]


def _initial_orientation(g: MultiGraph, out_deg: list[int]) -> list[int] | None:
    """Some orientation with the prescribed out-degrees: the tail per edge,
    or None.

    It is the orientation that ``network_orientation`` in
    ``tests/helpers.py`` finds with ``RecursiveMaxFlow`` on the network
    s -> edge -> end -> t, run here on the graph's own arrays.  That network
    adds, edge by edge, the arcs s -> e, e -> u and e -> v of unit capacity
    (``(u, v) = g.edges[e]``), then one arc x -> t of capacity
    ``out_deg[x]`` per vertex.  A unit on e -> x makes x the tail of e, and
    the spare of x is its capacity to t left unused.

    Phase 1: every edge is at level 1 and every vertex at level 2, so the
    depth-first search takes the edges in id order and sends each to its
    first end u if u has spare, else to v if v has spare, else leaves it
    free.  A vertex without spare is a dead end for the rest of the phase.
    That greedy pass is the whole of phase 1, and no other phase runs when
    it leaves no edge free.

    Later phases: residual arcs run from s to the free edges, from an edge
    to each end that is not its tail, from a vertex to the edges it is the
    tail of, and from a vertex with spare to t.  Levels are odd on edges
    and even on vertices.  The reference labels every node; the search
    below stops once it labels t.  As :func:`_max_flow`'s docstring argues,
    that leaves out only dead ends, so the flow depends only on the exact
    levels of the nodes nearer than t, and those are the nodes labelled
    below.  Of them only the vertices on the last level can have spare,
    since t would be nearer otherwise.  A vertex there goes straight to t
    when it has spare: the edges it could enter first are dead ends.  Current-arc pointers follow the network's arc
    order: an edge tries u before v, and a vertex tries its incident edges
    in id order (``g.incidence``) before its arc to t.  Every arc on a path
    from s carries one unit, so an augmenting path s, e1, x1, ..., ek, xk, t
    sets ``tail[ej] = xj`` and uses one unit of spare at xk.
    """
    m = g.m
    if sum(out_deg) != m:
        return None
    edges = g.edges
    incidence = g.incidence
    spare = list(out_deg)
    tail = [-1] * m
    free = []
    for e, (u, v) in enumerate(edges):
        if spare[u] > 0:
            tail[e] = u
            spare[u] -= 1
        elif spare[v] > 0:
            tail[e] = v
            spare[v] -= 1
        else:
            free.append(e)
    while free:
        elev = [0] * m  # 0: unlabelled
        vlev = [0] * g.n
        for e in free:
            elev[e] = 1
        front, lev = free, 1
        while True:
            lev += 1
            verts = []
            for e in front:
                for x in edges[e]:
                    if x != tail[e] and not vlev[x]:
                        vlev[x] = lev
                        verts.append(x)
            if not verts:
                return None
            if any(spare[x] > 0 for x in verts):
                break
            lev += 1
            front = []
            for x in verts:
                for e, _ in incidence[x]:
                    if tail[e] == x and not elev[e]:
                        elev[e] = lev
                        front.append(e)
            if not front:
                return None
        # lev is now the level of the vertices next to t
        ptr_e = [0] * m  # next end to try; 2: none left
        ptr_v = [0] * g.n  # next incident edge to try
        for root in free:
            path = [root]  # edge, vertex, edge, vertex, ...
            while path:
                node = path[-1]
                if len(path) & 1:
                    ends, want, i = edges[node], elev[node] + 1, ptr_e[node]
                    while i < 2 and (ends[i] == tail[node] or vlev[ends[i]] != want):
                        i += 1
                    ptr_e[node] = i
                    if i < 2:
                        path.append(ends[i])
                        continue
                elif vlev[node] == lev:
                    if spare[node] > 0:
                        spare[node] -= 1
                        for j in range(0, len(path), 2):
                            tail[path[j]] = path[j + 1]
                        break
                else:
                    inc, want, i = incidence[node], vlev[node] + 1, ptr_v[node]
                    while i < len(inc) and (
                        tail[inc[i][0]] != node or elev[inc[i][0]] != want
                    ):
                        i += 1
                    ptr_v[node] = i
                    if i < len(inc):
                        path.append(inc[i][0])
                        continue
                # dead end: retreat and skip the arc that led here
                path.pop()
                if path:
                    if len(path) & 1:
                        ptr_e[path[-1]] += 1
                    else:
                        ptr_v[path[-1]] += 1
        free = [e for e in free if tail[e] < 0]
    return tail


def _circulation(g: MultiGraph, tails, k: int) -> list[int] | None:
    """Values in 1..k-1 that conserve on the orientation ``tails`` (k >= 3),
    or None if there are none.

    They are the values that ``network_circulation`` in ``tests/helpers.py``
    finds on the bounded circulation network.  That network routes the
    lower bound 1 of every edge first, which leaves vertex v an excess of
    its in-degree minus its out-degree; the rest is the network of
    :func:`_max_flow` with ``fwd`` at k - 2, ``bwd`` at 0 and ``rem`` at the
    excesses.  The values are 1 plus the flows on the edges, and there are
    none unless every arc from s is saturated.
    """
    rem = [0] * g.n
    for (u, v), tail in zip(g.edges, tails):
        rem[tail] -= 1
        rem[u + v - tail] += 1
    bwd = [0] * g.m
    if not _max_flow(g, tails, rem, [k - 2] * g.m, bwd):
        return None
    return [1 + y for y in bwd]


def valuation_to_flow(g: MultiGraph, val: Valuation, k: int) -> Flow:
    """Realize a balanced valuation of the degree form as a nowhere-zero
    k-flow whose induced valuation is exactly the input.

    The valuation fixes every out-degree, so ``|delta+(X)| - |delta-(X)|``
    is the same for every orientation with those out-degrees and every
    vertex set X.  Balance then gives Hakimi's condition for such an
    orientation to exist, and it is exactly Hoffman's condition
    ``(k-1)|delta+(X)| >= |delta-(X)|`` for conserving values in 1..k-1 on
    it (Jaeger, *Balanced valuations and flows in multigraphs*, 1975).  So
    the first orientation found carries the flow: orient
    (:func:`_initial_orientation`), circulate (:func:`_circulation`), both
    on the graph's own arrays with no flow network built, then verify.
    ``k`` must be at least 3.

    Conversely the valuation of any nowhere-zero k-flow is balanced, so a
    returned flow is itself the proof of balance, and callers need no
    separate check (construct first).  Balance is checked only when a step
    fails: an unbalanced input raises :class:`UnbalancedValuationError`
    carrying the checker's report, and a failure on balanced input is a
    broken invariant (:class:`InternalInconsistencyError`), as is a
    realized flow that fails verification or induces another valuation.
    The pipeline emits the returned flow without verifying it again.
    """
    _check_k(k)
    out_deg = _prescribed_out_degrees(g, val, k)
    tails = _initial_orientation(g, out_deg)
    values = None if tails is None else _circulation(g, tails, k)
    if values is None:
        report = check_balanced_mincut(g, val)
        if not report.balanced:
            raise UnbalancedValuationError(report)
        raise InternalInconsistencyError(
            "balanced valuation has no realizing orientation and circulation"
        )
    flow = Flow(graph=g, tails=tuple(tails), values=tuple(values), modulus=k)
    if verify_flow(g, flow) or not is_nowhere_zero(flow):
        raise InternalInconsistencyError("circulation produced an invalid flow")
    # the out-degrees determine the valuation of a nowhere-zero flow
    realized = [0] * g.n
    for t in tails:
        realized[t] += 1
    if realized != out_deg:
        raise InternalInconsistencyError("realized flow disagrees with valuation")
    return flow
