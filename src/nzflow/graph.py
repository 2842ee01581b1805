"""Loop-free multigraphs with dense edge ids, edge cuts, and structural audits.

Parallel edges are first-class citizens here: the augmented graphs built by
the flow machinery contain parallel pairs, so everything downstream works on
multigraphs.  Loops are rejected at construction.  All iteration is in
ascending id order so downstream searches are deterministic.
"""

from __future__ import annotations

from typing import NamedTuple

_MAX_N = 1 << 18  # a graph read from text has fewer vertices than this


class MultiGraph:
    """Undirected multigraph on vertices ``0..n-1``.

    Edges carry dense ids ``0..m-1`` assigned in construction order; parallel
    edges are allowed and keep distinct ids, loops are not allowed.  Instances
    are immutable after construction and safe to share read-only.
    """

    __slots__ = ("n", "_edges", "_incidence")

    def __init__(self, n: int, edges) -> None:
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        es = []
        inc = [[] for _ in range(n)]
        for eid, (u, v) in enumerate(edges):
            u, v = int(u), int(v)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {eid}: endpoint out of range")
            if u == v:
                raise ValueError(f"edge {eid}: loops are not allowed")
            es.append((u, v))
            inc[u].append((eid, v))
            inc[v].append((eid, u))
        self._edges = tuple(es)
        # incidence lists are already in ascending edge id order
        self._incidence = tuple(tuple(x) for x in inc)

    @property
    def m(self) -> int:
        return len(self._edges)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edge endpoints indexed by edge id."""
        return self._edges

    def endpoints(self, eid: int) -> tuple[int, int]:
        return self._edges[eid]

    def other_end(self, eid: int, v: int) -> int:
        u, w = self._edges[eid]
        if v == u:
            return w
        if v == w:
            return u
        raise ValueError(f"vertex {v} is not an endpoint of edge {eid}")

    @property
    def incidence(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Every vertex's :meth:`incident` pairs, indexed by vertex."""
        return self._incidence

    def incident(self, v: int) -> tuple[tuple[int, int], ...]:
        """Pairs ``(edge id, other endpoint)`` at ``v``, ascending by id."""
        return self._incidence[v]

    def degree(self, v: int) -> int:
        return len(self._incidence[v])

    def degrees(self) -> list[int]:
        return [len(x) for x in self._incidence]

    def to_json(self) -> dict:
        """JSON edge-list form ``{"n": n, "edges": [[u, v], ...]}``."""
        return {"n": self.n, "edges": [[u, v] for (u, v) in self._edges]}

    @classmethod
    def from_json(cls, obj: dict) -> "MultiGraph":
        """Inverse of :meth:`to_json`; a malformed document raises ``ValueError``."""
        try:
            n = obj["n"]
            edges = obj["edges"]
        except (TypeError, KeyError) as exc:
            raise ValueError("expected an object with 'n' and 'edges'") from exc
        if type(n) is not int or not 0 <= n < _MAX_N:
            raise ValueError(f"'n' must be an integer from 0 to {_MAX_N - 1}")
        if not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 2 and all(type(v) is int for v in e)
            for e in edges
        ):
            raise ValueError("'edges' must be a list of integer pairs")
        return cls(n, edges)

    def __repr__(self) -> str:
        return f"MultiGraph(n={self.n}, m={self.m})"


def check_vertex_set(g: MultiGraph, vertices) -> frozenset[int]:
    """Validate a vertex subset of ``g`` and return it as a frozenset."""
    s = frozenset(int(v) for v in vertices)
    for v in s:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex id {v} out of range 0..{g.n - 1}")
    return s


class EdgeCut(NamedTuple):
    """The set of edges leaving a vertex subset.

    ``side`` is the defining subset in ascending order, ``edges`` the ids of
    edges with exactly one endpoint inside it.
    """

    side: tuple[int, ...]
    edges: frozenset[int]


def edge_cut(g: MultiGraph, vertices) -> EdgeCut:
    """Edges of ``g`` with exactly one endpoint in ``vertices``."""
    s = check_vertex_set(g, vertices)
    cut = frozenset(
        eid for eid, (u, v) in enumerate(g.edges) if (u in s) != (v in s)
    )
    return EdgeCut(side=tuple(sorted(s)), edges=cut)


def pair_cut(g: MultiGraph, left, right) -> frozenset[int]:
    """Edges with one endpoint in ``left`` and the other in ``right``.

    The two sets must be disjoint.
    """
    a = check_vertex_set(g, left)
    b = check_vertex_set(g, right)
    if a & b:
        raise ValueError(f"vertex sets overlap: {sorted(a & b)}")
    return frozenset(
        eid
        for eid, (u, v) in enumerate(g.edges)
        if (u in a and v in b) or (u in b and v in a)
    )


class BasicChecks(NamedTuple):
    """Degree, connectivity and bridge audit of a multigraph."""

    is_cubic: bool
    is_connected: bool
    is_bridgeless: bool
    components: tuple[tuple[int, ...], ...]
    bridges: frozenset[int]


def component_labels(g: MultiGraph, removed=frozenset()) -> list[int]:
    """The component of every vertex of ``g`` without the edge ids in
    ``removed``, numbered 0, 1, ... in order of each component's minimum."""
    label = [-1] * g.n
    count = 0
    for start in range(g.n):
        if label[start] != -1:
            continue
        label[start] = count
        stack = [start]
        while stack:
            v = stack.pop()
            for eid, w in g.incident(v):
                if label[w] == -1 and eid not in removed:
                    label[w] = count
                    stack.append(w)
        count += 1
    return label


def basic_checks(g: MultiGraph) -> BasicChecks:
    """Cubicity, connectivity and bridge-freeness from two flat passes.

    The first pass is an iterative DFS from each unvisited vertex in
    ascending order; it marks a vertex when it pops it, which makes the
    pushing vertex its tree parent, and records the preorder and each
    vertex's tree edge id.  Each root is the least vertex of its component,
    and the vertices it discovers are that component, so the components
    come out as sorted vertex tuples ordered by minimum id.

    The second pass walks the preorder backwards, so every child comes
    before its parent.  ``low[v]`` is the least of ``disc[v]``, ``low`` of
    each child (a neighbour whose tree edge is the edge at hand) and
    ``disc`` of every other neighbour; only ``v``'s own tree edge id is
    skipped, so a parallel copy of a tree edge keeps it from being a
    bridge.  The tree edge is a bridge when ``low[v] > disc[parent]``.
    """
    incident = g.incident
    disc = [-1] * g.n
    tree = [-1] * g.n  # the tree edge id into each vertex, -1 at a root
    found: list[int] = []  # vertices in preorder: found[disc[v]] = v
    comps: list[tuple[int, ...]] = []
    for root in range(g.n):
        if disc[root] != -1:
            continue
        first = len(found)
        stack = [(root, -1)]  # (vertex, edge id it was reached by)
        while stack:
            v, eid = stack.pop()
            if disc[v] != -1:
                continue
            disc[v] = len(found)
            tree[v] = eid
            found.append(v)
            for e, w in incident(v):
                if disc[w] == -1:
                    stack.append((w, e))
        comps.append(tuple(sorted(found[first:])))
    low = disc[:]
    out: set[int] = set()
    for v in reversed(found):
        in_eid = tree[v]
        lv = disc[v]
        for eid, w in incident(v):
            if eid != in_eid:
                x = low[w] if tree[w] == eid else disc[w]
                if x < lv:
                    lv = x
        low[v] = lv
        if in_eid != -1 and lv > disc[g.other_end(in_eid, v)]:
            out.add(in_eid)
    return BasicChecks(
        is_cubic=all(d == 3 for d in g.degrees()),
        is_connected=len(comps) <= 1,
        is_bridgeless=not out,
        components=tuple(comps),
        bridges=frozenset(out),
    )


def walk_circuit(
    local, start: int
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Canonical traversal of the circuit through ``start``.

    ``local[v]`` holds the two ``(edge id, other endpoint)`` pairs of the
    circuit at each vertex ``v`` on it, and ``start`` must be the circuit's
    smallest vertex.  The walk moves from ``start`` toward its smaller
    neighbor (ties between parallel edges go to the smaller edge id) and
    then always leaves a vertex by the circuit edge it did not arrive on.

    Returns ``(vertices, edges, tails)`` as :func:`trace_circuit` does.
    """
    eid, cur = min(local[start], key=lambda t: (t[1], t[0]))
    vertices = [start]
    edges = [eid]
    while cur != start:
        vertices.append(cur)
        a, b = local[cur]
        eid, cur = b if a[0] == eid else a
        edges.append(eid)
    vertices_t = tuple(vertices)
    return vertices_t, tuple(edges), vertices_t


def trace_circuit(
    g: MultiGraph, edge_ids
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Canonical traversal of a circuit given as a set of edge ids.

    Every vertex touched must have exactly two of the given edges.  The walk
    (:func:`walk_circuit`) starts at the smallest vertex and moves toward its
    smaller-id neighbor, ties between parallel edges broken by smaller edge
    id, which pins down one of the two traversal directions.  This is the
    canonical order contract: ``TwoFactor.circuits``, the colour-{1,2}
    circuits and the augmented graph's circuits are stored in it, and the
    colouring and 4-flow stages read tails off those tuples with
    :func:`circuit_tails` instead of tracing again.

    Returns ``(vertices, edges, tails)`` where ``edges[i]`` goes from
    ``vertices[i]`` (its tail) to ``vertices[(i+1) % len]``.
    """
    eids = sorted(set(int(e) for e in edge_ids))
    local: dict[int, list[tuple[int, int]]] = {}
    for eid in eids:
        u, v = g.endpoints(eid)
        local.setdefault(u, []).append((eid, v))
        local.setdefault(v, []).append((eid, u))
    for v, inc in local.items():
        if len(inc) != 2:
            raise ValueError(f"vertex {v} has degree {len(inc)} in the circuit")
    walk = walk_circuit(local, min(local))
    if len(walk[1]) != len(eids):
        raise ValueError("edge ids do not form a single circuit")
    return walk


def circuit_tails(g: MultiGraph, edges: tuple[int, ...]) -> tuple[int, ...]:
    """Tails of a circuit whose edge ids are already in canonical order.

    ``edges[i]`` runs from ``tails[i]`` to ``tails[i + 1]``.  The first tail
    is the smaller end of ``edges[0]``, because the canonical walk starts at
    the circuit's smallest vertex.  Raises ``ValueError`` when the edges do
    not close up into a walk back to that vertex, or when they do but not in
    the order :func:`trace_circuit` gives (for example rotated or reversed).
    """
    if not edges:
        raise ValueError("a circuit needs at least one edge")
    start = min(g.endpoints(edges[0]))
    tails = [start]
    v = start
    try:
        for eid in edges:
            v = g.other_end(eid, v)
            tails.append(v)
    except ValueError:
        raise ValueError(f"edges {edges} are not a closed walk") from None
    tails.pop()
    if v != start:
        raise ValueError(f"edges {edges} are not a closed walk")
    if min(tails) != start or (tails[1], edges[0]) >= (tails[-1], edges[-1]):
        raise ValueError(f"circuit {edges} is not in canonical order")
    return tuple(tails)
