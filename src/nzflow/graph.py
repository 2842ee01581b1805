"""Loop-free multigraphs with dense edge ids, edge cuts, and structural audits.

Parallel edges are first-class citizens here: the augmented graphs built by
the flow machinery contain parallel pairs, so everything downstream works on
multigraphs.  Loops are rejected at construction.  All iteration is in
ascending id order so downstream searches are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class EdgeCut:
    """The set of edges leaving a vertex subset.

    ``side`` is the defining subset in ascending order, ``edges`` the ids of
    edges with exactly one endpoint inside it.  ``color_counts`` is filled in
    when a 4-edge-coloring has been attached (counts for colors 0..3).
    """

    side: tuple[int, ...]
    edges: frozenset[int]
    color_counts: tuple[int, int, int, int] | None = None


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


@dataclass(frozen=True)
class BasicChecks:
    """Degree, connectivity and bridge audit of a multigraph."""

    is_cubic: bool
    is_connected: bool
    is_bridgeless: bool
    components: tuple[tuple[int, ...], ...]
    bridges: frozenset[int]


def components(g: MultiGraph) -> tuple[tuple[int, ...], ...]:
    """Connected components as sorted vertex tuples, ordered by minimum id."""
    seen = [False] * g.n
    comps = []
    for start in range(g.n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        stack = [start]
        while stack:
            v = stack.pop()
            for _, w in g.incident(v):
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def bridges(g: MultiGraph) -> frozenset[int]:
    """Edge ids whose removal disconnects their component.

    Iterative lowlink DFS; a parallel copy of an edge prevents it from being
    a bridge because only the exact tree edge id is skipped on the way up.
    """
    disc = [-1] * g.n
    low = [0] * g.n
    out: set[int] = set()
    timer = 0
    for root in range(g.n):
        if disc[root] != -1:
            continue
        # stack entries: (vertex, incoming edge id, iterator index)
        stack = [(root, -1, 0)]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            v, in_eid, idx = stack.pop()
            inc = g.incident(v)
            advanced = False
            while idx < len(inc):
                eid, w = inc[idx]
                idx += 1
                if eid == in_eid:
                    continue
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((v, in_eid, idx))
                    stack.append((w, eid, 0))
                    advanced = True
                    break
                low[v] = min(low[v], disc[w])
            if advanced:
                continue
            # v is finished; propagate lowlink to its parent
            if in_eid != -1:
                parent = g.other_end(in_eid, v)
                low[parent] = min(low[parent], low[v])
                if low[v] > disc[parent]:
                    out.add(in_eid)
    return frozenset(out)


def basic_checks(g: MultiGraph) -> BasicChecks:
    """Cubicity, connectivity and bridge-freeness in one pass."""
    comps = components(g)
    br = bridges(g)
    return BasicChecks(
        is_cubic=all(d == 3 for d in g.degrees()),
        is_connected=len(comps) <= 1,
        is_bridgeless=not br,
        components=comps,
        bridges=br,
    )


def trace_circuit(
    g: MultiGraph, edge_ids
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Canonical traversal of a circuit given as a set of edge ids.

    Every vertex touched must have exactly two of the given edges.  The walk
    starts at the smallest vertex and moves toward its smaller-id neighbor
    (ties between parallel edges broken by smaller edge id), which pins down
    one of the two traversal directions.

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
    start = min(local)
    # pick the first step: smaller neighbor, then smaller edge id
    first = min(local[start], key=lambda t: (t[1], t[0]))
    vertices = [start]
    edges = [first[0]]
    tails = [start]
    cur, prev_eid = first[1], first[0]
    while cur != start:
        vertices.append(cur)
        nxt = next(t for t in local[cur] if t[0] != prev_eid)
        edges.append(nxt[0])
        tails.append(cur)
        cur, prev_eid = nxt[1], nxt[0]
    if len(vertices) != len(eids):
        raise ValueError("edge ids do not form a single circuit")
    return tuple(vertices), tuple(edges), tuple(tails)
