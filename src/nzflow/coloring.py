"""Canonical 4-edge-colorings of a cubic graph relative to a 2-factor.

The construction colors the perfect matching 1, alternates 2/3 around every
circuit of the 2-factor, and demotes exactly one edge per odd circuit to
color 0.  Each odd circuit then has exactly one vertex incident to no
color-2 edge (a "missing-2" vertex), and the subgraph on colors {1, 2}
decomposes into even circuits plus one odd path per pair of missing-2
vertices.

Determinism: the color-0 edge is the smallest edge id on its circuit, 2/3
alternation starts right after it (or, on even circuits, on the canonical
first edge), and paths are ordered by their smaller endpoint.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InternalInconsistencyError
from .graph import EdgeCut, MultiGraph, circuit_tails, walk_circuit
from .structure import TwoFactor


class Coloring4(NamedTuple):
    """An edge coloring with colors {0, 1, 2, 3} produced by
    :func:`canonical_coloring`.

    ``missing2`` lists the vertices missing color 2, ordered so that
    ``paths[i]`` joins ``missing2[2*i]`` and ``missing2[2*i + 1]``; paths are
    edge-id tuples walking from the smaller endpoint to the larger.
    ``circuits`` are the even circuits of the color-{1,2} subgraph, each in
    canonical order (see :func:`~nzflow.graph.walk_circuit`), sorted by
    smallest vertex.
    """

    colors: tuple[int, ...]
    missing2: tuple[int, ...]
    paths: tuple[tuple[int, ...], ...]
    factor: TwoFactor
    circuits: tuple[tuple[int, ...], ...]


def _check_two_factor(g: MultiGraph, tf: TwoFactor) -> None:
    if tf.matching | tf.factor != frozenset(range(g.m)) or tf.matching & tf.factor:
        raise ValueError("two-factor does not partition the edge set")
    cover = [0] * g.n
    for eid in tf.matching:
        u, v = g.endpoints(eid)
        cover[u] += 1
        cover[v] += 1
    if any(c != 1 for c in cover):
        raise ValueError("matching side is not a perfect matching")


def canonical_coloring(g: MultiGraph, tf: TwoFactor) -> Coloring4:
    """Color ``g`` canonically with respect to the 2-factor ``tf``.

    Each circuit of ``tf`` must be in canonical order (see
    :class:`~nzflow.structure.TwoFactor`); one that is not closed, or is
    rotated or reversed, raises ``ValueError``.
    """
    _check_two_factor(g, tf)
    colors = [-1] * g.m
    for eid in tf.matching:
        colors[eid] = 1
    missing2 = []
    for edges in tf.circuits:
        tails = circuit_tails(g, edges)
        length = len(edges)
        if length % 2 == 0:
            for i, eid in enumerate(edges):
                colors[eid] = 2 if i % 2 == 0 else 3
        else:
            j = min(range(length), key=lambda i: edges[i])
            colors[edges[j]] = 0
            for step in range(1, length):
                eid = edges[(j + step) % length]
                colors[eid] = 2 if step % 2 == 1 else 3
            # the tail of the 0-edge sits between the 0-edge and a 3-edge
            missing2.append(tails[j])
    if any(c == -1 for c in colors):
        raise InternalInconsistencyError("coloring left an edge unassigned")

    circuits, paths = _color12_components(g, colors, frozenset(missing2))
    ordered: list[int] = []
    for path in paths:
        ends = _path_ends(g, path)
        ordered.extend(ends)
    return Coloring4(
        colors=tuple(colors),
        missing2=tuple(ordered),
        paths=tuple(paths),
        factor=tf,
        circuits=circuits,
    )


def _h_adjacency(g: MultiGraph, colors) -> list[list[tuple[int, int]]]:
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for eid, (u, v) in enumerate(g.edges):
        if colors[eid] in (1, 2):
            adj[u].append((eid, v))
            adj[v].append((eid, u))
    return adj


def _path_ends(g: MultiGraph, path: tuple[int, ...]) -> tuple[int, int]:
    if len(path) == 1:
        return g.endpoints(path[0])
    first_u, first_v = g.endpoints(path[0])
    second = set(g.endpoints(path[1]))
    a = first_u if first_v in second else first_v
    last_u, last_v = g.endpoints(path[-1])
    before = set(g.endpoints(path[-2]))
    b = last_u if last_v in before else last_v
    return (a, b) if a < b else (b, a)


def _color12_components(
    g: MultiGraph, colors, endpoints: frozenset[int]
) -> tuple[tuple[tuple[int, ...], ...], list[tuple[int, ...]]]:
    """Split the color-{1,2} subgraph into (even circuits, odd paths).

    Paths are walked small end to large end; each circuit is walked
    canonically from its smallest vertex, so they come out sorted by it.
    """
    adj = _h_adjacency(g, colors)
    for v in range(g.n):
        expected = 1 if v in endpoints else 2
        if len(adj[v]) != expected:
            raise InternalInconsistencyError(
                f"vertex {v} has {len(adj[v])} edges of colors 1/2, "
                f"expected {expected}"
            )
    paths = []
    visited = [False] * g.n
    for start in sorted(endpoints):
        if visited[start]:
            continue
        edges = []
        v, prev = start, -1
        visited[v] = True
        while True:
            nxt = next(t for t in adj[v] if t[0] != prev)
            edges.append(nxt[0])
            prev, v = nxt[0], nxt[1]
            visited[v] = True
            if v in endpoints:
                break
        paths.append(tuple(edges))
    paths.sort(key=lambda p: min(_path_ends(g, p)))
    circuits = []
    for v in range(g.n):
        if not visited[v]:
            vertices, edges, _ = walk_circuit(adj, v)
            for w in vertices:
                visited[w] = True
            circuits.append(edges)
    return tuple(circuits), paths


def cut_color_profile(
    c: Coloring4, cut: EdgeCut | frozenset[int]
) -> tuple[int, int, int, int]:
    """Counts of cut edges per color, ``(c0, c1, c2, c3)``."""
    edge_ids = cut.edges if isinstance(cut, EdgeCut) else cut
    counts = [0, 0, 0, 0]
    for eid in edge_ids:
        counts[c.colors[eid]] += 1
    return tuple(counts)  # type: ignore[return-value]
