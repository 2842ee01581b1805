"""Named cubic graphs and a deterministic corpus generator.

Everything here is reproducible: fixed constructions, fixed seeds, and
sampling deduplicated up to isomorphism by :func:`canonical_form`.
"""

from __future__ import annotations

import random
from functools import lru_cache

from .graph import MultiGraph, bridges, components
from .symmetry import canonical_form


def complete_graph(n: int) -> MultiGraph:
    return MultiGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def k4() -> MultiGraph:
    return complete_graph(4)


def k33() -> MultiGraph:
    return MultiGraph(6, [(i, 3 + j) for i in range(3) for j in range(3)])


def generalized_petersen(n: int, k: int) -> MultiGraph:
    """Outer n-cycle 0..n-1, spokes to inner vertices n..2n-1 with step k."""
    if not 1 <= k < (n + 1) // 2:
        raise ValueError("inner step must satisfy 1 <= k < n/2")
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))
    for i in range(n):
        edges.append((i, n + i))
    inner = {
        (min(n + i, n + (i + k) % n), max(n + i, n + (i + k) % n))
        for i in range(n)
    }
    edges.extend(sorted(inner))
    return MultiGraph(2 * n, edges)


def petersen() -> MultiGraph:
    return generalized_petersen(5, 2)


def prism(n: int) -> MultiGraph:
    return generalized_petersen(n, 1)


def flower_snark(k: int) -> MultiGraph:
    """Flower snark on 4k vertices; a snark for odd k >= 5.

    Per segment i: a center ``c_i = 4i`` joined to three outer vertices
    ``u_i = 4i+1`` on a k-cycle and ``v_i = 4i+2``, ``w_i = 4i+3`` on a
    common 2k-cycle.
    """
    if k < 3 or k % 2 == 0:
        raise ValueError("flower snarks need odd k >= 3")
    c = lambda i: 4 * (i % k)
    u = lambda i: 4 * (i % k) + 1
    v = lambda i: 4 * (i % k) + 2
    w = lambda i: 4 * (i % k) + 3
    edges = []
    for i in range(k):
        edges += [(c(i), u(i)), (c(i), v(i)), (c(i), w(i))]
        edges.append((u(i), u(i + 1)))
    for i in range(k - 1):
        edges.append((v(i), v(i + 1)))
        edges.append((w(i), w(i + 1)))
    edges.append((v(k - 1), w(0)))
    edges.append((w(k - 1), v(0)))
    return MultiGraph(4 * k, edges)


def triangle_ring(r: int = 4) -> MultiGraph:
    """Ring of r triangles joined by a matching; handy 2-factor fixture.

    The r triangles form a 2-factor with r odd circuits, so this small graph
    exercises the multi-path machinery without needing large oddness.
    """
    if r < 3 or r % 2:
        raise ValueError("need an even ring of at least 4 triangles")
    edges = []
    for i in range(r):
        a, b, c = 3 * i, 3 * i + 1, 3 * i + 2
        edges += [(a, b), (b, c), (a, c)]
    for i in range(r):
        edges.append((3 * i + 1, 3 * ((i + 1) % r)))
    for i in range(r // 2):
        edges.append((3 * i + 2, 3 * (i + r // 2) + 2))
    return MultiGraph(3 * r, edges)


def petersen_minus_vertex() -> tuple[MultiGraph, tuple[int, int, int]]:
    """The Petersen graph with vertex 9 removed; returns its three
    degree-2 stubs."""
    p = petersen()
    edges = [(u, v) for (u, v) in p.edges if 9 not in (u, v)]
    stubs = tuple(sorted(w for (u, v) in p.edges if 9 in (u, v) for w in (u, v) if w != 9))
    return MultiGraph(9, edges), stubs  # type: ignore[return-value]


def oddness4_snark() -> MultiGraph:
    """A 36-vertex snark whose every 2-factor has at least four odd circuits.

    Four disjoint copies of the Petersen graph minus a vertex, wired up at
    their stubs.  Any 2-factor meets each copy's 3-cut in 0 or 2 edges, and
    either way the copy is forced to contain an odd circuit (it has no even
    spanning configuration), so the oddness is at least 4; the test suite
    confirms it is exactly 4.
    """
    block, stubs = petersen_minus_vertex()
    edges = []
    for j in range(4):
        off = 9 * j
        edges += [(u + off, v + off) for (u, v) in block.edges]
    s = [tuple(x + 9 * j for x in stubs) for j in range(4)]
    for j in range(4):
        edges.append((s[j][0], s[(j + 1) % 4][1]))
    edges.append((s[0][2], s[2][2]))
    edges.append((s[1][2], s[3][2]))
    return MultiGraph(36, edges)


def dot_product(
    g: MultiGraph,
    h: MultiGraph,
    g_edges: tuple[int, int],
    h_edge: int,
    swap_first: bool = False,
    swap_second: bool = False,
) -> MultiGraph:
    """Join two cubic graphs: drop two independent edges of ``g`` and two
    adjacent vertices of ``h``, then reconnect the loose ends pairwise.

    Applied to two snarks this yields a snark; Petersen with itself gives
    the 18-vertex snarks.
    """
    e1, e2 = g_edges
    a, b = g.endpoints(e1)
    c, d = g.endpoints(e2)
    if len({a, b, c, d}) != 4:
        raise ValueError("the two removed edges must be independent")
    x, y = h.endpoints(h_edge)
    x_nb = [w for eid, w in h.incident(x) if eid != h_edge and w != y]
    y_nb = [w for eid, w in h.incident(y) if eid != h_edge and w != x]
    if len(x_nb) != 2 or len(y_nb) != 2:
        raise ValueError("removed vertices must be joined by exactly one edge")
    if swap_first:
        x_nb = x_nb[::-1]
    if swap_second:
        y_nb = y_nb[::-1]

    keep = [v for v in range(h.n) if v not in (x, y)]
    relabel = {v: g.n + i for i, v in enumerate(keep)}
    edges = [g.endpoints(e) for e in range(g.m) if e not in (e1, e2)]
    for (u, v) in h.edges:
        if x in (u, v) or y in (u, v):
            continue
        edges.append((relabel[u], relabel[v]))
    edges.append((a, relabel[x_nb[0]]))
    edges.append((b, relabel[x_nb[1]]))
    edges.append((c, relabel[y_nb[0]]))
    edges.append((d, relabel[y_nb[1]]))
    return MultiGraph(g.n + h.n - 2, edges)


@lru_cache(maxsize=1)
def blanusa_snarks() -> tuple[MultiGraph, MultiGraph]:
    """The two 18-vertex snarks, as Petersen-with-Petersen dot products.

    All choice combinations collapse to exactly two isomorphism classes;
    representatives are picked deterministically and ordered by their
    number of perfect matchings (ascending) so the labels are stable.
    """
    p = petersen()
    e1 = next(e for e, (u, v) in enumerate(p.edges) if {u, v} == {0, 1})
    a, b = p.endpoints(e1)
    classes: list[MultiGraph] = []
    seen = set()
    # vary the second removed edge over all positions relative to the first;
    # the second factor's removed vertex pair is immaterial (edge-transitive)
    for e2 in range(p.m):
        c, d = p.endpoints(e2)
        if {a, b} & {c, d}:
            continue
        for sw1 in (False, True):
            for sw2 in (False, True):
                cand = dot_product(p, p, (e1, e2), 0, sw1, sw2)
                form = canonical_form(cand)
                if form not in seen:
                    seen.add(form)
                    classes.append(cand)
        if len(classes) >= 2:
            break
    if len(classes) < 2:
        raise RuntimeError("expected two distinct 18-vertex snarks")

    def matching_count(g: MultiGraph) -> int:
        from .structure import enumerate_two_factors

        return sum(1 for _ in enumerate_two_factors(g))

    first, second = sorted(classes[:2], key=matching_count)
    return first, second


def random_bridgeless_cubic(n: int, rng: random.Random) -> MultiGraph:
    """Uniform-ish simple bridgeless connected cubic graph via pairing."""
    if n % 2 or n < 4:
        raise ValueError("cubic graphs need an even number of vertices >= 4")
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = [(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]
        if any(u == v for u, v in edges):
            continue
        if len({(min(u, v), max(u, v)) for u, v in edges}) != len(edges):
            continue
        g = MultiGraph(n, edges)
        if len(components(g)) != 1 or bridges(g):
            continue
        return g


_CORPUS_SEED = 20240601
_CORPUS_SIZES = {10: 16, 12: 36, 14: 48}


@lru_cache(maxsize=4)
def corpus(max_vertices: int = 14) -> tuple[tuple[str, MultiGraph], ...]:
    """Deterministic corpus of distinct bridgeless cubic graphs.

    Named small graphs plus seeded random samples on 10, 12 and 14 vertices,
    deduplicated up to isomorphism.  The default settings yield more than a
    hundred graphs on at most 14 vertices.
    """
    named = [
        ("K4", k4()),
        ("K3,3", k33()),
        ("prism", prism(3)),
        ("cube", prism(4)),
        ("moebius-ladder-8", _moebius_ladder(8)),
        ("petersen", petersen()),
        ("pentagonal-prism", prism(5)),
        ("gp-6-2", generalized_petersen(6, 2)),
        ("heawood-like-gp-7-2", generalized_petersen(7, 2)),
    ]
    out = [(name, g) for name, g in named if g.n <= max_vertices]
    seen = {canonical_form(g) for _, g in out}
    rng = random.Random(_CORPUS_SEED)
    for n, want in _CORPUS_SIZES.items():
        if n > max_vertices:
            continue
        bucket = [g for _, g in out if g.n == n]
        attempts = 0
        while len([g for _, g in out if g.n == n]) - len(bucket) < want:
            attempts += 1
            if attempts > 40 * want:
                break
            g = random_bridgeless_cubic(n, rng)
            form = canonical_form(g)
            if form in seen:
                continue
            seen.add(form)
            idx = len([x for x in out if x[1].n == n])
            out.append((f"rand-{n}-{idx}", g))
    return tuple(out)


def _moebius_ladder(n: int) -> MultiGraph:
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, i + n // 2) for i in range(n // 2)]
    return MultiGraph(n, edges)
