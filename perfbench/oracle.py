"""Expected values by methods that share no code with ``nzflow``.

* :func:`oddness` tries a 3-edge-colouring first (oddness 0) and otherwise
  enumerates every perfect matching and counts odd circuits in its
  complementary 2-factor.
* :func:`cyclic_by_vertex_subsets` tries every vertex bipartition, so it
  only suits small graphs; :func:`cyclic_by_edge_subsets` tries every edge
  set of up to a given size.

Graphs are ``(n, edges)`` with edges as vertex pairs.
"""

from __future__ import annotations

from itertools import combinations


def _adjacency(n: int, edges) -> list[list[tuple[int, int]]]:
    adj = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(edges):
        adj[u].append((eid, v))
        adj[v].append((eid, u))
    return adj


def is_connected_bridgeless(n: int, edges) -> bool:
    """Connected and 2-edge-connected, by deleting each edge in turn."""
    adj = _adjacency(n, edges)

    def connected(skip: int) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            for eid, w in adj[stack.pop()]:
                if eid != skip and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == n

    return connected(-1) and all(connected(e) for e in range(len(edges)))


def three_edge_colourable(n: int, edges) -> bool:
    """Backtracking that always colours the edge with the fewest colours
    left; an edge with one colour left is thereby a forced move."""
    m = len(edges)
    colour = [0] * m
    used = [0] * n  # bitmask of colours 1..3 at each vertex

    def free(eid: int) -> int:
        u, v = edges[eid]
        return 0b1110 & ~(used[u] | used[v])

    def search(left: int) -> bool:
        if left == 0:
            return True
        best, best_free, best_count = -1, 0, 4
        for eid in range(m):
            if colour[eid]:
                continue
            f = free(eid)
            c = bin(f).count("1")
            if c < best_count:
                best, best_free, best_count = eid, f, c
                if c <= 1:
                    break
        if best_count == 0:
            return False
        u, v = edges[best]
        for c in (1, 2, 3):
            bit = 1 << c
            if not best_free & bit:
                continue
            colour[best] = c
            used[u] |= bit
            used[v] |= bit
            if search(left - 1):
                return True
            colour[best] = 0
            used[u] &= ~bit
            used[v] &= ~bit
        return False

    return search(m)


def _odd_circuits(n: int, edges, matching: set[int]) -> int:
    """Odd circuits of the 2-factor left by removing ``matching``."""
    adj = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(edges):
        if eid not in matching:
            adj[u].append(v)
            adj[v].append(u)
    seen = [False] * n
    odd = 0
    for start in range(n):
        if seen[start]:
            continue
        size, stack = 0, [start]
        seen[start] = True
        while stack:
            x = stack.pop()
            size += 1
            for w in adj[x]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        odd += size % 2
    return odd


def oddness_by_matchings(n: int, edges) -> int:
    """Minimum odd-circuit count over all 2-factors of a cubic graph."""
    adj = _adjacency(n, edges)
    matched = [False] * n
    chosen: set[int] = set()
    best = [n + 1]

    def rec() -> None:
        v = next((u for u in range(n) if not matched[u]), None)
        if v is None:
            best[0] = min(best[0], _odd_circuits(n, edges, chosen))
            return
        matched[v] = True
        for eid, w in adj[v]:
            if not matched[w] and best[0]:
                matched[w] = True
                chosen.add(eid)
                rec()
                chosen.discard(eid)
                matched[w] = False
        matched[v] = False

    rec()
    if best[0] > n:
        raise ValueError("graph has no perfect matching")
    return best[0]


def oddness(n: int, edges) -> int:
    return 0 if three_edge_colourable(n, edges) else oddness_by_matchings(n, edges)


def _cyclic_parts(n: int, adj, removed) -> int:
    """Number of components of G - removed edges that contain a cycle."""
    seen = [False] * n
    parts = 0
    for start in range(n):
        if seen[start]:
            continue
        verts, degree_sum, stack = 0, 0, [start]
        seen[start] = True
        while stack:
            x = stack.pop()
            verts += 1
            for eid, w in adj[x]:
                if eid in removed:
                    continue
                degree_sum += 1
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        if degree_sum // 2 >= verts:
            parts += 1
    return parts


def cyclic_by_edge_subsets(n: int, edges, max_size: int) -> int | None:
    """Smallest edge set of size <= ``max_size`` whose removal leaves two
    components with cycles, or None when there is none that small."""
    adj = _adjacency(n, edges)
    for size in range(1, max_size + 1):
        for removed in combinations(range(len(edges)), size):
            if _cyclic_parts(n, adj, set(removed)) >= 2:
                return size
    return None


def cyclic_by_vertex_subsets(n: int, edges):
    """Cyclic edge-connectivity over every vertex bipartition, or
    ``"vacuous"`` when no two disjoint cycles exist."""
    best = None
    for mask in range(1, 1 << (n - 1)):
        side = [(mask >> v) & 1 for v in range(n)]  # vertex n-1 stays outside
        cut = sum(1 for u, v in edges if side[u] != side[v])
        if best is not None and cut >= best:
            continue
        if _side_has_cycle(n, edges, side, 1) and _side_has_cycle(n, edges, side, 0):
            best = cut
    return "vacuous" if best is None else best


def _side_has_cycle(n: int, edges, side, which: int) -> bool:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        if side[u] == which and side[v] == which:
            ru, rv = find(u), find(v)
            if ru == rv:
                return True
            parent[ru] = rv
    return False
