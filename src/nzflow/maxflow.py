"""Dinic max-flow on small integer networks."""

from __future__ import annotations

from collections import deque


class MaxFlow:
    """Integer max-flow network.  Arc ids come in (forward, reverse) pairs."""

    def __init__(self, n: int):
        self.n = n
        self._to: list[int] = []
        self._cap: list[int] = []
        self._adj: list[list[int]] = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int, cap: int) -> int:
        """Add a directed arc ``u -> v``; returns its arc id."""
        return self.add_edges([(u, v, cap)])

    def add_edges(self, arcs) -> int:
        """Add ``(u, v, cap)`` arcs in order; returns the first one's id.

        The i-th arc gets id ``first + 2*i``, exactly as if each had been
        added by :meth:`add_edge`.
        """
        first = arc = len(self._to)
        to, cap, adj = self._to, self._cap, self._adj
        for (u, v, c) in arcs:
            to += (v, u)
            cap += (c, 0)
            adj[u].append(arc)
            adj[v].append(arc + 1)
            arc += 2
        return first

    def flow_on(self, arc: int) -> int:
        """Flow on a forward arc (an id returned by :meth:`add_edge`)."""
        return self._cap[arc ^ 1]

    def _bfs_levels(self, s: int, t: int) -> list[int] | None:
        """BFS levels from ``s``, or None if ``t`` is unreachable.

        The search stops once ``t`` is labelled: every vertex nearer than
        ``t`` is labelled by then, and the ones it leaves out could only be
        dead ends of the blocking-flow search, so the flow is unchanged.
        """
        to, cap, adj = self._to, self._cap, self._adj
        level = [-1] * self.n
        level[s] = 0
        q = deque([s])
        while q:
            v = q.popleft()
            nxt = level[v] + 1
            for arc in adj[v]:
                w = to[arc]
                if cap[arc] > 0 and level[w] == -1:
                    level[w] = nxt
                    if w == t:
                        return level
                    q.append(w)
        return None

    def max_flow(self, s: int, t: int) -> int:
        """Dinic: per BFS phase, push along level-increasing paths found by
        a depth-first search that keeps one current-arc pointer per vertex
        and retreats from dead ends.  The search is iterative; it tries arcs
        in insertion order, so equal networks get equal per-arc flows."""
        to, cap, adj = self._to, self._cap, self._adj
        total = 0
        while True:
            level = self._bfs_levels(s, t)
            if level is None:
                return total
            it = [0] * self.n
            path: list[int] = []  # arcs from s to v
            v = s
            while True:
                if v == t:
                    pushed = min(cap[a] for a in path)
                    for a in path:
                        cap[a] -= pushed
                        cap[a ^ 1] += pushed
                    total += pushed
                    path.clear()
                    v = s
                    continue
                arcs = adj[v]
                i = it[v]
                end = len(arcs)
                want = level[v] + 1
                while i < end:
                    a = arcs[i]
                    if cap[a] > 0 and level[to[a]] == want:
                        break
                    i += 1
                it[v] = i
                if i < end:
                    path.append(a)
                    v = to[a]
                elif path:  # dead end: retreat and skip the arc that led here
                    v = to[path.pop() ^ 1]
                    it[v] += 1
                else:
                    break

    def reachable(self, s: int) -> set[int]:
        """Vertices reachable from ``s`` in the residual network."""
        return self._search(s, 0)

    def reaching(self, t: int) -> set[int]:
        """Vertices from which ``t`` is reachable in the residual network."""
        return self._search(t, 1)

    def _search(self, start: int, flip: int) -> set[int]:
        # follow arc ``a`` if the residual arc ``a ^ flip`` has capacity
        to, cap, adj = self._to, self._cap, self._adj
        seen = {start}
        q = deque([start])
        while q:
            v = q.popleft()
            for arc in adj[v]:
                w = to[arc]
                if cap[arc ^ flip] > 0 and w not in seen:
                    seen.add(w)
                    q.append(w)
        return seen

