"""Automorphism groups and canonical forms by individualization-refinement.

One search engine (McKay & Piperno, *Practical graph isomorphism, II*,
J. Symb. Comput. 2014) serves both questions.  A node of the search tree is
an ordered partition of the vertices, refined until it is equitable (every
vertex of a cell has as many neighbours in each cell as every other); a
child individualizes one vertex of the node's first non-singleton cell, and
the leaves are the discrete partitions.  Every step depends only on the
partition, never on vertex labels, so an automorphism that fixes a node's
individualized vertices maps the node to itself and its children onto each
other.

Two leaves that relabel the edge multiset to the same sorted edge list
differ by an automorphism, read off position by position; equal edge lists
are its verification.  Each such automorphism prunes the search twice:

* the subtree the newer leaf lies in, below the node where its path leaves
  the older leaf's, is the image of a subtree already searched, so the
  search jumps back to that node;
* at every node, a child in the orbit of an already searched child under
  the automorphisms found so far that fix the node's individualized
  vertices is skipped.

:func:`canonical_form` searches every child that survives the pruning, so
it sees the least relabelled edge list among all leaves.
:func:`automorphisms` wants only the group.  Off the first path (the path
of first children) it drops a node as soon as its refinement departs from
the first path's at the same depth: the refinement is the same on
equivalent nodes, so no leaf below such a node is equivalent to the first
leaf.  Each child of a first-path node is thus searched until it meets a
leaf equivalent to one already seen, or runs out; that settles the child's
orbit under the automorphisms fixing the node's individualized vertices,
and these orbits, level by level, give generators of the whole group.
"""

from __future__ import annotations

from collections import deque

from .graph import MultiGraph


class _Partition:
    """An ordered partition of ``0..n-1``.

    ``lab`` lists the vertices cell by cell and ``pos`` inverts it; a cell
    is named by its first position, ``col[v]`` is the cell of ``v`` and
    ``size[c]`` the size of cell ``c``.
    """

    __slots__ = ("lab", "pos", "col", "size", "cells")

    def __init__(self, lab, pos, col, size, cells):
        self.lab, self.pos, self.col, self.size, self.cells = lab, pos, col, size, cells

    @classmethod
    def unit(cls, n: int) -> "_Partition":
        size = [0] * n
        if n:
            size[0] = n
        return cls(list(range(n)), list(range(n)), [0] * n, size, 1 if n else 0)

    def copy(self) -> "_Partition":
        return _Partition(
            self.lab[:], self.pos[:], self.col[:], self.size[:], self.cells
        )

    def target(self) -> int:
        """The first cell with more than one vertex, or -1 if discrete."""
        c, n, size = 0, len(self.lab), self.size
        while c < n:
            if size[c] > 1:
                return c
            c += size[c]
        return -1

    def individualize(self, c: int, v: int) -> int:
        """Move ``v`` out of cell ``c`` into a cell of its own at the
        cell's last position, and return that position."""
        lab, pos = self.lab, self.pos
        last = c + self.size[c] - 1
        x, p = lab[last], pos[v]
        lab[p], pos[x] = x, p
        lab[last], pos[v] = v, last
        self.size[c] -= 1
        self.size[last] = 1
        self.col[v] = last
        self.cells += 1
        return last


def _refine(nbrs, part: _Partition, splitters, trace: list, ref) -> bool:
    """Refine ``part`` in place to the coarsest equitable partition finer
    than it, given that it is equitable relative to every cell but those in
    ``splitters``.

    Each splitter cell counts, for every vertex, its neighbours in the
    cell; every cell it touches splits by that count, the pieces ordered by
    count (uncounted vertices first, where they stay).  A piece becomes a
    splitter unless its cell was stable and it is that cell's first largest
    piece (the neighbour counts into it follow from the others').  Each
    split appends ``(splitter, cell, ((count, size), ...))`` to ``trace``;
    with a reference trace ``ref`` the refinement stops at the first event
    that differs from it, or at a different length, and returns False.
    """
    lab, pos, col, size = part.lab, part.pos, part.col, part.size
    n = len(lab)
    queue = deque(splitters)
    queued = set(splitters)
    while queue and part.cells < n:
        s = queue.popleft()
        queued.discard(s)
        count: dict[int, int] = {}
        for v in lab[s:s + size[s]]:
            for w in nbrs[v]:
                count[w] = count.get(w, 0) + 1
        touched: dict[int, list[int]] = {}
        for w in count:
            c = col[w]
            if size[c] > 1:
                touched.setdefault(c, []).append(w)
        for c in sorted(touched):
            hit = touched[c]
            hit.sort(key=count.__getitem__)
            h, cs = len(hit), size[c]
            if h == cs and count[hit[0]] == count[hit[-1]]:
                continue
            # the counted vertices move to the end of the cell, by count
            end = c + cs
            t = end - h
            for w in hit:
                p, x = pos[w], lab[t]
                lab[p], pos[x] = x, p
                lab[t], pos[w] = w, t
                t += 1
            pieces = []
            if h < cs:
                size[c] = cs - h
                pieces.append((c, cs - h, 0))
            i = end - h
            while i < end:
                k = count[lab[i]]
                j = i
                while j < end and count[lab[j]] == k:
                    col[lab[j]] = i
                    j += 1
                size[i] = j - i
                pieces.append((i, j - i, k))
                i = j
            part.cells += len(pieces) - 1
            event = (s, c, tuple((k, sz) for _, sz, k in pieces))
            if ref is not None and (len(trace) >= len(ref) or ref[len(trace)] != event):
                return False
            trace.append(event)
            if c in queued:
                keep = 0
            else:
                keep = max(range(len(pieces)), key=lambda i: (pieces[i][1], -i))
            for i, (start, _, _) in enumerate(pieces):
                if i != keep and start not in queued:
                    queue.append(start)
                    queued.add(start)
    return ref is None or len(trace) == len(ref)


class _Frame:
    """A node on the search stack with the state of its children."""

    __slots__ = ("part", "prefix", "target", "children", "next", "tried", "first", "orbit", "seen")

    def __init__(self, part: _Partition, prefix: tuple[int, ...], first: bool):
        self.part = part
        self.prefix = prefix  # the individualized vertices, in order
        self.target = part.target()
        size = part.size[self.target]
        self.children = sorted(part.lab[self.target:self.target + size])
        self.next = 0
        self.tried: list[int] = []
        self.first = first  # on the first path of the search
        self.orbit: list[int] | None = None  # union-find over the vertices
        self.seen = 0  # generators already merged into ``orbit``

    def pruned(self, w: int, gens: list[list[int]]) -> bool:
        """Whether an automorphism found so far that fixes ``prefix`` maps
        ``w`` to a child already tried."""
        if len(gens) > self.seen:
            if self.orbit is None:
                self.orbit = list(range(len(self.part.lab)))
            for gamma in gens[self.seen:]:
                if all(gamma[v] == v for v in self.prefix):
                    for v, x in enumerate(gamma):
                        _union(self.orbit, v, x)
            self.seen = len(gens)
        if self.orbit is None:
            return False
        root = _find(self.orbit, w)
        return any(_find(self.orbit, x) == root for x in self.tried)


def _find(parent: list[int], v: int) -> int:
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def _union(parent: list[int], a: int, b: int) -> None:
    a, b = _find(parent, a), _find(parent, b)
    if a != b:
        parent[max(a, b)] = min(a, b)


def _leaf_form(edges, col) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(
        (col[u], col[v]) if col[u] < col[v] else (col[v], col[u]) for u, v in edges
    ))


def _search(g: MultiGraph, full: bool, spend=None):
    """Generators found by the search, and the least leaf form when
    ``full`` (every child not pruned is searched) or None."""
    n = g.n
    nbrs = [[w for _, w in g.incident(v)] for v in range(n)]
    root = _Partition.unit(n)
    _refine(nbrs, root, [0], [], None)
    gens: list[list[int]] = []
    if root.cells == n:
        return gens, _leaf_form(g.edges, root.col) if full else None
    leaves: dict[tuple, tuple[list[int], tuple[int, ...]]] = {}
    best = None
    first_traces: list[list] = []  # refinement events along the first path
    stack = [_Frame(root, (), True)]
    while stack:
        f = stack[-1]
        w = None
        while f.next < len(f.children):
            x = f.children[f.next]
            f.next += 1
            if not f.pruned(x, gens):
                w = x
                break
        if w is None:
            stack.pop()
            continue
        on_first = f.first and not f.tried
        f.tried.append(w)
        if spend is not None:
            spend()
        part = f.part.copy()
        trace: list = []
        ref = None if full or on_first else first_traces[len(f.prefix)]
        if not _refine(nbrs, part, [part.individualize(f.target, w)], trace, ref):
            continue
        if on_first:
            first_traces.append(trace)
        prefix = f.prefix + (w,)
        if part.cells < n:
            stack.append(_Frame(part, prefix, on_first))
            continue
        form = _leaf_form(g.edges, part.col)
        if full and (best is None or form < best):
            best = form
        seen = leaves.get(form)
        if seen is None:
            leaves[form] = (part.lab, prefix)
            continue
        lab, other = seen
        gamma = [0] * n
        for p, v in enumerate(lab):
            gamma[v] = part.lab[p]
        gens.append(gamma)
        # the subtree below the node where the two paths part is the
        # image under gamma of one already searched
        k = 0
        while other[k] == prefix[k]:
            k += 1
        del stack[k + 1:]
    return gens, best


def automorphisms(g: MultiGraph, spend=None) -> list[list[int]]:
    """Generators of the automorphism group of ``g``, each a vertex
    permutation as a list; ``spend()`` is called once per search node.

    Each generator maps the edge multiset onto itself: two leaves with the
    same relabelled edge list define it.
    """
    return _search(g, full=False, spend=spend)[0]


def orbits(n: int, gens: list[list[int]]) -> list[int]:
    """The least vertex of each vertex's orbit under ``gens``."""
    parent = list(range(n))
    for gamma in gens:
        for v, x in enumerate(gamma):
            _union(parent, v, x)
    return [_find(parent, v) for v in range(n)]


def canonical_form(g: MultiGraph) -> tuple[int, tuple[tuple[int, int], ...]]:
    """A form that two graphs share exactly when they are isomorphic.

    The least edge list relabelled by a leaf of the search (each vertex
    becomes its leaf position), over the leaves that survive automorphism
    pruning; a pruned subtree is the image of a searched one under an
    automorphism fixing the path to it, so it holds the same relabelled
    edge lists.  Isomorphic graphs have search trees that correspond, so
    they share the least one.
    """
    return g.n, _search(g, full=True)[1]
