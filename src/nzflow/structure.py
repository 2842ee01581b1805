"""2-factor enumeration, oddness, and cyclic edge-connectivity of cubic graphs.

A 2-factor of a cubic graph is the complement of a perfect matching, so both
are enumerated by deterministic backtracking over ascending edge ids, on an
explicit stack rather than by recursion.  The
oddness search additionally tracks circuits of the complement as they close,
matches at once each vertex left with one possible partner, and prunes
branches that can no longer beat the current best.  A dynamic program over
a vertex order's frontier decides 3-edge-colourability, which lets that
search stop before exhausting the matchings of a snark; the order is the
one of least cost bound among a few starts, so it does not hang on the
labels.  A DP step whose input repeats one of its last ``_MEMO_STEPS``
steps, as along the ring of a flower snark, reuses that step's states
instead of growing them again, for the same units and yields.  Once the
search has spent 4n units, it starts that DP and steps it one vertex at
a time, dovetailed with its own work (run ahead to its
verdict once the search holds two odd circuits and the DP's remaining
bound fits in the search's own work), and probes, on a
doubling schedule, for a barrier that leaves a node's unmatched vertices
without a perfect matching (an odd component, or a bipartite one with
unequal colour classes), then cuts that node's subtree.  Each matching
choice, forced ones included, each DP state, each vertex a probe visits
and n units for each order scored cost one work unit each.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from collections import deque
from functools import partial
from itertools import chain, permutations
from typing import Callable, Iterator, NamedTuple

from .errors import DEFAULT_MAX_WORK, Budget, InternalInconsistencyError
from .graph import EdgeCut, MultiGraph, basic_checks, edge_cut, walk_circuit
from .symmetry import automorphisms, orbits


class TwoFactor(NamedTuple):
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


class OddnessResult(NamedTuple):
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
    vertex and tries its incident edges in ascending id order.  It runs on
    an explicit stack of (vertex, untried incident edges) frames, so its
    depth is not bounded by Python's recursion limit.
    """
    _require_cubic(g)
    matched = [False] * g.n
    chosen: list[int] = []  # the matching edge of every frame with a child open
    frames: list[tuple[int, Iterator]] = []
    while True:
        # enter a node
        v = next((u for u in range(g.n) if not matched[u]), None)
        if v is None:
            yield two_factor_from_matching(g, chosen)
        else:
            matched[v] = True
            frames.append((v, iter(g.incident(v))))
        # close the open child of the deepest frame and open its next one
        while frames:
            v, untried = frames[-1]
            if len(chosen) == len(frames):
                matched[g.other_end(chosen.pop(), v)] = False
            step = next(((eid, w) for eid, w in untried if not matched[w]), None)
            if step is not None:
                eid, w = step
                matched[w] = True
                chosen.append(eid)
                break
            matched[v] = False
            frames.pop()
        else:
            return


def _frontier_order(
    g: MultiGraph, start: int, fcfs: bool = True, cap: int | float = math.inf
) -> tuple[list[int], int]:
    """Vertex order for the frontier DP from ``start``, and the bound B on
    the units :func:`_frontier_colourable` spends along it.

    The next vertex is the one with the most edges to placed vertices.
    Ties go first-come, first-served: among equal counts the vertex that
    reached its count first wins.  So one FIFO queue per count, which a
    vertex joins when its count rises to that count, keeps the order in
    O(m): stale entries (placed, or whose count grew) are skipped at the
    front, and a vertex joins each queue at most once.  With ``fcfs``
    false ties go to the lowest id instead, which follows the labels, and
    the queues are heaps: O(m log n).  A vertex with no placed neighbour,
    which starts a new component, is the lowest unplaced id either way.

    The bound: let w_i be the frontier width (the number of edges with
    exactly one placed end) entering the i-th vertex v_i, and k_i its edges
    to placed vertices.  The DP spends, before placing v_i, the number S_i
    of its states.  S_0 = 1.  Placing v_i gives its 3 - k_i other edges the
    colours its incoming edges leave, in every order, so each state grows
    into at most _GROWTH[k_i] words, and renaming colours only merges
    words: S_{i+1} <= S_i * _GROWTH[k_i].  S_{i+1} is also at most
    :func:`_state_bound` of w_{i+1}.  So S_i <= B_i, where B_0 = 1 and
    B_{i+1} = min(_state_bound(w_{i+1}), B_i * _GROWTH[k_i]), and the DP
    spends at most B, the sum of the B_i.  B is summed as the order grows;
    once it reaches ``cap`` the build stops and returns the order so far
    with that partial sum, which is at most the whole B and at least
    ``cap``.
    """
    n = g.n
    incidence = g.incidence
    placed = [False] * n
    count = [0] * n  # edges to placed vertices
    if fcfs:
        queues = [deque() for _ in range(4)]
        push, pop = deque.append, deque.popleft
    else:
        queues = [[] for _ in range(4)]
        push, pop = heapq.heappush, heapq.heappop
    fresh = chain((start,), range(n))  # count 0: the start, then by id
    order: list[int] = []
    width = 0
    bound = total = 1
    for _ in range(n):
        for k in (3, 2, 1):
            queue = queues[k]
            while queue and (placed[queue[0]] or count[queue[0]] != k):
                pop(queue)
            if queue:
                v = pop(queue)
                break
        else:
            # every unplaced vertex has count 0: each one of count k has an
            # entry in queue k, and only stale entries were skipped
            k = 0
            v = next(u for u in fresh if not placed[u])
        placed[v] = True
        order.append(v)
        for _, w in incidence[v]:
            if not placed[w]:
                count[w] += 1
                push(queues[count[w]], w)
        width += 3 - 2 * k
        if len(order) < n:
            bound = min(_state_bound(width), bound * _GROWTH[k])
            total += bound
            if total >= cap:
                break
    return order, total


def _state_bound(width: int) -> int:
    """Upper bound on the DP's states over a frontier of ``width`` edges.

    By the parity lemma every colour appears on the frontier a number of
    times congruent to ``width`` mod 2.  There are (3^w + 3(-1)^w)/4 such
    words and, by Burnside, (3^w + 15)/24 classes under colour renaming for
    even w >= 2, (3^w - 3)/24 for odd w and 1 for w = 0: this bound equals
    the count for even w and exceeds it by one for odd w.
    """
    return (3**width + 3) // 24 + 1


# _GROWTH[k]: the most words one state grows into at a vertex with k edges
# to placed vertices, which gives its 3 - k other edges the colours left in
# every order
_GROWTH = (6, 2, 1, 1)

# the first-come, first-served starts :func:`_best_order` scores, evenly
# spaced by id
_ORDER_STARTS = 8


def _best_order(g: MultiGraph, spend) -> list[int]:
    """The :func:`_frontier_order` of least bound B, the first on ties,
    among the lowest-id order from vertex 0 and the first-come,
    first-served orders from ``_ORDER_STARTS`` starts evenly spaced by id.

    The lowest-id order follows the labels, which a constructor often lays
    out along a narrow frontier; the others do not depend on the labels
    beyond their starts.  A first-come, first-served order is built in
    O(m), the lowest-id one in O(m log n).  Each is built with the least B
    so far as its cap: B only grows as the order does, so a start whose
    partial sum reaches that cap cannot win, and it is dropped there.
    ``spend`` is charged n units for each start, whether built whole or
    dropped.  Any order gives the DP's verdict, so the choice changes only
    its cost.
    """
    candidates = [(0, False)]
    candidates += [
        (start, True)
        for start in sorted({i * g.n // _ORDER_STARTS for i in range(_ORDER_STARTS)})
    ]
    best_bound: int | float = math.inf
    best: list[int] = []
    for start, fcfs in candidates:
        spend(g.n)
        order, bound = _frontier_order(g, start, fcfs, best_bound)
        if bound < best_bound:
            best_bound, best = bound, order
    return best


def _frontier_profile(g: MultiGraph, order: list[int]) -> list[tuple[int, int]]:
    """For each vertex v_i of the whole ``order``, the pair
    (_state_bound(w_i), _GROWTH[k_i]) of :func:`_frontier_order`'s bound:
    w_i is the frontier width entering v_i and k_i its edges to earlier
    vertices."""
    incidence = g.incidence
    position = [0] * g.n
    for i, v in enumerate(order):
        position[v] = i
    profile = []
    width = 0
    for i, v in enumerate(order):
        k = sum(position[w] < i for _, w in incidence[v])
        profile.append((_state_bound(width), _GROWTH[k]))
        width += 3 - 2 * k
    return profile


def _remaining_bound(
    profile: list[tuple[int, int]], i: int, states: int, cap: int | float = math.inf
) -> int:
    """A bound on the units :func:`_frontier_colourable` spends from the
    i-th vertex of its order on, when it holds ``states`` states there;
    ``profile`` is the order's :func:`_frontier_profile`.

    The bound is the sum of B'_j over j >= i, where B'_i = ``states`` and
    B'_{j+1} = min(_state_bound(w_{j+1}), B'_j * _GROWTH[k_j]): the
    recurrence of :func:`_frontier_order`, started from a real count S_i
    instead of B_i.  Its proof carries over: the DP spends S_j at the j-th
    vertex, S_{j+1} <= S_j * _GROWTH[k_j] and S_{j+1} <= _state_bound(w_{j+1}),
    so S_j <= B'_j by induction from S_i = B'_i, and a DP left without
    states spends nothing more.  Every term is at least 1.  The sum stops
    once it passes ``cap``, and that partial sum is returned.
    """
    bound = total = states
    for j in range(i + 1, len(profile)):
        if total > cap:
            break
        bound = min(profile[j][0], bound * profile[j - 1][1])
        total += bound
    return total


class _DovetailedDP:
    """The frontier DP of an oddness search, stepped against the search's
    own units (every unit but the DP's), with its run-ahead check.

    ``verdict`` is None until the DP has given it.  ``check_at``: the
    search's own units before which no run-ahead check runs again, after
    one failed.
    """

    __slots__ = ("budget", "n", "steps", "profile", "held", "placed", "units",
                 "check_at", "verdict")

    def __init__(self, g: MultiGraph, budget: Budget):
        order = _best_order(g, budget.spend)
        self.budget = budget
        self.n = g.n
        self.steps = _frontier_colourable(g, order, budget.spend)
        self.profile = _frontier_profile(g, order)
        self.held = 1  # the states the DP holds: its next step's units
        self.placed = 0  # the vertices of the order it has placed
        self.units = 0  # the units the DP has spent
        self.check_at = 0
        self.verdict: bool | None = None

    @property
    def due(self) -> int | float:
        """The work at which the search's own units reach the DP's."""
        return math.inf if self.verdict is not None else 2 * self.units

    def step(self) -> None:
        before = self.budget.used
        self.held = next(self.steps)
        self.placed += 1
        self.units += self.budget.used - before
        if not self.held or self.placed == self.n:
            self.verdict = self.held > 0

    def run_ahead(self) -> None:
        """Step the DP to its verdict at once if its remaining bound is at
        most the search's own units; otherwise wait n more of them before
        the next check."""
        own = self.budget.used - self.units
        if _remaining_bound(self.profile, self.placed, self.held, own) <= own:
            while self.verdict is None:
                self.step()
        else:
            self.check_at = own + self.n

    def catch_up(self, witness: bool) -> None:
        """Step the DP for as long as the search's own units are at least
        its own.  With a 2-factor of two odd circuits in hand
        (``witness``), check before each step, once ``check_at`` is
        reached, whether the DP can run ahead."""
        while self.verdict is None and self.budget.used >= 2 * self.units:
            if witness and self.budget.used - self.units >= self.check_at:
                self.run_ahead()
            else:
                self.step()


# _FIRST_APPEARANCE[head]: the bytes.translate table renaming head[0] to 0
# and head[1] to 1, where head holds a word's first colour and its first
# other colour (fewer if the word has fewer colours)
_FIRST_APPEARANCE = {
    bytes(p[:size]): bytes(map(p.index, range(3))) + bytes(253)
    for p in permutations(range(3))
    for size in range(3)
}
# the tables renaming the first two colours of each ordering of all three
_ALL_ORDERS = tuple(_FIRST_APPEARANCE[bytes(p[:2])] for p in permutations(range(3)))
# _BOTH_ORDERS[c]: the tables renaming the two colours other than c, in
# either order
_BOTH_ORDERS = tuple(
    tuple(_FIRST_APPEARANCE[bytes(p[:2])] for p in permutations(range(3)) if p[2] == c)
    for c in range(3)
)
# _THIRD[c + d]: the colour other than the distinct colours c and d, as a
# one-byte word
_THIRD = (b"", b"\2", b"\1", b"\0")


def _renamed(word: bytes) -> bytes:
    """``word`` with its colours renamed in order of first appearance: the
    least of its six relabelings."""
    return word.translate(
        _FIRST_APPEARANCE[word[:1] + word.lstrip(word[:1])[:1]]
    )


def _grow(states: set[bytes], incoming: list[int]) -> set[bytes]:
    """The states one step of :func:`_frontier_colourable` grows from
    ``states`` at a vertex whose incoming edges sit at the ascending
    positions ``incoming`` of the word; its other edges are the rest of
    its three."""
    if not incoming:
        return {b"\0\1\2" + s.translate(t) for s in states for t in _ALL_ORDERS}
    if len(incoming) == 1:
        (i,) = incoming
        return {
            b"\0\1" + (s[:i] + s[i + 1:]).translate(t)
            for s in states
            for t in _BOTH_ORDERS[s[i]]
        }
    if len(incoming) == 2:
        i, j = incoming
        grown = set()
        for s in states:
            if s[i] != s[j]:
                a = _THIRD[s[i] + s[j]]
                head = s[:i] + s[i + 1:j] + s[j + 1:]
                table = _FIRST_APPEARANCE[a + head.lstrip(a)[:1]]
                grown.add(b"\0" + head.translate(table))
        return grown
    i, j, k = incoming
    return {
        _renamed(s[:i] + s[i + 1:j] + s[j + 1:k] + s[k + 1:])
        for s in states
        if 1 << s[i] | 1 << s[j] | 1 << s[k] == 7
    }


# the frontier DP looks a step's grown set up among its last _MEMO_STEPS
# steps: more than the repeat period of every periodic graph measured
# (8 steps on the flower snarks, 4 on prisms, 12 on GP(n, 2), 24 on GP(n, 3))
_MEMO_STEPS = 32


class _StepMemo:
    """The grown sets of the frontier DP's last ``_MEMO_STEPS`` steps whose
    key had already occurred in that window, by key.

    A step's key is (the positions of its incoming edges in the frontier
    word, its number of new edges, its number of states).
    ``recent[key]`` lists ``(step, states, grown)`` for the steps of the
    window with that key, oldest first; the first of them, when no earlier
    step of the window had the key, keeps no sets: ``(step, None, None)``.
    ``window`` holds the key of every step of the window and of the
    current step, oldest first.
    """

    __slots__ = ("steps", "recent", "window")

    def __init__(self) -> None:
        self.steps = 0  # the steps seen, the current one included
        self.recent: dict[tuple, list[tuple]] = {}
        self.window: deque[tuple] = deque()

    def find(self, key: tuple, states: set[bytes]) -> set[bytes] | None:
        """Start the next step: forget the step ``_MEMO_STEPS`` + 1 back,
        and return the grown set of a step of the window with ``key`` whose
        state set is ``states`` itself or, failing that, equal to it, or
        None.  A step found is moved to the current one."""
        step = self.steps
        self.steps += 1
        window = self.window
        window.append(key)
        if len(window) > _MEMO_STEPS + 1:
            old = window.popleft()
            entries = self.recent[old]
            if entries[0][0] == step - _MEMO_STEPS - 1:
                del entries[0]
                if not entries:
                    del self.recent[old]
        entries = self.recent.get(key)
        if not entries:
            return None
        for i in range(len(entries) - 1, -1, -1):
            if entries[i][1] is states:
                break
        else:
            for i in range(len(entries) - 1, -1, -1):
                if entries[i][1] == states:
                    break
            else:
                return None
        grown = entries.pop(i)[2]
        entries.append((step, states, grown))
        return grown

    def keep(self, key: tuple, states: set[bytes], grown: set[bytes]) -> None:
        """Record the current step, which :meth:`find` did not find: with
        its sets if its key occurred in the window, as the key's first
        step otherwise."""
        step = self.steps - 1
        entries = self.recent.get(key)
        if entries:
            entries.append((step, states, grown))
        else:
            self.recent[key] = [(step, None, None)]


def _frontier_colourable(
    g: MultiGraph, order: list[int], spend
) -> Iterator[int]:
    """3-edge-colourability by dynamic programming along ``order``, one
    vertex per step: yields the number of states it holds after each
    vertex, and stops at the first 0.  So the graph is colourable exactly
    when every yield is nonzero, and the DP has given its verdict once it
    has yielded 0 or placed the whole order.

    A state colours the frontier edges (bytes, in frontier order) and is
    stored with its colours renamed by first appearance, the least of its
    six relabelings.  Placing a vertex checks the colours of its edges to
    placed vertices, cuts their positions out of the word (the head), and
    gives its other edges the remaining colours in every order, in front
    of the head.  Those new colours come first, so they fix the renaming:
    with one edge in, colours a and b on the two new edges give
    ``b"\\0\\1" + head`` with a, b renamed to 0, 1; with none in, the three
    new colours give ``b"\\0\\1\\2" + head`` renamed likewise; with two in,
    the one new colour is 0 and the head's first other colour, found by one
    ``lstrip``, is 1.  Only a vertex with three edges in renames its head
    by a scan (:func:`_renamed`).  ``spend(k)`` is charged one unit per
    state expanded.  ``MultiGraph`` has no loops, so every edge has two
    distinct ends.

    The layout changes no step's units.  Let F be the frontier after some
    vertex and C the colourings of F that extend to a proper colouring of
    the edges with a placed end.  The states are the renaming classes of
    C: by induction, since a colouring in C restricts, at the edges it
    keeps and the incoming edges, to one of the previous C, from which
    placing the vertex grows it, and everything grown is in C.  A layout
    reads a colouring c as the word c∘π for a bijection π from positions
    to F, and renaming colours commutes with that reading, so the states
    are in bijection with the classes of C under any layout.  Their number,
    which each step spends, and whether none is left are the same for
    every layout of the frontier.

    The step memo (:class:`_StepMemo`) skips steps that repeat.  A step's
    grown set is a function of three inputs alone: the positions of the
    vertex's incoming edges in the word, its number of new edges and the
    state set (the edge ids and the vertex play no part, and the branch
    taken is fixed by the positions).  The memo's key holds the first two
    and the number of states; a step of the last ``_MEMO_STEPS`` with the
    same key whose state set is the same object (which implies equal) or
    equal has the same three inputs, so its grown set is this step's.
    ``spend`` is charged before the lookup, and the grown set is the same,
    so every step's units and yield are those of the DP without the memo.
    The memory stays bounded: a step keeps its sets only when its key
    occurred in the window before it, entries older than the window are
    dropped, and a match moves its entry to the current step rather than
    adding one, so the memo holds at most ``_MEMO_STEPS`` + 1 steps' sets
    and, on a DP whose keys do not repeat, none.
    """
    incidence = g.incidence
    placed = [False] * g.n
    frontier: list[int] = []  # edge ids with exactly one placed end
    states = {b""}
    memo = _StepMemo()
    for v in order:
        placed[v] = True
        incoming = []
        outgoing = []
        for eid, w in incidence[v]:
            if placed[w]:
                incoming.append(frontier.index(eid))
            else:
                outgoing.append(eid)
        incoming.sort()
        for i in reversed(incoming):
            del frontier[i]
        frontier[:0] = outgoing
        spend(len(states))
        key = (tuple(incoming), len(outgoing), len(states))
        grown = memo.find(key, states)
        if grown is None:
            grown = _grow(states, incoming)
            memo.keep(key, states, grown)
        states = grown
        yield len(states)
        if not states:
            return


def three_edge_colourable(
    g: MultiGraph, *, max_work: int | None = DEFAULT_MAX_WORK
) -> bool:
    """Whether the cubic graph ``g`` has a proper 3-edge-colouring.

    A dynamic program over the frontier of :func:`_best_order`, run to its
    verdict.  Its cost is at most the bound B of that order (see
    :func:`_frontier_order`), which stays small wherever some start gives a
    narrow frontier: on prisms, Möbius ladders, generalized Petersen graphs
    and flower snarks, whatever their labels.  It is charged as inside
    :func:`compute_oddness`, n units for each order scored and one for each
    state, and raises :class:`BudgetExceededError` past ``max_work`` units.
    """
    _require_cubic(g)
    spend = Budget(max_work, "3-edge-colouring").spend
    return all(_frontier_colourable(g, _best_order(g, spend), spend))


def _matching_barrier(incidence, matched: list[bool], start: int, spend) -> bool:
    """Whether G[U], for U the unmatched vertices (none below ``start``),
    visibly has no perfect matching.

    A perfect matching pairs off every component, so a component of odd
    order has none; nor has a bipartite component whose colour classes
    differ in size, since each of its matching edges joins the two classes.
    One BFS 2-colouring over U finds either, stopping at the first such
    component; ``spend`` is charged one unit per vertex it visited.
    """
    colour = [-1] * len(matched)
    visited = 0
    barrier = False
    for root in range(start, len(matched)):
        if matched[root] or colour[root] >= 0:
            continue
        colour[root] = 0
        queue = [root]
        ones = 0
        bipartite = True
        for x in queue:
            cx = colour[x]
            for _, y in incidence[x]:
                if matched[y]:
                    continue
                cy = colour[y]
                if cy < 0:
                    colour[y] = cx ^ 1
                    ones += cx ^ 1
                    queue.append(y)
                elif cy == cx:
                    bipartite = False
        size = len(queue)
        visited += size
        if size % 2 or (bipartite and 2 * ones != size):
            barrier = True
            break
    spend(visited)
    return barrier


class _OddnessSearch:
    """Branch-and-bound over perfect matchings, tracking complement circuits.

    When a vertex gets matched, its two non-matching edges are committed to
    the 2-factor.  The partial 2-factor is a union of paths; a circuit closes
    when an edge joins the two ends of one path, and its parity is then
    final.  A branch dies once its closed odd circuits rule out improving on
    the best complete 2-factor seen so far (odd counts are always even, so
    ``closed_odd >= best - 1`` suffices).

    The search is depth-first on an explicit stack, so its depth is not
    bounded by Python's recursion limit.  Each node matches the lowest
    unmatched vertex and tries its incident edges in ascending id order.
    Every change a child makes goes on one shared undo trail as a tuple
    told apart by its length: ``(v, w)`` for its matched pair, and for each
    2-factor edge ``(eid, a, b)`` if it closed a circuit or ``(eid, a, b,
    ea, eb, la, lb)`` with the path ends and lengths a merge replaced.  So
    a frame is just its vertex, an iterator over its untried incident edges
    and the trail length before its first child.

    Forced matches: once a child has committed its edges, an unmatched
    vertex y with two 2-factor edges is matched at once along its third
    edge (y, z), and z's other edges are committed; vertices are taken in
    the order they got their second 2-factor edge, until none is left.
    Each matching choice, forced ones included, and each DP state costs one
    unit.  A forced pair goes on the trail as a plain ``(y, z)`` record, and
    a conflict kills the branch as it does for a chosen pair.
    This keeps every output.  y's 2-factor edges were committed by
    matching their other ends, so every perfect matching below the node
    contains (y, z).  Without the rule, a node below that matched y or z
    elsewhere would give y a third 2-factor edge and die at once; so when
    the DFS reached min(y, z), every child but (y, z) would die at once.
    The complete 2-factors below the node and their DFS order are thus
    unchanged, and pruning still drops only branches that cannot beat
    ``best``.  Only the work changes.

    Barrier probes: let U be a node's unmatched vertices.  Every edge at a
    matched vertex is decided, and no edge of G[U] is in the 2-factor yet,
    so the node's completions are the perfect matchings of G[U].
    :func:`_matching_barrier` finds a component of G[U] of odd order, or a
    bipartite one with colour classes of unequal size; either leaves G[U]
    without a perfect matching (Tutte's 1-factor condition fails for S
    empty, or for S the smaller colour class, whose removal leaves the
    larger one as isolated vertices), so the node has no completion.  Nor
    has any node below it: a completion there, with the pairs matched
    between the two nodes, would complete the node.  The test costs one
    unit per vertex it visits, so it runs on a schedule, never at every
    node.  The first probe runs at the first node entered once the work
    reaches 4n units, so shorter searches never probe.  A probe that finds
    no barrier doubles ``interval``, the units until the next, so such
    probes cost O(n log W) of W units.  A probe that finds a barrier kills
    its node; the search then tests each frame it returns to that has a
    child left, pops it while the barrier holds, and probes next
    ``interval`` units after the first frame that passes.
    This keeps every output, as forced matches do: a killed node has no
    complete 2-factor below it, so the complete 2-factors below every
    surviving node and their DFS order are unchanged.  Only the work, and
    so the point where the budget runs out, changes.

    The dovetailed DP: the search stops at the first complete 2-factor
    with at most ``floor`` odd circuits.  ``floor`` starts at 0.  The first
    node entered once the work reaches 4n units builds the order of
    :func:`_best_order` (n units per order scored) and starts the DP of
    :func:`_frontier_colourable` (a :class:`_DovetailedDP`).  From then on
    a node steps the DP, one vertex per step, for as long as the search's
    own units (every unit but the DP's) are at least the DP's D, that is
    while the work is at least 2D; that is one more term in the node's
    single ``alarm`` compare.  If the DP finds a colouring, ``floor`` stays
    0; if it finds none, ``floor`` becomes 2, and the search stops at once
    if ``best`` is 2.  Searches that end before 4n units build no order and
    run no DP.
    The run-ahead: once ``best`` is 2, the search can only go on to look
    for an all-even 2-factor, which a graph without a colouring lacks.  So
    while ``best`` is 2 and the DP runs, the DP is checked when that
    2-factor is found and before each of its steps (its start is one): if
    :func:`_remaining_bound`, started from the states it holds, is at most
    the search's own units, the DP steps to its verdict at once.  No
    colouring ends the search with its witness; a colouring leaves
    ``floor`` at 0, and the search goes on alone.  A check walks the
    remaining steps only until its sum passes the search's own units, so at
    most that many plus one; after a failed check the next waits until the
    search has spent n more units, so the checks cost O(own units) in
    time.  They cost no units.  Without that bound a search that holds a 2
    before the DP starts, on a colourable graph whose order's bound is
    huge, would run the whole DP.
    This keeps every output.  The DP only raises ``floor``, and only when
    no 2-factor has fewer than two odd circuits, so whenever the search
    stops, ``best`` is the oddness.  ``best`` changes only on a strict
    improvement, and pruning drops only branches that cannot beat it, so
    the complete 2-factors below each surviving node, and their DFS order,
    are those of an exhaustive search, and the witness is the first
    2-factor in DFS order that attains the oddness, whenever the DP ends,
    or if it never does.  Only the work changes.
    The cost: before a run-ahead the DP has spent at most the search's own
    units plus one step, and the run-ahead adds at most the search's own
    units again, by the remaining bound.  So the whole is at most three
    times the search alone, plus one step.  On a graph without a colouring
    whose search has its witness early, as the flower snarks have, the DP
    runs ahead once its remaining bound fits in the search's own units,
    and the search stops at the DP's verdict.
    """

    def __init__(self, g: MultiGraph, max_work: int | None):
        self.g = g
        self.budget = Budget(max_work, "oddness")
        self.best: int | None = None
        self.best_matching: frozenset[int] | None = None

    def run(self) -> None:
        g = self.g
        n, m = g.n, g.m
        edges = g.edges
        incidence = g.incidence
        matched = [False] * n
        in_factor = [False] * m
        # path bookkeeping for the partial 2-factor
        path_end = list(range(n))  # far end of the path, for end vertices
        path_len = [0] * n  # edge count of the path, stored at its ends
        is_end = [True] * n
        closed_odd = 0
        dead = n + 1  # a branch with this many closed odd circuits dies
        trail: list[tuple] = []  # undo records, oldest first
        frames: list[tuple[int, Iterator, int]] = []  # (vertex, untried, mark)
        spend = self.budget.spend
        # barrier probes: the first once the search has spent 4n units, the
        # next ``interval`` units after a probe that finds none
        interval = 4 * n
        probe_at = interval
        # the frontier DP: started at 4n units too, then stepped whenever the
        # search's own units reach the DP's, that is whenever the work
        # reaches twice the DP's units
        floor = 0  # the search stops at a 2-factor with this many odd circuits
        dp: _DovetailedDP | None = None
        dp_at: int | float = interval
        alarm = interval  # the work at which a node checks both
        unwinding = False  # a probe killed a node: test each frame returned to
        v = 0  # every vertex below v is matched
        while True:
            # enter a node: its vertex is the lowest unmatched one
            while v < n and matched[v]:
                v += 1
            if v == n:
                # a complete 2-factor
                if self.best is None or closed_odd < self.best:
                    self.best = closed_odd
                    self.best_matching = frozenset(
                        eid for eid in range(m) if not in_factor[eid]
                    )
                    if closed_odd <= floor:
                        return
                    dead = closed_odd - 1
                    if closed_odd == 2 and dp is not None and dp.verdict is None:
                        dp.run_ahead()
                        if dp.verdict is False:
                            return  # the DP settled it
                        dp_at = dp.due
                        alarm = min(dp_at, probe_at)
            else:
                used = spend()
                if used >= alarm:
                    if used >= dp_at:
                        if dp is None:
                            dp = _DovetailedDP(g, self.budget)
                        dp.catch_up(self.best == 2)
                        if dp.verdict is False:
                            floor = 2
                            if self.best is not None and self.best <= floor:
                                return  # the DP settled it
                        dp_at = dp.due
                        used = self.budget.used
                    if used >= probe_at and closed_odd < dead:
                        unwinding = _matching_barrier(incidence, matched, v, spend)
                        if not unwinding:
                            interval *= 2
                            probe_at = self.budget.used + interval
                    alarm = min(dp_at, probe_at)
                if closed_odd < dead and not unwinding:
                    frames.append((v, iter(incidence[v]), len(trail)))
            # undo the last child of the deepest frame and enter its next one
            while frames:
                v, untried, mark = frames[-1]
                while len(trail) > mark:
                    rec = trail.pop()
                    if len(rec) == 7:
                        eid, a, b, ea, eb, la, lb = rec
                        in_factor[eid] = False
                        is_end[a] = is_end[b] = True
                        # a merge changed path_end and path_len only at ea, eb
                        path_end[ea] = a
                        path_len[ea] = la
                        path_end[eb] = b
                        path_len[eb] = lb
                    elif len(rec) == 2:
                        a, b = rec
                        matched[a] = matched[b] = False
                    else:
                        eid, a, b = rec
                        in_factor[eid] = False
                        is_end[a] = is_end[b] = True
                        if path_len[a] % 2 == 0:
                            closed_odd -= 1
                for eid, w in untried:
                    if not matched[w]:
                        break
                else:
                    frames.pop()
                    continue
                if unwinding:
                    # the barrier that killed a node below may hold here too;
                    # then no child of this frame has a completion
                    if _matching_barrier(incidence, matched, v, spend):
                        frames.pop()
                        continue
                    unwinding = False
                    probe_at = self.budget.used + interval
                    alarm = min(dp_at, probe_at)
                # match (v, w) and commit the other edges at v and w to the
                # 2-factor; then match each unmatched vertex that now has two
                # 2-factor edges along its third edge, one unit each, until
                # nothing more is forced.  The child is entered unless the
                # branch dies
                forced: list[int] = []  # vertices given a second 2-factor edge
                a, b, me = v, w, eid
                alive = True
                while True:
                    matched[a] = matched[b] = True
                    trail.append((a, b))
                    for x in (a, b):
                        for e2, y in incidence[x]:
                            if e2 == me or in_factor[e2]:
                                continue
                            if not is_end[y]:
                                # y already has two 2-factor edges
                                alive = False
                                break
                            in_factor[e2] = True
                            p, q = edges[e2]
                            ep, eq = path_end[p], path_end[q]
                            if ep == q and is_end[p] and is_end[q]:
                                # closing a circuit of path_len[p] + 1 edges
                                trail.append((e2, p, q))
                                is_end[p] = is_end[q] = False
                                forced.append(y)
                                if path_len[p] % 2 == 0:
                                    closed_odd += 1
                                    if closed_odd >= dead:
                                        alive = False
                                        break
                                continue
                            lp, lq = path_len[ep], path_len[eq]
                            trail.append((e2, p, q, ep, eq, lp, lq))
                            if p != ep:
                                is_end[p] = False
                            if q != eq:
                                is_end[q] = False
                            path_end[ep] = eq
                            path_end[eq] = ep
                            path_len[ep] = path_len[eq] = lp + lq + 1
                            if not is_end[y]:
                                forced.append(y)
                        if not alive:
                            break
                    if not alive:
                        break
                    while forced:
                        # a vertex matched since was matched along its third edge
                        a = forced.pop(0)
                        if not matched[a]:
                            break
                    else:
                        break
                    for me, b in incidence[a]:
                        if not in_factor[me]:
                            break
                    spend()
                if alive:
                    break
            else:
                return


def compute_oddness(
    g: MultiGraph, *, max_work: int | None = DEFAULT_MAX_WORK
) -> OddnessResult:
    """Minimum number of odd circuits over all 2-factors, with a witness.

    A branch-and-bound over perfect matchings in DFS order, on an explicit
    stack, so any graph size runs within Python's recursion limit; the
    witness is the first 2-factor in that order attaining the oddness.  The
    search exits at an all-even 2-factor.  Oddness is 0 exactly when the
    graph is 3-edge-colourable and at least 2 otherwise, so once the search
    has spent 4n units it starts the frontier DP of
    :func:`three_edge_colourable`, along the order :func:`_best_order`
    picks, and steps it one vertex at a time whenever its own units reach
    the DP's; if the DP finds no colouring, the search exits at its first
    2-factor with two odd circuits instead of exhausting every matching.
    Once the search holds such a 2-factor, the DP runs ahead to its verdict
    as soon as a bound on the units it has left, taken from the states it
    holds, is at most the search's own units.  The DP thus costs at most
    twice what the search spends, plus one step.
    A vertex left with one possible partner is matched to it at once, and
    once the search has spent 4n units it also probes, at doubling
    intervals, for a component of the unmatched vertices that no perfect
    matching covers (odd order, or bipartite with unequal colour classes),
    and cuts the subtree of a node that has such a barrier (see
    ``_OddnessSearch``).  None of these changes which complete 2-factors
    the search visits, or their order.  Each matching choice, forced ones
    included, each DP state, each vertex a probe visits and n units for each
    order scored cost one work unit; more than ``max_work`` units raise
    :class:`BudgetExceededError`.  A cubic graph with a bridge may have no
    perfect matching; the search then ends with none and raises
    :class:`ValueError`, as for a graph that is not cubic.
    """
    _require_cubic(g)
    search = _OddnessSearch(g, max_work)
    search.run()
    if search.best_matching is None:
        if basic_checks(g).bridges:
            # Petersen's theorem covers only bridgeless cubic graphs
            raise ValueError("cubic graph has a bridge and no perfect matching")
        raise InternalInconsistencyError(
            "cubic graph has no perfect matching; "
            "bridgeless cubic graphs always have one"
        )
    witness = two_factor_from_matching(g, search.best_matching)
    if witness.odd_count != search.best:
        raise InternalInconsistencyError("witness odd count disagrees with search")
    return OddnessResult(oddness=search.best, witness=witness)


# ---------------------------------------------------------------------------
# cyclic edge-connectivity
# ---------------------------------------------------------------------------


class CyclicCheck(NamedTuple):
    """Outcome of a cyclic k-edge-connectivity test."""

    connected: bool
    witness: EdgeCut | None


class CyclicConnectivity:
    """Exact cyclic edge-connectivity, or the vacuous verdict.

    ``value`` is None when the graph has no two vertex-disjoint cycles, in
    which case it counts as cyclically k-edge-connected for every k.
    ``witness`` is a minimum cycle-separating cut, None when vacuous.  It
    is named on first read and then kept.  Where it is the cut around a
    shortest cycle of a cubic graph of girth 3 to 6, naming it enumerates
    those cycles, and where the cut labels gave a value below a girth of
    at most 5, it sweeps pairs of closed neighbourhoods, under the budget
    of the call that made the result, so that read can raise
    :class:`BudgetExceededError`.  Two results are
    equal when their values, verdicts and witnesses are, so ``==`` on two
    distinct results names both witnesses.  A result equals itself, and
    the hash reads only the value and the verdict.  Its attributes are
    read-only.
    """

    __slots__ = ("value", "vacuous", "_witness_step", "_witness")

    def __init__(
        self,
        value: int | None,
        vacuous: bool,
        witness_step: Callable[[], EdgeCut | None],
    ) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "vacuous", vacuous)
        object.__setattr__(self, "_witness_step", witness_step)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"CyclicConnectivity.{name} is read-only")

    __delattr__ = __setattr__

    @property
    def witness(self) -> EdgeCut | None:
        try:
            return self._witness
        except AttributeError:
            object.__setattr__(self, "_witness", self._witness_step())
            return self._witness

    def _key(self) -> tuple:
        return self.value, self.vacuous, self.witness

    def __eq__(self, other) -> bool:
        if not isinstance(other, CyclicConnectivity):
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self) -> int:
        return hash((self.value, self.vacuous))

    def __repr__(self) -> str:
        return f"CyclicConnectivity(value={self.value!r}, vacuous={self.vacuous!r})"


_VACUOUS = CyclicConnectivity(None, True, lambda: None)


def _adjacency_masks(g: MultiGraph) -> list[int]:
    masks = [0] * g.n
    for (u, v) in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _chordless_cycles(
    g: MultiGraph, max_len: int, budget: Budget
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

    Built once per pair sweep: every edge ``e = (u, v)`` becomes the
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


def _cut_labels(g: MultiGraph, budget: Budget) -> list[int] | None:
    """The cut-space label of every edge of ``g``, or None when ``g`` is
    disconnected.

    A breadth-first spanning tree from vertex 0 leaves the non-tree edges
    f_0, f_1, ...; bit j of an edge's label is set when the edge lies on
    the fundamental cycle C_j of f_j, so f_j's label is 1 << j.  The tree
    path between f_j's ends runs through the tree edge from x's parent to
    x exactly when one end of f_j lies in x's subtree; so, with the
    potential of a vertex the XOR of the bits of the non-tree edges at it,
    that tree edge's label is the XOR of the potentials in x's subtree,
    accumulated from the leaves up.  An edge set is a cut exactly when
    the XOR of its labels is 0 (the cut-space lemma at
    :func:`cyclic_connectivity`).  One work unit per edge.
    """
    budget.spend(g.m)
    n = g.n
    parent_edge = [-1] * n
    order = [0]
    for v in order:
        for eid, w in g.incident(v):
            if w and parent_edge[w] < 0:
                parent_edge[w] = eid
                order.append(w)
    if len(order) < n:
        return None
    labels = [0] * g.m
    potential = [0] * n
    tree = set(parent_edge)
    bit = 1
    for eid, (u, v) in enumerate(g.edges):
        if eid not in tree:
            labels[eid] = bit
            potential[u] ^= bit
            potential[v] ^= bit
            bit <<= 1
    for x in reversed(order[1:]):  # every child before its parent
        eid = parent_edge[x]
        labels[eid] = potential[x]
        potential[g.other_end(eid, x)] ^= potential[x]
    return labels


def _edge_floor(labels: list[int] | None) -> int:
    """min(κ′, 3), κ′ the edge-connectivity of the graph whose
    :func:`_cut_labels` are ``labels``: 0 when it is disconnected, 1 when
    an edge is a cut on its own (a zero label, a bridge), 2 when two edges
    are (two equal labels), and 3 when no set of at most 2 edges is."""
    if labels is None:
        return 0
    if not all(labels):
        return 1
    if len(set(labels)) < len(labels):
        return 2
    return 3


def _bond_cut(g: MultiGraph, limit: int, budget: Budget) -> int:
    """The cyclic connectivity c of the cubic graph ``g``, of girth at
    least 3 and at least ``limit`` <= 5 and with two disjoint cycles, if
    c < ``limit``, and ``limit`` otherwise: read off its
    :func:`_cut_labels` with no flow.

    Below 3, c is min(κ′, 3) (:func:`_edge_floor`), and at 3 and 4 it is
    the size of a bond that is not the cut around one vertex or one edge
    (the bond paragraphs at :func:`cyclic_connectivity`).  With the labels
    distinct and nonzero, one scan over the pairs (e, f), e < f, finds
    both: a label equal to ``labels[e] ^ labels[f]`` closes a 3-edge cut,
    counted once as (e, f, h) with f < h; and two pairs whose labels XOR
    to the same value make a 4-edge cut.  Two such pairs are disjoint,
    the labels being distinct.  For each value the scan keeps only the
    last pair seen, which misses nothing at girth 5: suppose a pair p
    made trivial cuts with two others q and r, p ∪ q = δ({u, v}) and
    p ∪ r = δ({u', v'}).  Then q ∪ r, their symmetric difference, is the
    4-edge cut δ({u, v} Δ {u', v'}), and {u, v} ≠ {u', v'} as q ≠ r.
    If the two edges uv and u'v' share a vertex, that difference is two
    vertices at distance 2, not adjacent at girth 4, so 6 edges leave it.
    If not, both edges of p lie in both cuts, so each joins {u, v} to
    {u', v'}, and with uv and u'v' they close a cycle of at most 4 edges.
    So a pair makes a trivial cut with at most one other of its value: if
    the first two pairs of a value make one, the second and the third do
    not, and the third meets the second as the last pair.  One work unit
    per pair of each row scanned, charged before the row.
    """
    labels = _cut_labels(g, budget)
    floor = _edge_floor(labels)
    if floor < 3 or limit <= 3:
        return min(floor, limit)
    edges, m = g.edges, g.m
    index = {x: e for e, x in enumerate(labels)}
    last: dict[int, int] | None = None  # pair XOR -> first edge of its last pair
    if limit >= 5:
        last = {}
        trivial = {
            frozenset(a for a, _ in g.incident(u) + g.incident(v) if a != eid)
            for eid, (u, v) in enumerate(edges)
        }
    four = False
    for e, x in enumerate(labels):
        budget.spend(m - 1 - e)
        row = {x ^ y: f for f, y in enumerate(labels[e + 1:], e + 1)}
        for z in row.keys() & index.keys():
            f, h = row[z], index[z]
            if f < h and not set(edges[e]).intersection(edges[f], edges[h]):
                return 3  # not the three edges at one vertex
        if last is not None:
            for z in row.keys() & last.keys():
                a = last[z]
                if frozenset((a, index[z ^ labels[a]], e, row[z])) not in trivial:
                    four = True
                    last = None
                    break
            else:
                last.update(dict.fromkeys(row, e))
    return 4 if four else limit


# The sweeps that may stop soon, the witness sweep below girth 6 (at its
# first pair attaining the known value) and the cycle sweep (at its
# floor), search for automorphisms once they have tried this many pairs
# per vertex.  Against the mean cycle pair of the same graph the search
# costs 0.3 to 1.7 pairs per vertex from 30 vertices up (flower snarks,
# GP(40, 2), random cubic graphs with a trivial group) and up to 3.8
# below 20, so waiting about as long as the search would take bounds what
# a sweep that stops soon after pays for it.  The value step at girth 6
# does not wait: with a starting bound and no floor it tries every pair
# of its rows unless it finds a cut of at most 3.
_GROUP_AFTER = 3


def _pair_sweep(
    g: MultiGraph,
    sets: list[tuple[int, ...]],
    rows: int,
    budget: Budget,
    best: int | None = None,
    floor: int | None = None,
) -> tuple[int | None, frozenset[int] | None]:
    """The least cut between disjoint sets S_i, S_j, i < j, of ``sets``
    with i < ``rows``, and its side; the starting bound ``best`` and no
    side when no pair goes below it.

    The flows run on one :class:`_UnitCuts` of ``g``, built here.  The
    sweep returns once the best cut equals ``floor``, a value no pair goes
    below: as given, or else min(κ′, 3) from :func:`_cut_labels`, computed
    the first time the best cut is at most 3, above which it cannot stop
    the sweep.  ``sets``, sorted by length, must be closed under the
    automorphisms, which it searches before its first pair when given
    ``best`` and no ``floor`` (the value step), and otherwise once it has
    tried ``_GROUP_AFTER`` pairs per vertex; the orbit rule, the row bound
    and their proofs are at :func:`cyclic_connectivity`.  Each flow and
    each node of the group search costs 4 work units.
    """
    cuts = _UnitCuts(g)
    best_side: frozenset[int] | None = None
    # bit j of through[v] is set when set j holds v, so the sets disjoint
    # from set i are the bits that no vertex of i sets
    through = [0] * g.n
    for j, s in enumerate(sets):
        for v in s:
            through[v] |= 1 << j
    everything = (1 << len(sets)) - 1
    wait = 0 if best is not None and floor is None else _GROUP_AFTER
    rows = min(rows, len(sets))
    pairs = 0
    least: list[int] | None = None  # first set of each orbit, once searched
    for i in range(rows):
        if least is None and pairs >= wait * g.n:
            # automorphisms keep lengths, so the sets no longer than the
            # last row are a prefix of ``sets`` that they map onto itself
            head = sets[:bisect_right([len(s) for s in sets], len(sets[rows - 1]))]
            index = {frozenset(s): h for h, s in enumerate(head)}
            least = orbits(len(head), [
                [index[frozenset(gamma[v] for v in s)] for s in head]
                for gamma in automorphisms(g, lambda: budget.spend(4))
            ])
        if least is not None and least[i] != i:
            continue
        hit = 0
        for v in sets[i]:
            hit |= through[v]
        later = (everything ^ hit) >> i  # bit d stands for set i + d
        pairs += later.bit_count()
        while later:
            low = later & -later
            later ^= low
            j = i + low.bit_length() - 1
            budget.spend(4)
            value, side = cuts.min_cut(sets[i], sets[j], best)
            if best is None or value < best:
                best = value
                best_side = side
                if floor is None and best <= 3:
                    floor = _edge_floor(_cut_labels(g, budget))
                if best == floor:
                    return best, best_side
    return best, best_side


def _neighbourhood_cut(
    g: MultiGraph, limit: int, budget: Budget, floor: int | None = None
) -> tuple[int, frozenset[int] | None]:
    """The least cut between two disjoint closed neighbourhoods N[u], N[w]
    of the simple cubic graph ``g``, with the side the residual graph
    reaches from N[u] for the first pair u < w in sweep order that attains
    it, from :func:`_pair_sweep` with ``floor`` over the rows
    u <= 2·``limit`` - 2 (the row bound); ``limit`` and no side if no pair
    goes below ``limit``.
    """
    closed = [(v, *(w for _, w in g.incident(v))) for v in range(g.n)]
    return _pair_sweep(g, closed, 2 * limit - 1, budget, limit, floor)


def _cycle_cut(
    g: MultiGraph, cut_size: int, budget: Budget
) -> tuple[list[tuple[int, ...]], int | None, frozenset[int] | None]:
    """The chordless cycles that :func:`_side_caps` keeps for cuts of at
    most ``cut_size`` edges, sorted by length, and the least cut between
    two of them, with its side, from :func:`_pair_sweep` over the pairs
    whose first cycle is within the smaller side's cap."""
    small, large = _side_caps(g, cut_size)
    cycles = _chordless_cycles(g, large, budget)
    rows = bisect_right([len(c) for c in cycles], small)
    return cycles, *_pair_sweep(g, cycles, rows, budget)


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


def girth(g: MultiGraph) -> int | None:
    """Length of a shortest cycle, or None for forests.  BFS per vertex,
    until the first triangle."""
    pair_counts: dict[tuple[int, int], int] = {}
    for (u, v) in g.edges:
        key = (min(u, v), max(u, v))
        pair_counts[key] = pair_counts.get(key, 0) + 1
    if any(c >= 2 for c in pair_counts.values()):
        return 2
    # without loops or parallel edges no cycle is shorter than a triangle,
    # so the first one ends the search
    best: int | None = None
    dist = [-1] * g.n  # -1 outside the current search
    parent_edge = [-1] * g.n
    for root in range(g.n):
        dist[root] = 0
        parent_edge[root] = -1
        queue = [root]
        for v in queue:
            if best is not None and dist[v] * 2 >= best:
                break
            for eid, w in g.incident(v):
                if eid == parent_edge[v]:
                    continue
                if dist[w] >= 0:
                    length = dist[v] + dist[w] + 1
                    if best is None or length < best:
                        best = length
                        if best == 3:
                            return best
                else:
                    dist[w] = dist[v] + 1
                    parent_edge[w] = eid
                    queue.append(w)
        for v in queue:
            dist[v] = -1
    return best


def cyclic_connectivity(
    g: MultiGraph, *, max_work: int | None = DEFAULT_MAX_WORK
) -> CyclicConnectivity:
    """Exact cyclic edge-connectivity, with a minimum cut as witness.

    A cubic graph of girth g, 3 <= g <= 6, is decided by the value step:
    below girth 6 by the cut space, read off the labels of one spanning
    tree with no flow, and at girth 6 by the cuts between closed
    neighbourhoods.  A value below g has as witness the least cut between
    closed neighbourhoods, from the girth-6 flows at no further cost, and
    below girth 6 from a pair sweep run when the result's ``witness`` is
    first read; at g, the shortest chordless cycles are enumerated on
    that read instead (the witness step).  Every other graph (girth at
    most 2 or at least 7, or not cubic) is swept over disjoint chordless
    cycle pairs at once.

    Neighbourhood lemma.  Let G be cubic with girth g >= 3, so each closed
    neighbourhood N[u] has 4 vertices.  (a) Each side S of a minimum
    cycle-separating cut of size c < g holds some N[u].  If G is
    connected, S is connected (the "Sides" paragraph of
    :func:`_side_caps`).  Were every vertex of S incident with a cut edge,
    then c >= |S|, and G[S] would have (3|S| - c)/2 <= |S| edges; being
    connected with a cycle, it has exactly |S|, each vertex with degree 2
    in it: a cycle on c < g vertices.  If G is disconnected, c = 0 and no
    vertex of S has an edge leaving it.  (b) A connected acyclic vertex
    set T has 3|T| - 2(|T| - 1) = |T| + 2 edges leaving it.  Let X hold
    N[u] and avoid N[w], with fewer than 6 edges leaving it.  The
    component of G[X] holding N[u] has at least 4 vertices and no leaving
    edge outside those of X, so it is not a tree; nor, likewise, is the
    component of G - X holding N[w].  So the edges leaving X separate two
    cycles.  Let mu be the least cut between disjoint closed
    neighbourhoods, c the cyclic connectivity and L <= min(g, 6).  If
    c < L, (a) puts disjoint N[u] and N[w] on the two sides of a minimum
    cut, so mu <= c.  If mu < L, take a pair with cut mu: by (b) the side
    X that its maximum flow reaches from N[u] in the residual graph
    separates two cycles, so c <= mu < L, hence c = mu and X is a minimum
    cut.  So c = mu when mu < L, and otherwise c >= L; with L = g the
    girth lemma below decides.

    Row bound.  Let a pair N[u], N[w] attain mu < L, with a cut X of mu
    edges between them.  At most 2 mu vertices are ends of edges of X, so
    some vertex x <= 2 mu is none, and N[x] lies on one side of X; N[u] or
    N[w] lies on the other, so X separates N[x] from it and that pair's
    cut is at most mu, hence mu.  So the first pair in sweep order that
    attains mu has its first vertex at most 2 mu <= 2L - 2, and a sweep
    over closed neighbourhoods bounded by L takes its first set from the
    rows u <= 2L - 2 only: a later row attains mu only after an earlier
    one has, and none goes below it; with no cut below L no row has one.

    Cut-space lemma.  Over GF(2) the cut space of a graph is the
    orthogonal complement of its cycle space (Diestel, *Graph Theory*,
    Section 1.9): an edge set F is a cut δ(X) exactly when it meets every
    cycle in an even number of edges.  The fundamental cycles C_j of a
    spanning tree of a connected graph span the cycle space, so F is a cut
    exactly when it meets every C_j evenly, that is when the XOR of the
    labels of :func:`_cut_labels` (bit j: the edge lies on C_j) over F is
    0.  Every nonempty cut is a disjoint union of bonds (minimal nonempty
    cuts), and both sides of a bond are connected.

    Bonds below girth 6.  Let G be cubic with girth g >= 3 and two
    disjoint cycles, L = min(g, cap) <= 5 the value step's bound, κ′ its edge-connectivity
    and c its cyclic connectivity, so c >= κ′.  Each side of a bond is
    connected, so by (b) it is a tree only if the bond has |T| + 2 edges.
    A bond of at most 2 edges therefore separates two cycles: c = κ′
    whenever κ′ <= 2, and G is disconnected (κ′ = 0, every component of a
    cubic graph holding a cycle), has a bridge (a zero label) or a 2-edge
    cut (two equal labels) exactly then.  Otherwise κ′ = 3 and every cut
    of 3 or 4 edges is a single bond.  A 3-bond separates two cycles
    unless a side is a tree on one vertex: the three edges at one vertex,
    which share that end.  For L >= 4, so g >= 4, c = 3 exactly when some
    three labels XOR to 0 on edges that do not all meet at one vertex.  A 4-bond
    separates two cycles unless a side is a tree on two vertices: for an
    edge uv, δ({u, v}), the four edges other than uv at u and at v.  For
    L >= 5, so g >= 5, with no such 3-bond, c = 4 exactly when two
    disjoint pairs of labels XOR to the same value on four edges that are
    not such a δ({u, v}) (:func:`_bond_cut`).  With none, c >= L, and the
    girth lemma decides as after the girth-6 flows.  When c < L it is mu
    by the neighbourhood lemma.

    Pair sweep (:func:`_pair_sweep`).  The value step at girth 6, the
    witness of a value below girth 6 and every cycle sweep take the least
    cut between two disjoint vertex sets of one list, on one network of
    the graph's unit arcs per sweep: each pair's flow grows by augmenting
    paths from one set to the other and stops at the best cut so far
    (such a pair cannot lower the minimum).  Every such cut is an edge
    cut, so the sweep stops once its best cut equals a floor no cut goes
    below: the value c for the witness of a value below girth 6, and
    otherwise min(κ′, 3) from the cut labels (:func:`_edge_floor`),
    computed the first time the best cut is at most 3.  The value step
    sweeps the closed neighbourhoods of the rows u <= 2L - 2 (the row
    bound) from the bound L = g, or min(g, k) for
    :func:`is_cyclically_k_connected`, which so takes a cubic graph of
    girth g >= 7 to the value step when k <= 6: a cut below the bound is
    the value, by the lemma, and with none the value is at least the
    bound; the cut labels decide bounds of at most 5.  When 2g > n no two
    cycles are disjoint, which ends the value step before any work.  The
    cycle sweep runs over the chordless cycles within the larger side's
    cap below, sorted by length, and takes a pair's first cycle from
    those within the smaller side's cap.  Both lists are closed under
    automorphisms.  The minimum cut separating two cycles is the minimum,
    over pairs of vertex-disjoint chordless cycles, of the max-flow
    between them after contraction.

    The witness is the side of the sweep's first pair whose cut is the
    minimum (see the orbit paragraph), a minimum cut by (b): at girth 6
    from the value step at no further cost, and below girth 6 from the
    sweep over closed neighbourhoods with the floor c, which stops at
    that pair, run on first read under the call's budget.  When the value
    step finds no cut below g, the witness is the cut around
    ``cycles[0]``, the first shortest chordless cycle (the girth lemma
    below), enumerated on first read under the call's budget.  So
    ``max_work`` bounds the value and the witness together.

    Proof of the caps (in full at :func:`_side_caps`).  Both sides of a
    minimum cut of size c are connected.  A side S, with its pendant trees
    pruned and its at most c degree-2 vertices suppressed, is a cubic
    multigraph on |S| - c vertices, whose girth the Moore bound limits; so
    S has a chordless cycle of at most c + m(|S| - c) vertices, with m
    :func:`_moore_girth`.  The smaller side has at most n // 2 vertices
    and the larger at most n - c.  The one sweep, under the caps for cuts
    below the girth, therefore finds a minimum cut whenever one is below
    the girth, and a cut of exactly the girth that it finds is minimum.
    A graph that is not cubic gets no caps, so its sweep is exact.

    Girth lemma.  Let G be cubic with girth g and C a shortest cycle, with
    e_in edges inside V(C) and e_out leaving it.  Counting degrees,
    3g = 2 e_in + e_out with e_in >= g, so e_out <= g.  Two disjoint cycles
    need 2g vertices, so G is vacuous when 2g > n.  When 2g <= n, G - V(C)
    has n - g vertices and 3n/2 - (e_in + e_out) = 3n/2 - 3g + e_in
    >= n - g edges, so it has a cycle, which the e_out edges leaving V(C)
    separate from C: the cyclic connectivity is at most g.  So when the
    sweep or the value step finds no cut below the girth, a cubic graph is
    vacuous exactly when 2g > n, and otherwise its value is g, with the
    edges leaving ``cycles[0]`` as witness.  When 2g <= n both caps are at
    least g, so ``cycles[0]`` is the first shortest chordless cycle.  Its
    cut is the witness of the sweep with no caps: that sweep's first pair
    is ``cycles[0]`` with the first later cycle disjoint from it (a
    shortest cycle of G - V(C) has no chord); that pair's cut is at most
    e_out <= g, so minimum, and the residual side is the inclusion-minimal
    minimum-cut side around V(C), which is V(C), itself such a side.

    Orbit representatives.  :func:`~nzflow.symmetry.automorphisms` gives
    the automorphism group, and from then on a pair's first set must be
    the earliest of its orbit.  A sweep with a starting bound and no
    floor (the value step at girth 6) searches before its first pair; the
    witness sweep below girth 6 and the cycle sweep, which may stop soon,
    search once they have tried 3 pairs per vertex (``_GROUP_AFTER``).
    This keeps the value, the vacuous verdict and the witness.  Automorphisms
    map closed neighbourhoods to closed neighbourhoods and chordless
    cycles to chordless cycles of the same length, and keep disjointness
    and cut values, so the pairs a sweep may try, and their cuts, are
    closed under them.  Let P = (S_i, S_j), i < j, be the first pair in
    sweep order whose cut is the minimum.  If an automorphism mapped S_i
    to an earlier set S_h, h < i, then {S_h, image of S_j} would be a pair
    with the same cut, tried before P (its first set is S_h or an even
    earlier one); so S_i comes first in its orbit and the restricted
    sweep tries P.  Before P both sweeps keep a best cut above P's value
    (the restricted one tries a subset of the same pairs), so both compute
    P's cut in full; the side
    is everything the residual graph reaches from S_i, the
    inclusion-minimal minimum-cut side, which does not depend on the flow.
    After P neither sweep improves.  A floor stop fires at the first pair
    whose cut equals the floor, which is then the minimum, so again at P.
    Any group of automorphisms would do, so the restriction may start at
    any point, and P lies within the row bound, which drops only later
    pairs.  The group acts on the sets through an index keyed by vertex
    set, over the sets no longer than the sweep's last row, which
    automorphisms map onto themselves.  Closed neighbourhoods may
    coincide: N[u] = N[w] with u != w only for adjacent twins, and
    swapping twins is an automorphism, so the orbits of the sets are the
    orbits of the vertices.

    Every disjoint pair of cycles or of closed neighbourhoods and every
    node of the automorphism search costs 4 work units, and every edge
    labelled, every pair of edges in a row the bond scan reads and every
    extension step of the cycle enumeration 1; more than ``max_work``
    units raise
    :class:`BudgetExceededError`, from the call or from the first read of
    ``witness``.
    """
    return _cyclic(g, Budget(max_work, "cyclic connectivity"), None)


def _cyclic(g: MultiGraph, budget: Budget, cap: int | None) -> CyclicConnectivity:
    """:func:`cyclic_connectivity` under ``budget``, with the value step's
    bound lowered to ``cap`` (None: the girth).  A value below ``cap``, the
    vacuous verdict and the witness of a value below ``cap`` are exact; a
    value of at least ``cap`` only bounds the cyclic connectivity below,
    and its witness need not be minimum."""
    gi = girth(g)
    if gi is None:
        return _VACUOUS
    cubic = all(d == 3 for d in g.degrees())
    limit = gi if cap is None else min(gi, cap)
    if 3 <= gi and limit <= 6 and cubic:
        if 2 * gi > g.n:
            return _VACUOUS  # no two disjoint cycles
        if limit <= 5:
            value = _bond_cut(g, limit, budget)
            if value < limit:
                return CyclicConnectivity(value, False, lambda: edge_cut(
                    g, _neighbourhood_cut(g, limit, budget, value)[1]
                ))
        else:
            value, side = _neighbourhood_cut(g, limit, budget)
            if side is not None:
                return CyclicConnectivity(value, False, partial(edge_cut, g, side))
        return CyclicConnectivity(
            value, False, lambda: edge_cut(g, _chordless_cycles(g, gi, budget)[0])
        )
    cycles, value, side = _cycle_cut(g, gi - 1, budget)
    if (value is None or value > gi) and cubic:
        # nothing below the girth: the girth lemma decides
        value, side = (None, None) if 2 * gi > g.n else (gi, frozenset(cycles[0]))
    if value is None:
        return _VACUOUS
    return CyclicConnectivity(value, False, partial(edge_cut, g, side))


def is_cyclically_k_connected(
    g: MultiGraph, k: int, *, max_work: int | None = DEFAULT_MAX_WORK
) -> CyclicCheck:
    """Whether every edge cut separating two cycles has at least k edges.

    Graphs without two vertex-disjoint cycles are vacuously k-connected
    for every k.  The check is :func:`cyclic_connectivity` with the value
    step's bound lowered from the girth g to min(g, k), so the cut labels
    decide k <= 5 on a cubic graph of girth at least 3, and no flow of the
    value step goes past k.  On failure the witness is a minimum
    cycle-separating cut, named under the same ``max_work``: that of
    :func:`cyclic_connectivity`, except on a cubic graph of girth at least
    7 with k <= 6, where it is the value step's cut.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    res = _cyclic(g, Budget(max_work, "cyclic connectivity"), k)
    if res.vacuous or res.value >= k:
        return CyclicCheck(True, None)
    return CyclicCheck(False, res.witness)
