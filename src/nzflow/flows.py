"""Integer flows: verification, the augmented graph and its explicit
nowhere-zero 4-flow, path switching, and a generic solver.

A flow is stored with a canonical orientation and nonnegative values below
its modulus; negating a value means reversing the edge.  Zero-valued edges
keep their natural orientation (tail = first stored endpoint) so that equal
flows compare equal.
"""

from __future__ import annotations

import heapq
from itertools import chain
from typing import NamedTuple

from .coloring import Coloring4
from .errors import DEFAULT_MAX_WORK, Budget, InternalInconsistencyError
from .graph import MultiGraph, circuit_tails, trace_circuit


class Flow(NamedTuple):
    """An orientation plus edge values in ``0..modulus-1``."""

    graph: MultiGraph
    tails: tuple[int, ...]
    values: tuple[int, ...]
    modulus: int

    def signed_value(self, eid: int) -> int:
        """Value relative to the natural orientation (first endpoint out)."""
        u, _ = self.graph.endpoints(eid)
        return self.values[eid] if self.tails[eid] == u else -self.values[eid]

    def out_degree(self, v: int) -> int:
        return sum(
            1
            for eid, _ in self.graph.incident(v)
            if self.tails[eid] == v and self.values[eid] != 0
        )


def make_flow(g: MultiGraph, signed_values, modulus: int) -> Flow:
    """Build a canonical Flow from signed values on the natural orientation."""
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    edges = g.edges
    tails = []
    vals = []
    for eid, s in enumerate(signed_values):
        if abs(s) >= modulus:
            raise ValueError(
                f"edge {eid}: value {s} out of range for modulus {modulus}"
            )
        u, v = edges[eid]
        if s >= 0:
            tails.append(u)
            vals.append(s)
        else:
            tails.append(v)
            vals.append(-s)
    return Flow(graph=g, tails=tuple(tails), values=tuple(vals), modulus=modulus)


def _imbalances(g: MultiGraph, f: Flow) -> list[int]:
    """Outgoing minus incoming value at every vertex, after checking that
    ``f`` lives on ``g``; one pass over the edges."""
    if f.graph is not g and f.graph.edges != g.edges:
        raise ValueError("flow is defined on a different graph")
    if len(f.values) != g.m or len(f.tails) != g.m:
        raise ValueError("flow does not cover the edge set")
    delta = [0] * g.n
    for eid, ((u, v), tail, x) in enumerate(zip(g.edges, f.tails, f.values)):
        if tail == u:
            delta[u] += x
            delta[v] -= x
        elif tail == v:
            delta[v] += x
            delta[u] -= x
        else:
            raise ValueError(f"edge {eid}: tail {tail} is not an endpoint")
    return delta


def verify_flow(g: MultiGraph, f: Flow) -> list[tuple[int, int]]:
    """Conservation check; returns the list of (vertex, imbalance) violations.

    An empty list means the flow is valid.  Checking single vertices is
    enough: conservation at every vertex implies it for every vertex subset.
    """
    return [(v, d) for v, d in enumerate(_imbalances(g, f)) if d != 0]


def is_nowhere_zero(f: Flow) -> bool:
    return all(v != 0 for v in f.values)


def reverse_flow(f: Flow) -> Flow:
    """The flow with every edge orientation reversed."""
    g = f.graph
    return make_flow(g, [-f.signed_value(e) for e in range(g.m)], f.modulus)


def _signed_add(signed, g: MultiGraph, eids, tails, value: int) -> None:
    edges = g.edges
    for eid, tail in zip(eids, tails):
        signed[eid] += value if tail == edges[eid][0] else -value


# ---------------------------------------------------------------------------
# the augmented graph and its canonical 4-flow
# ---------------------------------------------------------------------------


class AddedPair(NamedTuple):
    """The two parallel edges added between the ends of one odd path.

    ``closure`` completes the path to an even circuit and extends the
    coloring with color 2; ``mate`` is its parallel twin with color 4.
    """

    mate: int
    closure: int
    ends: tuple[int, int]


class AugmentedGraph(NamedTuple):
    """The base graph plus one parallel pair per odd path of the coloring.

    ``closed_circuits`` lists the circuits of the color-{1,2} subgraph of the
    augmented graph: first each odd path closed by its ``closure`` edge, then
    the even color-{1,2} circuits already present in the base graph.
    ``twin_circuits`` are the 2-circuits formed by each added pair.
    """

    base: MultiGraph
    graph: MultiGraph
    pairs: tuple[AddedPair, ...]
    closed_circuits: tuple[tuple[int, ...], ...]
    twin_circuits: tuple[tuple[int, ...], ...]
    colors: tuple[int, ...]
    coloring: Coloring4


def build_augmented(g: MultiGraph, c: Coloring4) -> AugmentedGraph:
    """Add a closure/mate pair between the ends of every odd path.

    Without odd paths the augmented graph is ``g`` itself, not a copy.
    """
    edges = list(g.edges)
    colors = list(c.colors)
    pairs = []
    for i in range(len(c.paths)):
        ends = (c.missing2[2 * i], c.missing2[2 * i + 1])
        closure = len(edges)
        edges.append(ends)
        mate = len(edges)
        edges.append(ends)
        colors.extend((2, 4))
        pairs.append(AddedPair(mate=mate, closure=closure, ends=ends))
    mg = MultiGraph(g.n, edges) if pairs else g

    # augmentation keeps the base edge ids and endpoints, so the even
    # circuits keep their canonical order; only the closed paths are traced
    closed = [
        trace_circuit(mg, path + (pair.closure,))[1]
        for path, pair in zip(c.paths, pairs)
    ]
    closed.extend(c.circuits)
    # the closure has the smaller id and the smaller end comes first
    twins = [(p.closure, p.mate) for p in pairs]

    missing2 = set(c.missing2)
    for v, inc in enumerate(mg.incidence):
        expected = 5 if v in missing2 else 3
        if len(inc) != expected:
            raise InternalInconsistencyError(
                f"augmented degree at vertex {v} is {len(inc)}, "
                f"expected {expected}"
            )
    return AugmentedGraph(
        base=g,
        graph=mg,
        pairs=tuple(pairs),
        closed_circuits=tuple(closed),
        twin_circuits=tuple(twins),
        colors=tuple(colors),
        coloring=c,
    )


def canonical_4flow(ag: AugmentedGraph) -> Flow:
    """The explicit nowhere-zero 4-flow on the augmented graph.

    Sum of: value-2 circulations around every circuit of the 2-factor,
    value-1 circulations around every color-{1,2} circuit of the augmented
    graph, and value-1 circulations around every added 2-circuit, the latter
    oriented so the closure edge agrees with its direction in the circuit it
    closes.  Every circuit runs in its canonical order.  The result is not
    verified here: :func:`~nzflow.valuation.flow_partition` verifies its
    input, and the pipeline turns a rejection there into an internal error.
    Reversing one closed circuit with its twin is :func:`switch_path`; the
    pipeline never builds that flow, it reads the switched partition off
    this one's (switching lemma).
    """
    g = ag.graph
    signed = [0] * g.m
    for eids in ag.coloring.factor.circuits:
        _signed_add(signed, g, eids, circuit_tails(g, eids), 2)

    for idx, eids in enumerate(ag.closed_circuits):
        tails = circuit_tails(g, eids)
        _signed_add(signed, g, eids, tails, 1)
        if idx < len(ag.pairs):
            pair = ag.pairs[idx]
            t = tails[eids.index(pair.closure)]
            h = g.other_end(pair.closure, t)
            # closure runs t -> h, the mate returns h -> t
            _signed_add(signed, g, (pair.closure, pair.mate), (t, h), 1)

    return make_flow(g, signed, 4)


def switch_path(ag: AugmentedGraph, flow: Flow, index: int) -> Flow:
    """Reverse the closed circuit of one odd path, and its twin 2-circuit.

    This is the move that swaps the two partition classes exactly on the
    vertices of that path.  Applying it twice gives back the input.
    """
    if not 0 <= index < len(ag.pairs):
        raise ValueError(
            f"path index {index} out of range 0..{len(ag.pairs) - 1}"
        )
    g = ag.graph
    if flow.graph is not g and flow.graph.edges != g.edges:
        raise ValueError("flow is not defined on the augmented graph")
    signed = [flow.signed_value(e) for e in range(g.m)]

    # current direction of the closed circuit, read off a matching edge of
    # the path (it carries only this circuit's unit)
    eids = ag.closed_circuits[index]
    probe = ag.coloring.paths[index][0]
    tails = circuit_tails(g, eids)
    canonical_tail = tails[eids.index(probe)]
    if flow.values[probe] != 1:
        raise ValueError("flow does not look like a canonical 4-flow here")
    direction = 1 if flow.tails[probe] == canonical_tail else -1
    _signed_add(signed, g, eids, tails, -2 * direction)

    eids_t = ag.twin_circuits[index]
    mate = ag.pairs[index].mate
    tails_t = circuit_tails(g, eids_t)
    canonical_tail_t = tails_t[eids_t.index(mate)]
    if flow.values[mate] != 1:
        raise ValueError("flow does not look like a canonical 4-flow here")
    direction_t = 1 if flow.tails[mate] == canonical_tail_t else -1
    _signed_add(signed, g, eids_t, tails_t, -2 * direction_t)

    out = make_flow(g, signed, 4)
    if verify_flow(g, out) or not is_nowhere_zero(out):
        raise InternalInconsistencyError("switched flow failed verification")
    return out


# ---------------------------------------------------------------------------
# generic nowhere-zero k-flow solver
# ---------------------------------------------------------------------------


def solve_nowhere_zero_flow(
    g: MultiGraph, k: int, *, max_work: int | None = DEFAULT_MAX_WORK
) -> Flow | None:
    """Search for a nowhere-zero k-flow; None means provably none exists.

    The search assigns nonzero residues mod k to edges with unit propagation
    at vertices (the last unassigned edge at a vertex is forced), then
    converts the modular solution to an integer-valued flow.  Raises
    :class:`BudgetExceededError` after ``max_work`` assignments, which is
    distinct from exhausting the search space.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if g.m == 0:
        return Flow(graph=g, tails=(), values=(), modulus=k)
    m, n = g.m, g.n
    # sign of each edge at each endpoint w.r.t. the natural orientation
    incid: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(g.edges):
        incid[u].append((eid, 1))
        incid[v].append((eid, -1))

    value: list[int | None] = [None] * m
    unassigned = [g.degree(v) for v in range(n)]
    vsum = [0] * n
    spend = Budget(max_work, "flow", "assignments").spend

    def assign(eid: int, val: int, trail: list[int]) -> bool:
        # unit-propagate; False on contradiction.  Counter updates per edge
        # are atomic so the trail can always be undone cleanly.
        queue = [(eid, val)]
        while queue:
            e, x = queue.pop()
            if value[e] is not None:
                if value[e] != x:
                    return False
                continue
            value[e] = x
            trail.append(e)
            u, v = g.endpoints(e)
            for w, s in ((u, 1), (v, -1)):
                vsum[w] = (vsum[w] + s * x) % k
                unassigned[w] -= 1
            for w in (u, v):
                if unassigned[w] == 0:
                    if vsum[w] % k != 0:
                        return False
                elif unassigned[w] == 1:
                    e2, s2 = next(
                        (e3, s3) for e3, s3 in incid[w] if value[e3] is None
                    )
                    forced = (-vsum[w] * s2) % k
                    if forced == 0:
                        return False
                    queue.append((e2, forced))
        return True

    def undo(trail: list[int]) -> None:
        for e in reversed(trail):
            x = value[e]
            value[e] = None
            u, v = g.endpoints(e)
            for w, s in ((u, 1), (v, -1)):
                vsum[w] = (vsum[w] - s * x) % k
                unassigned[w] += 1
            if dropped[e]:
                dropped[e] = False
                heapq.heappush(heap, key(e))

    # pick() returns the unassigned edge with the least key, and so the
    # least (min(unassigned[u], unassigned[v]), e) over its ends u, v.  The
    # heap may hold stale entries, but every unassigned edge keeps one no
    # larger than its key: assignments only lower keys, and pick() first
    # pushes the keys of the edges next to the trail just assigned; undo
    # only raises keys, and pushes again an edge whose entry pick() dropped
    # while it was assigned.  A larger entry is then a duplicate, and a
    # smaller one is filed again under the current key
    def key(e: int) -> int:
        u, v = g.endpoints(e)
        return min(unassigned[u], unassigned[v]) * m + e

    heap = [key(e) for e in range(m)]
    heapq.heapify(heap)
    dropped = [False] * m
    pushed_at = [0] * m  # the last pick() that pushed each edge
    picks = 0

    def pick(trail: list[int]) -> int | None:
        nonlocal picks
        picks += 1
        for t in trail:
            for w in g.endpoints(t):
                for e, _ in incid[w]:
                    if value[e] is None and pushed_at[e] != picks:
                        pushed_at[e] = picks
                        heapq.heappush(heap, key(e))
        while heap:
            top = heap[0]
            e = top % m
            if value[e] is None:
                current = key(e)
                if top == current:
                    return e
                if top < current:
                    heapq.heapreplace(heap, current)
                    continue
            else:
                dropped[e] = True
            heapq.heappop(heap)
        return None

    def search() -> bool:
        # depth-first over (edge, next value to try, trail of the value
        # being tried) frames; a popped frame first undoes its last try
        e = pick([])
        if e is None:
            return True
        stack: list[tuple[int, int, list[int] | None]] = [(e, 1, None)]
        while stack:
            e, x, trail = stack.pop()
            if trail is not None:
                undo(trail)
            if x == k:
                continue
            spend()
            trail = []
            ok = assign(e, x, trail)
            stack.append((e, x + 1, trail))
            if ok:
                child = pick(trail)
                if child is None:
                    return True
                stack.append((child, 1, None))
        return False

    if not search():
        return None
    modular = Flow(
        graph=g,
        tails=tuple(u for (u, _) in g.edges),
        values=tuple(value),  # type: ignore[arg-type]
        modulus=k,
    )
    return mod_to_integer_flow(g, modular, k)


def mod_to_integer_flow(g: MultiGraph, f: Flow, k: int) -> Flow:
    """Turn a mod-k conserving flow with values 1..k-1 into an exact one.

    Repeatedly walks a directed path from a surplus vertex to a deficit
    vertex and reverses it, replacing each value x by k-x; every step moves
    k units of imbalance and never creates a zero value.  Input that already
    conserves exactly is returned unchanged.
    """
    delta = _imbalances(g, f)
    if f.modulus != k:
        raise ValueError("modulus mismatch")
    if any(not 1 <= x <= k - 1 for x in f.values):
        raise ValueError("modular flow values must lie in 1..k-1")
    if any(d % k for d in delta):
        raise ValueError("input does not conserve modulo k")
    surplus = [d // k for d in delta]
    if all(s == 0 for s in surplus):
        return f
    tails = list(f.tails)
    values = list(f.values)
    while True:
        src = next((v for v in range(g.n) if surplus[v] > 0), None)
        if src is None:
            break
        # BFS along current directions, smallest edge id first
        prev_edge: dict[int, int] = {src: -1}
        queue = [src]
        target = None
        qi = 0
        while qi < len(queue) and target is None:
            v = queue[qi]
            qi += 1
            for eid, w in g.incident(v):
                if tails[eid] != v or w in prev_edge:
                    continue
                prev_edge[w] = eid
                if surplus[w] < 0:
                    target = w
                    break
                queue.append(w)
        if target is None:
            raise ValueError(
                "no reroute path from a surplus vertex; modular flow invalid"
            )
        v = target
        while v != src:
            eid = prev_edge[v]
            t = tails[eid]
            # the edge ran t -> v; reverse it and complement the value
            tails[eid] = v
            values[eid] = k - values[eid]
            v = t
        surplus[src] -= 1
        surplus[target] += 1
    out = Flow(graph=g, tails=tuple(tails), values=tuple(values), modulus=k)
    if verify_flow(g, out):
        raise InternalInconsistencyError("reroute left an imbalance behind")
    return out


# ---------------------------------------------------------------------------
# certificate serialization
# ---------------------------------------------------------------------------


def flow_to_json(f: Flow) -> dict:
    """Certificate form: ``{"k": k, "edges": [{id, tail, head, value}...]}``.

    :func:`flow_json_text` writes the same certificate as text, equal to
    ``json.dumps(flow_to_json(f), sort_keys=True, separators=(",", ":"))``.
    """
    return {
        "k": f.modulus,
        "edges": [
            {"id": eid, "tail": t, "head": v if t == u else u, "value": x}
            for eid, ((u, v), t, x) in enumerate(
                zip(f.graph.edges, f.tails, f.values)
            )
        ],
    }


# one certificate entry as compact JSON, its keys in sorted order
_EDGE_TEXT = '{"head":%d,"id":%d,"tail":%d,"value":%d}'


def flow_json_text(f: Flow) -> str:
    """:func:`flow_to_json` as compact JSON text with sorted keys, written
    straight from the flow's arrays: no dict per edge, and all ``4m``
    fields filled by one ``%`` call."""
    m = len(f.tails)
    heads = [v if t == u else u for (u, v), t in zip(f.graph.edges, f.tails)]
    fields = tuple(chain.from_iterable(zip(heads, range(m), f.tails, f.values)))
    return '{"edges":[%s],"k":%d}' % (",".join([_EDGE_TEXT] * m) % fields, f.modulus)


def flow_from_json(g: MultiGraph, obj: dict) -> Flow:
    """Parse and structurally validate a certificate against ``g``; a
    malformed certificate raises ``ValueError``.  Every number must be a
    JSON integer: ``1.9`` is rejected, not read as ``1``."""
    if not isinstance(obj, dict) or type(obj.get("k")) is not int or not isinstance(
        obj.get("edges"), list
    ):
        raise ValueError("certificate must carry an integer 'k' and a list 'edges'")
    k, entries = obj["k"], obj["edges"]
    if k < 2:
        raise ValueError("certificate modulus must be at least 2")
    if len(entries) != g.m:
        raise ValueError(
            f"certificate covers {len(entries)} edges, graph has {g.m}"
        )
    tails = [None] * g.m
    values = [None] * g.m
    for i, entry in enumerate(entries):
        fields = entry if isinstance(entry, dict) else {}
        eid, tail, head, val = (fields.get(key) for key in ("id", "tail", "head", "value"))
        if not all(type(x) is int for x in (eid, tail, head, val)):
            raise ValueError(
                f"certificate entry {i} needs integer 'id', 'tail', 'head' and 'value'"
            )
        if not 0 <= eid < g.m:
            raise ValueError(f"certificate edge id {eid} out of range")
        if tails[eid] is not None:
            raise ValueError(f"certificate repeats edge id {eid}")
        if {tail, head} != set(g.endpoints(eid)):
            raise ValueError(
                f"certificate edge {eid} endpoints {tail},{head} do not "
                f"match the graph"
            )
        if not 0 <= val <= k - 1:
            raise ValueError(f"certificate edge {eid} value {val} out of range")
        tails[eid] = tail
        values[eid] = val
    return Flow(graph=g, tails=tuple(tails), values=tuple(values), modulus=k)
