"""Flow partitions, balanced valuations, and exact balancedness checking.

A vertex valuation f is balanced when ``|sum over X of f| <= |cut(X)|`` for
every vertex subset X.  All arithmetic is exact: values are integers over a
fixed denominator, never floats.  Balance is checked in polynomial time by
reading both signs of the objective off one s-t min-cut network; the test
suite cross-checks it against an exhaustive checker over all subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalInconsistencyError, UnbalancedValuationError
from .flows import AugmentedGraph, Flow, is_nowhere_zero, verify_flow
from .graph import MultiGraph, check_vertex_set
from .maxflow import MaxFlow, feasible_circulation


@dataclass(frozen=True)
class FlowPartition:
    """Vertex bipartition induced by a canonical 4-flow on the augmented
    graph: white vertices have out-degree below half their degree, black
    above.  ``base_weights`` is the induced +-2 weighting.
    """

    white: tuple[int, ...]
    black: tuple[int, ...]
    augmented: AugmentedGraph
    flow: Flow
    base_weights: tuple[int, ...]

    def is_white(self, v: int) -> bool:
        return self.base_weights[v] == -2


@dataclass(frozen=True)
class Valuation:
    """Exact rational vertex weights: ``numerators[v] / denominator``."""

    denominator: int
    numerators: tuple[int, ...]

    def value(self, v: int) -> Fraction:
        return Fraction(self.numerators[v], self.denominator)

    def to_json(self) -> dict:
        return {"denominator": self.denominator, "values": list(self.numerators)}

    @classmethod
    def from_json(cls, obj: dict) -> "Valuation":
        return cls(
            denominator=int(obj["denominator"]),
            numerators=tuple(int(x) for x in obj["values"]),
        )


@dataclass(frozen=True)
class BalanceReport:
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
    quantity is +-1 everywhere, as the canonical construction guarantees.
    """
    g = ag.graph
    if verify_flow(g, f4) or not is_nowhere_zero(f4):
        raise ValueError("partition requires a verified nowhere-zero flow")
    weights = []
    for v, out in enumerate(_out_degrees(g, f4)):
        s = 2 * out - g.degree(v)
        if s not in (-1, 1):
            raise ValueError(
                f"vertex {v}: 2*outdeg - deg = {s}, flow is not canonical"
            )
        weights.append(2 * s)
    white = tuple(v for v in range(g.n) if weights[v] == -2)
    black = tuple(v for v in range(g.n) if weights[v] == 2)
    return FlowPartition(
        white=white,
        black=black,
        augmented=ag,
        flow=f4,
        base_weights=tuple(weights),
    )


def to_five_thirds(p: FlowPartition) -> Valuation:
    """The +-5/3 valuation of a flow partition: -5/3 on white, +5/3 on black."""
    return Valuation(
        denominator=3,
        numerators=tuple(-5 if w == -2 else 5 for w in p.base_weights),
    )


def flow_to_valuation(g: MultiGraph, f: Flow, k: int) -> Valuation:
    """The valuation ``k/(k-2) * (2*outdeg - deg)`` of a verified flow."""
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


def _out_degrees(g: MultiGraph, f: Flow) -> list[int]:
    """Edges leaving each vertex under a nowhere-zero flow ``f``."""
    out = [0] * g.n
    for tail in f.tails:
        out[tail] += 1
    return out


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
    """
    if len(val.numerators) != g.n:
        raise ValueError("valuation does not cover the vertex set")
    den = val.denominator
    weights = val.numerators
    n = g.n
    s, t = n, n + 1
    net = MaxFlow(n + 2)
    net.add_edges(
        (s, v, w) if w > 0 else (v, t, -w) for v, w in enumerate(weights) if w
    )
    net.add_edges(
        arc for (u, v) in g.edges for arc in ((u, v, den), (v, u, den))
    )
    plus = sum(w for w in weights if w > 0) - net.max_flow(s, t)
    minus = plus - sum(weights)
    best = max(plus, minus)
    if best <= 0:
        return BalanceReport(True, None, Fraction(0), None)
    sides = []
    if plus == best:
        sides.append(tuple(sorted(net.reachable(s) - {s})))
    if minus == best:
        sides.append(tuple(sorted(net.reaching(t) - {t})))
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
    """Out-degrees forced by ``f(v) = k/(k-2) * (2*outdeg - deg)``."""
    scale = val.denominator * k
    out = []
    for v in range(g.n):
        num, deg = val.numerators[v], g.degree(v)
        # 2*outdeg = f(v) * (k-2)/k + deg = (num*(k-2) + deg*scale) / scale
        two_outdeg, rem = divmod(num * (k - 2) + deg * scale, scale)
        if rem or two_outdeg % 2:
            raise ValueError(
                f"vertex {v}: valuation value {val.value(v)} is not of the "
                f"degree form for k={k}"
            )
        d = two_outdeg // 2
        if not 0 <= d <= deg:
            raise ValueError(f"vertex {v}: prescribed out-degree {d} infeasible")
        out.append(d)
    return out


def _initial_orientation(g: MultiGraph, out_deg: list[int]) -> list[int] | None:
    """Some orientation with the prescribed out-degrees, via max-flow.

    Nodes: one per edge (supplying its single unit) and one per vertex
    (capped by its out-degree).  Edge ``eid`` owns network arcs ``6*eid``
    (from the source), ``6*eid + 2`` (to its first end) and ``6*eid + 4``.
    Returns the tail per edge, or None.
    """
    m = g.m
    if sum(out_deg) != m:
        return None
    net = MaxFlow(m + g.n + 2)
    s = m + g.n
    t = s + 1
    arcs = []
    for eid, (u, v) in enumerate(g.edges):
        arcs += ((s, eid, 1), (eid, m + u, 1), (eid, m + v, 1))
    arcs += ((m + v, t, d) for v, d in enumerate(out_deg))
    net.add_edges(arcs)
    if net.max_flow(s, t) != m:
        return None
    return [
        u if net.flow_on(6 * eid + 2) else v for eid, (u, v) in enumerate(g.edges)
    ]


def valuation_to_flow(g: MultiGraph, val: Valuation, k: int) -> Flow:
    """Realize a balanced valuation of the degree form as a nowhere-zero
    k-flow whose induced valuation is exactly the input.

    The valuation fixes every out-degree, so ``|delta+(X)| - |delta-(X)|``
    is the same for every orientation with those out-degrees and every
    vertex set X.  Balance then gives Hakimi's condition for such an
    orientation to exist, and it is exactly Hoffman's condition
    ``(k-1)|delta+(X)| >= |delta-(X)|`` for conserving values in 1..k-1 on
    it (Jaeger, *Balanced valuations and flows in multigraphs*, 1975).  So
    the first orientation found carries the flow: orient, circulate, verify.

    Conversely the valuation of any nowhere-zero k-flow is balanced, so a
    returned flow is itself the proof of balance, and callers need no
    separate check (construct first).  Balance is checked only when a step
    fails: an unbalanced input raises :class:`UnbalancedValuationError`
    carrying the checker's report, and a failure on balanced input is a
    broken invariant (:class:`InternalInconsistencyError`).  A realized flow
    that fails verification or induces another valuation raises a plain
    ``ValueError``.
    """
    out_deg = _prescribed_out_degrees(g, val, k)
    tails = _initial_orientation(g, out_deg)
    values = None
    if tails is not None:
        values = feasible_circulation(
            g.n, [(t, g.other_end(eid, t), 1, k - 1) for eid, t in enumerate(tails)]
        )
    if values is None:
        report = check_balanced_mincut(g, val)
        if not report.balanced:
            raise UnbalancedValuationError(report)
        raise InternalInconsistencyError(
            "balanced valuation has no realizing orientation and circulation"
        )
    flow = Flow(graph=g, tails=tuple(tails), values=tuple(values), modulus=k)
    if verify_flow(g, flow) or not is_nowhere_zero(flow):
        raise ValueError("circulation produced an invalid flow")
    # the out-degrees determine the valuation of a nowhere-zero flow
    realized = [0] * g.n
    for t in tails:
        realized[t] += 1
    if realized != out_deg:
        raise ValueError("realized flow disagrees with valuation")
    return flow
