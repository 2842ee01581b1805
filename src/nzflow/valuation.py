"""Flow partitions, balanced valuations, and exact balancedness checking.

A vertex valuation f is balanced when ``|sum over X of f| <= |cut(X)|`` for
every vertex subset X.  All arithmetic is exact: values are integers over a
fixed denominator, never floats.  Two independent checkers are provided: an
exhaustive one over all subsets (small graphs) and a polynomial one that
reduces each sign of the objective to an s-t min-cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import InternalInconsistencyError
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
    for v in range(g.n):
        s = 2 * f4.out_degree(v) - g.degree(v)
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
            k * (2 * f.out_degree(v) - g.degree(v)) for v in range(g.n)
        ),
    )


# ---------------------------------------------------------------------------
# balancedness checkers
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _subset_tables(g: MultiGraph):
    """Per-graph cut sizes and popcounts of every subset mask (n <= 20)."""
    n = g.n
    size = 1 << n
    idx = np.arange(size, dtype=np.uint32)
    bits = ((idx[None, :] >> np.arange(n, dtype=np.uint32)[:, None]) & 1).astype(
        np.int8
    )
    cut = np.zeros(size, dtype=np.int64)
    for (u, v) in g.edges:
        cut += (bits[u] ^ bits[v]).astype(np.int64)
    popcount = bits.sum(axis=0, dtype=np.int64)
    return cut, popcount


def _class_difference(val: Valuation, subset) -> int | None:
    magnitudes = {abs(x) for x in val.numerators}
    if len(magnitudes) != 1:
        return None
    unit = magnitudes.pop()
    if unit == 0:
        return None
    total = sum(val.numerators[v] for v in subset)
    return abs(total) // unit


def check_balanced_bruteforce(
    g: MultiGraph, val: Valuation, *, max_vertices: int = 20
) -> BalanceReport:
    """Exhaustive balancedness check over all vertex subsets.

    Exact and complete, but exponential: guarded to ``max_vertices``.
    """
    if g.n > max_vertices:
        raise ValueError(
            f"{g.n} vertices exceeds brute-force guard of {max_vertices}"
        )
    if len(val.numerators) != g.n:
        raise ValueError("valuation does not cover the vertex set")
    cut, popcount = _subset_tables(g)
    # sums[mask] over the set bits of mask, by doubling: the masks whose top
    # bit is i are the masks below 1 << i plus vertex i
    sums = np.zeros(1 << g.n, dtype=np.int64)
    for i, w in enumerate(val.numerators):
        np.add(sums[: 1 << i], w, out=sums[1 << i : 2 << i])
    margins = np.abs(sums) - val.denominator * cut
    best = int(margins.max())
    if best <= 0:
        return BalanceReport(True, None, Fraction(0), None)
    candidates = np.nonzero(margins == best)[0]
    smallest = candidates[popcount[candidates] == popcount[candidates].min()]
    decoded = sorted(
        (tuple(v for v in range(g.n) if (int(mask) >> v) & 1) for mask in smallest)
    )
    violator = decoded[0]
    return BalanceReport(
        balanced=False,
        violator=violator,
        margin=Fraction(best, val.denominator),
        class_difference=_class_difference(val, violator),
    )


def check_balanced_mincut(g: MultiGraph, val: Valuation) -> BalanceReport:
    """Polynomial balancedness check via two s-t min-cut reductions.

    For each sign, maximizing ``sum over X of g - den*|cut(X)|`` is a project
    selection problem: positive-weight vertices hang off the source,
    negative off the sink, and each graph edge contributes capacity ``den``
    both ways.  The valuation is balanced iff both maxima are zero (the
    empty set always achieves zero).
    """
    if len(val.numerators) != g.n:
        raise ValueError("valuation does not cover the vertex set")
    den = val.denominator
    best_margin_num = 0
    best_set: tuple[int, ...] | None = None
    for sign in (1, -1):
        weights = [sign * x for x in val.numerators]
        positive_total = sum(w for w in weights if w > 0)
        if positive_total == 0:
            continue
        net = MaxFlow(g.n + 2)
        s, t = g.n, g.n + 1
        for v, w in enumerate(weights):
            if w > 0:
                net.add_edge(s, v, w)
            elif w < 0:
                net.add_edge(v, t, -w)
        for (u, v) in g.edges:
            net.add_edge(u, v, den)
            net.add_edge(v, u, den)
        cut_value = net.max_flow(s, t)
        objective = positive_total - cut_value
        if objective <= 0:
            continue
        chosen = tuple(sorted(net.reachable(s) - {s}))
        if (
            best_set is None
            or objective > best_margin_num
            or (
                objective == best_margin_num
                and (len(chosen), chosen) < (len(best_set), best_set)
            )
        ):
            best_margin_num = objective
            best_set = chosen
    if best_set is None:
        return BalanceReport(True, None, Fraction(0), None)
    return BalanceReport(
        balanced=False,
        violator=best_set,
        margin=Fraction(best_margin_num, den),
        class_difference=_class_difference(val, best_set),
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
    out = []
    for v in range(g.n):
        f = val.value(v)
        target = f * (k - 2) / k  # equals 2*outdeg - deg
        two_outdeg = target + g.degree(v)
        if two_outdeg.denominator != 1 or int(two_outdeg) % 2 != 0:
            raise ValueError(
                f"vertex {v}: valuation value {f} is not of the "
                f"degree form for k={k}"
            )
        d = int(two_outdeg) // 2
        if not 0 <= d <= g.degree(v):
            raise ValueError(f"vertex {v}: prescribed out-degree {d} infeasible")
        out.append(d)
    return out


def _initial_orientation(g: MultiGraph, out_deg: list[int]) -> list[int] | None:
    """Some orientation with the prescribed out-degrees, via max-flow.

    Nodes: one per edge (supplying its single unit) and one per vertex
    (capped by its out-degree).  Returns the tail per edge, or None.
    """
    if sum(out_deg) != g.m:
        return None
    net = MaxFlow(g.m + g.n + 2)
    s = g.m + g.n
    t = s + 1
    choice_arcs = []
    for eid, (u, v) in enumerate(g.edges):
        net.add_edge(s, eid, 1)
        a = net.add_edge(eid, g.m + u, 1)
        b = net.add_edge(eid, g.m + v, 1)
        choice_arcs.append((a, u, b, v))
    for v in range(g.n):
        net.add_edge(g.m + v, t, out_deg[v])
    if net.max_flow(s, t) != g.m:
        return None
    tails = []
    for eid, (a, u, b, v) in enumerate(choice_arcs):
        tails.append(u if net.flow_on(a) == 1 else v)
    return tails


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
    Balance is only checked when a step fails, to reject unbalanced input
    with its violator; a failure on balanced input is a broken invariant.
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
            raise ValueError(
                f"valuation is not balanced: subset {report.violator} exceeds "
                f"its cut by {report.margin}"
            )
        raise InternalInconsistencyError(
            "balanced valuation has no realizing orientation and circulation"
        )
    flow = Flow(graph=g, tails=tuple(tails), values=tuple(values), modulus=k)
    if verify_flow(g, flow) or not is_nowhere_zero(flow):
        raise ValueError("circulation produced an invalid flow")
    if not _same_valuation(flow_to_valuation(g, flow, k), val, g.n):
        raise ValueError("realized flow disagrees with valuation")
    return flow


def _same_valuation(a: Valuation, b: Valuation, n: int) -> bool:
    return all(a.value(v) == b.value(v) for v in range(n))
