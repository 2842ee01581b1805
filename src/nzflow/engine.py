"""Certificate pipeline for 5-flows on cubic graphs of oddness at most 4.

Strategy: pick a 2-factor attaining the oddness, color it canonically, build
the augmented graph and its 4-flow, and derive two flow partitions that
differ exactly on the first odd path.  If either induced +-5/3 valuation is
balanced, a nowhere-zero 5-flow follows constructively.  If both are
violated, the violators are run through a battery of structural validators
(cut parity, color profile, connectedness, the bad-cut conditions, the
four-part decomposition and its crossing parities); on a cyclically
6-edge-connected input this state is impossible, so reaching it with all
validators green is reported as an anomaly rather than swept aside.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .coloring import Coloring4, canonical_coloring, cut_color_profile
from .errors import (
    DEFAULT_MAX_WORK,
    BudgetExceededError,
    InternalInconsistencyError,
    UnbalancedValuationError,
)
from .flows import (
    AugmentedGraph,
    Flow,
    build_augmented,
    canonical_4flow,
    flow_to_json,
    solve_nowhere_zero_flow,
)
from .graph import (
    MultiGraph,
    basic_checks,
    check_vertex_set,
    component_labels,
    edge_cut,
    pair_cut,
)
from .structure import CyclicConnectivity, compute_oddness, cyclic_connectivity
from .valuation import (
    BalanceReport,
    FlowPartition,
    check_balanced_mincut,
    flow_partition,
    subset_margin,
    to_five_thirds,
    valuation_to_flow,
)


class ClaimCheck(NamedTuple):
    """One named structural check with its observed data."""

    name: str
    passed: bool
    detail: str

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


class BadCutCertificate(NamedTuple):
    """A 6-edge-cut meeting both bad-cut conditions for one partition:
    four matching-colored edges plus two color-2 edges, separating the
    missing-2 vertices into two monochromatic pairs."""

    edges: frozenset[int]
    color_counts: tuple[int, int, int, int]
    split: tuple[tuple[int, int], tuple[int, int]]


class QuadDecomposition(NamedTuple):
    """Intersection pattern of the two cut sides.

    ``parts[i]`` contains the i-th missing-2 vertex; ``cross[(i, j)]`` is
    the set of edges between ``parts[i]`` and ``parts[j]``.
    """

    graph: MultiGraph
    cut_a: frozenset[int]
    cut_b: frozenset[int]
    parts: tuple[tuple[int, ...], ...]
    cross: dict


class ParityReport(NamedTuple):
    checks: tuple[ClaimCheck, ...]
    contradiction_established: bool


class FiveFlowCertificate(NamedTuple):
    """Outcome of the pipeline: a verified flow, an unmet hypothesis with
    diagnostics, or an anomaly (both valuations violated under verified
    hypotheses, a combination that cannot occur for a correct
    implementation).

    ``cyclic_connectivity`` is the exact result behind ``cyclic``, or None
    when it was skipped or ran out of budget; ``to_json`` does not emit it.
    """

    outcome: str  # "flow_found" | "hypothesis_unmet" | "bad_pair_anomaly"
    oddness: int | None
    flow: Flow | None
    balanced_partition: str | None
    reason: str | None
    claim_log: tuple[ClaimCheck, ...]
    fallback_flow: Flow | None
    cyclic: dict
    valuations: dict
    cyclic_connectivity: CyclicConnectivity | None = None

    def to_json(self) -> dict:
        return {
            "outcome": self.outcome,
            "oddness": self.oddness,
            "flow": None if self.flow is None else flow_to_json(self.flow),
            "balanced_partition": self.balanced_partition,
            "reason": self.reason,
            "claims": [c.to_json() for c in self.claim_log],
            "fallback_flow": (
                None if self.fallback_flow is None else flow_to_json(self.fallback_flow)
            ),
            "cyclic": self.cyclic,
            "valuations": self.valuations,
        }


# ---------------------------------------------------------------------------
# bad cuts
# ---------------------------------------------------------------------------


def bad_cut_certificate(
    c: Coloring4, p: FlowPartition, edge_ids
) -> BadCutCertificate | None:
    """The certificate when ``edge_ids`` is a bad 6-cut for ``p``, else None.

    A bad cut meets both conditions: color profile 4+2 on colors 1/2, and
    the missing-2 vertices split two against two into different components
    with each separated pair monochromatic in ``p``.
    """
    g = p.augmented.base
    z = c.missing2
    if len(z) != 4:
        raise ValueError("bad cuts are defined in the four-missing-2 setting")
    cut = frozenset(int(e) for e in edge_ids)
    if len(cut) != 6:
        return None
    profile = cut_color_profile(c, cut)
    if profile[1] != 4 or profile[2] != 2:
        return None
    label = component_labels(g, cut)
    groups: dict[int, list[int]] = {}
    for v in z:
        groups.setdefault(label[v], []).append(v)
    if len(groups) != 2 or any(len(vs) != 2 for vs in groups.values()):
        return None
    pair_a, pair_b = sorted(groups.values())
    for pair in (pair_a, pair_b):
        if p.is_white(pair[0]) != p.is_white(pair[1]):
            return None
    return BadCutCertificate(
        edges=cut,
        color_counts=profile,
        split=(tuple(pair_a), tuple(pair_b)),  # type: ignore[arg-type]
    )


# ---------------------------------------------------------------------------
# violator validation
# ---------------------------------------------------------------------------


def validate_violator_claims(
    g: MultiGraph, c: Coloring4, p: FlowPartition, subset
) -> tuple[ClaimCheck, ...]:
    """Structural facts every balance violator must satisfy when the graph
    is cyclically 6-edge-connected; reported one by one for diagnostics.

    Raises ``ValueError`` when the subset does not actually violate the
    +-5/3 valuation of ``p``.
    """
    S = check_vertex_set(g, subset)
    val = to_five_thirds(p)
    margin = subset_margin(g, val, S)
    if margin <= 0:
        raise ValueError(f"subset margin is {margin}; not a violator")
    cut = edge_cut(g, S)
    boundary = len(cut.edges)
    white_in = sum(1 for v in S if p.is_white(v))
    black_in = len(S) - white_in
    k_diff = abs(black_in - white_in)
    profile = cut_color_profile(c, cut)
    _c0, c1, c2, _c3 = profile
    inside_z = [z for z in c.missing2 if z in S]
    q_white = sum(1 for z in inside_z if p.is_white(z))
    q = abs((len(inside_z) - q_white) - q_white)
    # G minus the cut is G[S] beside G[V - S]: two components exactly when
    # both sides are nonempty and connected
    sides = max(component_labels(g, cut.edges), default=-1) + 1

    checks = [
        ClaimCheck(
            "cut_parity_matches_imbalance",
            boundary % 2 == k_diff % 2,
            f"|cut|={boundary}, black/white difference={k_diff}",
        ),
        ClaimCheck(
            "matching_color_exceeds_three_fifths",
            5 * c1 > 3 * boundary,
            f"c1={c1}, |cut|={boundary}",
        ),
        ClaimCheck(
            "color2_plus_missing_exceeds_three_fifths",
            5 * (c2 + q) > 3 * boundary,
            f"c2={c2}, q={q}, |cut|={boundary}",
        ),
        ClaimCheck(
            "two_missing2_inside_same_class",
            len(inside_z) == 2 and q == 2,
            f"|S inter missing2|={len(inside_z)}, q={q}",
        ),
        ClaimCheck(
            "six_cut_with_profile_4_2",
            boundary == 6 and c1 == 4 and c2 == 2,
            f"profile={profile}",
        ),
        ClaimCheck(
            "both_sides_connected",
            0 < len(S) < g.n and sides == 2,
            f"|S|={len(S)}",
        ),
    ]
    return tuple(checks)


# ---------------------------------------------------------------------------
# four-part decomposition and parity analysis
# ---------------------------------------------------------------------------


def quad_decompose(
    g: MultiGraph, cut_a, cut_b, missing2
) -> QuadDecomposition:
    """Intersect the sides of two 6-cuts that separate the four missing-2
    vertices in crossing patterns ({0th with 2nd} vs {0th with 3rd}).

    Each cut must leave exactly two components.
    """
    z = tuple(missing2)
    if len(z) != 4:
        raise ValueError("need exactly four missing-2 vertices")
    cut_a = frozenset(int(e) for e in cut_a)
    cut_b = frozenset(int(e) for e in cut_b)

    def two_sides(cut: frozenset[int], mate: int, label: str):
        comp = component_labels(g, cut)
        ids = sorted(set(comp))
        if len(ids) != 2:
            raise ValueError(
                f"{label} leaves {len(ids)} components, expected exactly 2"
            )
        near = frozenset(v for v in range(g.n) if comp[v] == comp[z[0]])
        far = frozenset(range(g.n)) - near
        if z[mate] not in near or z[1] in near or z[5 - mate] in near:
            raise ValueError(
                f"{label} does not separate the expected missing-2 pairs"
            )
        return near, far

    side_a_near, side_a_far = two_sides(cut_a, 2, "first cut")
    side_b_near, side_b_far = two_sides(cut_b, 3, "second cut")

    parts = (
        tuple(sorted(side_a_near & side_b_near)),
        tuple(sorted(side_a_far & side_b_far)),
        tuple(sorted(side_a_near & side_b_far)),
        tuple(sorted(side_a_far & side_b_near)),
    )
    for i in range(4):
        if z[i] not in parts[i]:
            raise InternalInconsistencyError(
                f"missing-2 vertex {z[i]} landed outside part {i}"
            )
    cross = {}
    for i in range(4):
        for j in range(i + 1, 4):
            cross[(i, j)] = pair_cut(g, parts[i], parts[j])

    return QuadDecomposition(
        graph=g, cut_a=cut_a, cut_b=cut_b, parts=parts, cross=cross
    )


def parity_contradiction_check(qd: QuadDecomposition, c: Coloring4) -> ParityReport:
    """Replay the final counting argument on a concrete decomposition.

    Under the full set of hypotheses, the boundary of the first part is a
    6-edge-cut inside the color-{1,2} subgraph that the first odd path
    crosses an odd number of times while every other component of that
    subgraph crosses it evenly; those facts cannot coexist on an actual
    graph, so a run in which every premise holds is itself the anomaly.
    """
    g = qd.graph
    checks: list[ClaimCheck] = []
    paths = c.paths
    if len(paths) != 2:
        raise ValueError("parity analysis needs exactly two odd paths")

    for pi, path in enumerate(paths):
        for label, cut in (("a", qd.cut_a), ("b", qd.cut_b)):
            crossings = len(set(path) & cut)
            checks.append(
                ClaimCheck(
                    f"path{pi}_crosses_cut_{label}_odd",
                    crossings % 2 == 1,
                    f"{crossings} crossings",
                )
            )

    part_boundaries = [edge_cut(g, part).edges for part in qd.parts]
    for i, boundary in enumerate(part_boundaries):
        small = len(boundary) == 5
        checks.append(
            ClaimCheck(
                f"part{i}_boundary_at_least_five",
                len(boundary) >= 5,
                f"|boundary|={len(boundary)}",
            )
        )
        if small:
            inside = qd.parts[i]
            cols = sorted(
                c.colors[eid]
                for eid, (u, v) in enumerate(g.edges)
                if u in inside and v in inside
            )
            checks.append(
                ClaimCheck(
                    f"part{i}_small_shape_path_colors_0_3",
                    len(inside) == 3 and cols == [0, 3],
                    f"|part|={len(inside)}, inner colors={cols}",
                )
            )
    small_parts = [i for i, b in enumerate(part_boundaries) if len(b) == 5]
    checks.append(
        ClaimCheck(
            "at_most_two_small_parts_properly_paired",
            len(small_parts) <= 2
            and (len(small_parts) < 2 or set(small_parts) in ({0, 1}, {2, 3})),
            f"small parts: {small_parts}",
        )
    )
    for (i, j), expected in (
        ((0, 1), 0),
        ((2, 3), 0),
        ((0, 2), 3),
        ((0, 3), 3),
        ((1, 2), 3),
        ((1, 3), 3),
    ):
        got = len(qd.cross[(i, j)])
        checks.append(
            ClaimCheck(
                f"cross_cut_{i}{j}_size_{expected}",
                got == expected,
                f"{got} edges",
            )
        )

    boundary0 = part_boundaries[0]
    in_h = all(c.colors[e] in (1, 2) for e in boundary0)
    checks.append(
        ClaimCheck(
            "part0_boundary_within_colors_1_2",
            in_h,
            f"colors={sorted(c.colors[e] for e in boundary0)}",
        )
    )
    path_edges = set(paths[0]) | set(paths[1])
    on_paths = len(boundary0 & path_edges)
    checks.append(
        ClaimCheck(
            "part0_boundary_path_edges_odd",
            on_paths % 2 == 1,
            f"{on_paths} of {len(boundary0)} edges on odd paths",
        )
    )
    circuit_crossings = [len(set(circ) & boundary0) for circ in c.circuits]
    checks.append(
        ClaimCheck(
            "circuits_cross_part0_boundary_evenly",
            all(x % 2 == 0 for x in circuit_crossings),
            f"crossings={circuit_crossings}",
        )
    )
    contradiction = all(ch.passed for ch in checks)
    return ParityReport(checks=tuple(checks), contradiction_established=contradiction)


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------


_BALANCED = BalanceReport(True, None, Fraction(0), None)


def _partition_variants(
    ag: AugmentedGraph, base_flow: Flow
) -> list[tuple[str, FlowPartition]]:
    """The two normalized flow partitions used by the proof strategy.

    Primary: first missing-2 vertex white, and (with two paths) the third
    one white as well.  Switched: flip the first path, then recolor so the
    first missing-2 vertex is white again.  Both are read off the one
    partition of ``base_flow``: reversing the flow exchanges the classes of
    every vertex, and reversing the closed circuit of odd path i with its
    twin (:func:`~nzflow.flows.switch_path`) exchanges them exactly on the
    vertices of that path, so no other flow is built.  ``base_flow`` is
    :func:`~nzflow.flows.canonical_4flow`'s, verified only here: its
    rejection is a broken invariant.
    """
    g = ag.graph
    z = ag.coloring.missing2

    def path_vertices(i: int) -> set[int]:
        return {v for eid in ag.coloring.paths[i] for v in g.endpoints(eid)}

    try:
        part = flow_partition(ag, base_flow)
    except ValueError as exc:
        raise InternalInconsistencyError(f"constructed 4-flow rejected: {exc}") from exc
    if z and not part.is_white(z[0]):
        part = part.swapped(range(g.n))
    if len(z) == 4 and not part.is_white(z[2]):
        part = part.swapped(path_vertices(1))
        if not part.is_white(z[0]) or not part.is_white(z[2]):
            raise InternalInconsistencyError("normalization failed")
    variants = [("primary", part)]
    if z:
        p2 = part.swapped(path_vertices(0))
        if not p2.is_white(z[0]):
            p2 = p2.swapped(range(g.n))
        variants.append(("switched", p2))
    for _tag, pv in variants:
        for i in range(len(z) // 2):
            a, b = z[2 * i], z[2 * i + 1]
            if pv.is_white(a) == pv.is_white(b):
                raise InternalInconsistencyError(
                    "path ends landed in the same partition class"
                )
    return variants


def five_flow_oddness4(
    g: MultiGraph,
    *,
    check_cyclic: bool = True,
    max_work: int | None = DEFAULT_MAX_WORK,
) -> FiveFlowCertificate:
    """Run the whole pipeline on a cubic graph and emit a certificate.

    Oddness 0 or 2 uses the same machinery with zero or one switchable path;
    oddness above 4 short-circuits to ``hypothesis_unmet``.  Each variant's
    5-flow is built before its balance is checked: the valuation of a
    nowhere-zero flow is balanced, so a successful build is the variant's
    balance report.  The min-cut check runs once for a variant whose build
    failed (its violator comes with the failure) and for the second variant
    once a flow is in hand, so oddness-0 graphs run none.  When both
    candidate valuations are violated, every structural validator runs and
    the outcome depends on whether cyclic 6-edge-connectivity was verified
    (one exact cyclic-connectivity computation):
    if yes, ``bad_pair_anomaly`` (cyclically 6-edge-connected cubic graphs
    of oddness at most 4 always admit a nowhere-zero 5-flow, so this state
    signals a bug); otherwise ``hypothesis_unmet`` with a fallback flow from
    the generic solver.  ``max_work`` bounds each of the three searches
    (cyclic connectivity, oddness, fallback solver), as ``--max-work`` does.
    """
    audit = basic_checks(g)
    if not audit.is_cubic:
        raise ValueError("input graph must be cubic")

    def mkcert(**kw) -> FiveFlowCertificate:
        base = dict(
            outcome="hypothesis_unmet",
            oddness=None,
            flow=None,
            balanced_partition=None,
            reason=None,
            claim_log=tuple(claim_log),
            fallback_flow=None,
            cyclic=cyclic_info,
            cyclic_connectivity=cyclic_res,
            valuations={
                tag: rep.to_json() for tag, rep in valuation_reports.items()
            },
        )
        base.update(kw)
        return FiveFlowCertificate(**base)

    claim_log: list[ClaimCheck] = []
    valuation_reports: dict[str, BalanceReport] = {}
    cyclic_info: dict = {"status": "skipped"}
    cyclic_res: CyclicConnectivity | None = None
    at_least_six = False

    if check_cyclic:
        try:
            cyclic_res = cyclic_connectivity(g, max_work=max_work)
        except BudgetExceededError:
            cyclic_info = {"status": "budget_exceeded"}
        else:
            at_least_six = cyclic_res.vacuous or cyclic_res.value >= 6
            cyclic_info = {"status": "checked", "at_least_six": at_least_six}
            if not at_least_six:
                cyclic_info["witness_cut_size"] = cyclic_res.value

    if not audit.is_connected or not audit.is_bridgeless:
        return mkcert(reason="graph must be connected and bridgeless")

    odd = compute_oddness(g, max_work=max_work)
    if odd.oddness > 4:
        return mkcert(
            oddness=odd.oddness,
            reason=f"oddness {odd.oddness} exceeds 4",
            fallback_flow=solve_nowhere_zero_flow(g, 5, max_work=max_work),
        )

    coloring = canonical_coloring(g, odd.witness)
    ag = build_augmented(g, coloring)
    variants = _partition_variants(ag, canonical_4flow(ag))

    # construct first: a flow proves its valuation balanced, so a variant
    # is checked only when its build fails or a flow is already in hand
    balanced_tag = None
    flow5 = None
    partitions = {}
    for tag, pv in variants:
        val = to_five_thirds(pv)
        if flow5 is not None:
            rep = check_balanced_mincut(g, val)
        else:
            try:
                flow5 = valuation_to_flow(g, val, 5)
            except UnbalancedValuationError as exc:
                rep = exc.report
            else:
                rep = _BALANCED
                balanced_tag = tag
        valuation_reports[tag] = rep
        partitions[tag] = (val, rep, pv)
        claim_log.append(
            ClaimCheck(
                f"{tag}_valuation_balanced",
                rep.balanced,
                "balanced"
                if rep.balanced
                else f"violator={list(rep.violator)}, margin={rep.margin}",
            )
        )

    if flow5 is not None:
        return mkcert(
            outcome="flow_found",
            oddness=odd.oddness,
            flow=flow5,
            balanced_partition=balanced_tag,
        )

    # both valuations violated: run the validators
    bad_certs = {}
    for tag, (val, rep, pv) in partitions.items():
        subset = rep.violator
        try:
            for chk in validate_violator_claims(g, coloring, pv, subset):
                claim_log.append(
                    ClaimCheck(f"{tag}_{chk.name}", chk.passed, chk.detail)
                )
        except ValueError as exc:
            claim_log.append(ClaimCheck(f"{tag}_violator_valid", False, str(exc)))
        cert = bad_cut_certificate(coloring, pv, edge_cut(g, subset).edges)
        bad_certs[tag] = cert
        claim_log.append(
            ClaimCheck(
                f"{tag}_violator_cut_is_bad",
                cert is not None,
                "bad cut" if cert else "not a bad cut",
            )
        )

    if (
        len(coloring.missing2) == 4
        and bad_certs.get("primary")
        and bad_certs.get("switched")
    ):
        try:
            qd = quad_decompose(
                g,
                bad_certs["primary"].edges,
                bad_certs["switched"].edges,
                coloring.missing2,
            )
            parity = parity_contradiction_check(qd, coloring)
            claim_log.extend(parity.checks)
            claim_log.append(
                ClaimCheck(
                    "parity_contradiction_materialized",
                    parity.contradiction_established,
                    "all premises held" if parity.contradiction_established
                    else "some premise failed (expected off-hypothesis)",
                )
            )
        except (ValueError, InternalInconsistencyError) as exc:
            claim_log.append(ClaimCheck("quad_decomposition", False, str(exc)))

    if at_least_six:
        return mkcert(
            outcome="bad_pair_anomaly",
            oddness=odd.oddness,
            reason=(
                "both flow-partition valuations violated on a cyclically "
                "6-edge-connected graph; such graphs of oddness at most 4 "
                "always admit a nowhere-zero 5-flow, so this indicates a bug"
            ),
        )
    return mkcert(
        oddness=odd.oddness,
        reason=(
            "both flow-partition valuations violated and cyclic "
            "6-edge-connectivity is not established"
        ),
        fallback_flow=solve_nowhere_zero_flow(g, 5, max_work=max_work),
    )
