"""Nowhere-zero flow toolkit for cubic graphs.

Core objects: multigraphs with stable edge ids, 2-factors and oddness,
canonical 4-edge-colorings, integer flows with certificates, balanced
valuations, and the 5-flow pipeline for cubic graphs of small oddness.
"""

from .errors import (
    BudgetExceededError,
    InternalInconsistencyError,
    NZFlowError,
    UnbalancedValuationError,
)
from .graph import (
    BasicChecks,
    EdgeCut,
    MultiGraph,
    basic_checks,
    edge_cut,
    pair_cut,
    trace_circuit,
)
from .graph6 import Graph6Error, parse_graph6, serialize_graph6
from .structure import (
    CyclicCheck,
    CyclicConnectivity,
    OddnessResult,
    TwoFactor,
    compute_oddness,
    cyclic_connectivity,
    enumerate_two_factors,
    girth,
    is_cyclically_k_connected,
    three_edge_colourable,
    two_factor_from_matching,
)
from .coloring import (
    Coloring4,
    canonical_coloring,
    cut_color_profile,
    with_profile,
)
from .flows import (
    AddedPair,
    AugmentedGraph,
    Flow,
    build_augmented,
    canonical_4flow,
    circulation_on_circuit,
    flow_from_json,
    flow_to_json,
    is_nowhere_zero,
    make_flow,
    mod_to_integer_flow,
    reverse_flow,
    solve_nowhere_zero_flow,
    sum_flows,
    switch_path,
    verify_flow,
)
from .valuation import (
    BalanceReport,
    FlowPartition,
    Valuation,
    check_balanced_mincut,
    flow_partition,
    flow_to_valuation,
    subset_margin,
    to_five_thirds,
    valuation_to_flow,
)
from .engine import (
    BadCutCertificate,
    ClaimCheck,
    FiveFlowCertificate,
    ParityReport,
    QuadDecomposition,
    bad_cut_certificate,
    five_flow_oddness4,
    is_bad_cut,
    parity_contradiction_check,
    quad_decompose,
    validate_violator_claims,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
