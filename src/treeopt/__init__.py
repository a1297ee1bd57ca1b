"""Exact-arithmetic toolkit for spanning-tree maximization.

Everything certification-relevant runs on arbitrary-precision integers:
graph enumeration up to isomorphism, characteristic polynomials, trace
sequences and their gap floors, spanning-tree counts through complements,
and the girth shortcut for trace-minimality. Floating point appears only
in the diagnostic upper bounds.
"""

from .certify import (
    EXHAUSTIVE,
    GIRTH_CERTIFICATE,
    REFUTED,
    SCHEMA_VERSION,
    TOOL_VERSION,
    VERIFIED,
    Certificate,
    Witness,
    cmd_check_duality,
    cmd_report_class,
    cmd_verify_l_trace_minimal,
    cmd_verify_t_optimal,
    cmd_verify_trace_minimal,
    construct_summary,
)
from .bounds import (
    CERTIFIED_BY_CYCLE_COUNTS,
    CERTIFIED_UNIQUE,
    INCONCLUSIVE,
    BoundReport,
    abrego_feasibility,
    base_bound,
    f_of,
    family_tree_count,
    girth_certificate,
    improved_bound,
    n0_threshold,
)
from .enumeration import (
    CANONICAL_HARD_CAP,
    GraphClassSpec,
    canonical_form,
    canonical_relabel,
    enumerate_almost_regular,
    enumerate_by_edges,
    enumerate_class,
    enumerate_regular,
    ladder_level,
    nu_min_set,
    spool_class,
    tau_min,
)
from .errors import (
    CapsExceededError,
    Graph6Error,
    InternalConsistencyError,
    UnsupportedSizeError,
)
from .graphs import (
    GIRTH_INFINITE,
    MAX_VERTICES,
    Graph,
    complement,
    complete_bipartite,
    complete_graph,
    count_induced_p3,
    count_triangles,
    cycle_graph,
    degree_info,
    disjoint_union,
    empty_graph,
    extend_g0,
    from_graph6,
    girth,
    girth_and_cycles,
    h_family,
    is_clique_union,
    is_connected,
    join,
    join_power,
    path_graph,
    to_graph6,
)
from .linalg import (
    IntMatrix,
    adjacency_matrix,
    char_poly,
    det_bareiss,
    laplacian,
    spanning_tree_count,
    trace_powers,
    tree_count_via_complement,
)
from .sequences import (
    ADJACENCY,
    LAPLACIAN,
    adjacency_sequence,
    degree_power_floor,
    gap_sequence,
    laplacian_sequence,
    lex_divergence,
    mixed_trace_identity_check,
    select_lex_minima,
)

__version__ = TOOL_VERSION
