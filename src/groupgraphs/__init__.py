"""Graphs derived from finite groups, their connectivity invariants, and a
corpus runner that screens classification claims against computed reality.

Quick tour::

    from groupgraphs import build_family, parse_group_spec, commuting_graph
    from groupgraphs import edge_connectivity, is_minimally_edge_connected

    g = build_family(parse_group_spec("dihedral:3"))
    graph = commuting_graph(g)
    edge_connectivity(graph)            # 1
    is_minimally_edge_connected(graph)  # holds=False, witness edge included
"""

from ._version import __version__
from .builders import (
    GRAPH_KINDS,
    build_graph,
    commuting_graph,
    coprime_graph,
    non_inverse_graph,
    order_sum_graph,
)
from .claims import (
    ALL_KINDS,
    CLAIM_REGISTRY,
    ClaimId,
    ClaimVerdict,
    CorpusReport,
    GraphAnalysis,
    GroupAnalysis,
    InvariantCheck,
    REPORT_SCHEMA,
    default_corpus,
    evaluate_claim,
    run_corpus,
    sanity_invariants,
)
from .connectivity import (
    TooLargeForOracleError,
    edge_connectivity,
    edge_connectivity_oracle,
    vertex_connectivity,
    vertex_connectivity_oracle,
)
from .families import (
    DEFAULT_ORDER_CAP,
    FamilySpec,
    InvalidParameterError,
    OrderCapExceededError,
    build_family,
    parse_group_spec,
)
from .graphs import (
    EdgeNotPresentError,
    GraphShape,
    SimpleGraph,
    complete_graph,
    cycle_graph,
    path_graph,
    shape_profile,
    star_graph,
    to_dot,
    to_edge_csv,
)
from .groups import (
    FiniteGroup,
    GroupProfile,
    GroupTableError,
    NoIdentityError,
    NoInverseError,
    NotAssociativeError,
    NotClosedError,
    parse_cayley_table_text,
)
from .minimality import (
    DominatingVertexCriterion,
    MinimalityVerdict,
    dominating_vertex_criterion,
    is_minimally_connected,
    is_minimally_edge_connected,
)

__all__ = [
    "__version__",
    # groups
    "FiniteGroup",
    "GroupProfile",
    "GroupTableError",
    "NotClosedError",
    "NoIdentityError",
    "NoInverseError",
    "NotAssociativeError",
    "parse_cayley_table_text",
    # families
    "FamilySpec",
    "DEFAULT_ORDER_CAP",
    "InvalidParameterError",
    "OrderCapExceededError",
    "build_family",
    "parse_group_spec",
    # graphs
    "SimpleGraph",
    "GraphShape",
    "EdgeNotPresentError",
    "shape_profile",
    "complete_graph",
    "star_graph",
    "cycle_graph",
    "path_graph",
    "to_dot",
    "to_edge_csv",
    # builders
    "GRAPH_KINDS",
    "build_graph",
    "commuting_graph",
    "coprime_graph",
    "order_sum_graph",
    "non_inverse_graph",
    # connectivity
    "TooLargeForOracleError",
    "edge_connectivity",
    "vertex_connectivity",
    "edge_connectivity_oracle",
    "vertex_connectivity_oracle",
    # minimality
    "MinimalityVerdict",
    "DominatingVertexCriterion",
    "is_minimally_edge_connected",
    "is_minimally_connected",
    "dominating_vertex_criterion",
    # claims
    "ClaimId",
    "ClaimVerdict",
    "CorpusReport",
    "InvariantCheck",
    "GraphAnalysis",
    "GroupAnalysis",
    "CLAIM_REGISTRY",
    "REPORT_SCHEMA",
    "ALL_KINDS",
    "default_corpus",
    "evaluate_claim",
    "run_corpus",
    "sanity_invariants",
]
