"""Exact-arithmetic toolkit for distance characteristic polynomials.

Computes exact characteristic polynomials of graph distance matrices,
derives the normalized coefficient sequences, and verifies unimodality,
log-concavity and peak-location bounds exhaustively over all free trees
up to a configurable order.
"""

from .analysis import (
    AggregateReport,
    SweepInterrupted,
    TreeReport,
    analyze_graph,
    analyze_tree,
    verify_range,
)
from .graphs import (
    DisconnectedGraphError,
    Graph,
    GraphParseError,
    GraphStructureError,
    count_p3,
    distance_matrix,
    from_edge_list,
    from_graph6,
    graph_from_edges,
    heawood,
)
from .polynomials import (
    CharPoly,
    charpoly,
    delta_seq,
    normalized_seq,
    trace_power,
)
from .sequences import (
    BoundSet,
    PeakInterval,
    bound_set,
    is_log_concave,
    is_unimodal,
    newton_check,
    peak_interval,
    ratio_bound_check,
)
from .treegen import (
    preorder_parents,
    to_graph,
    tree_count_recurrence,
    tree_stream,
)

__version__ = "0.1.0"
