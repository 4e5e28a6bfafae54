"""Hamilton cycles in balanced k-partite graphs at the edge threshold.

The package decides and constructs Hamilton cycles for graphs whose edge
count meets a sharp threshold, checks the classical sufficient conditions,
and verifies both directions (decision correctness and threshold
sharpness) exhaustively at desk scale against an independent oracle.
"""

from .conditions import (
    ConditionReport,
    check_ore,
    check_theorem2_edges,
    check_theorem4_min_degree,
    check_theorem5_sigma,
    edge_threshold,
    evaluate,
)
from .constructive import (
    SolveResult,
    close_hamilton_path,
    ore_build_cycle,
    solve,
    solve_theorem11,
)
from .errors import (
    BudgetExceeded,
    ConstructionFailed,
    GraphFormatError,
    HypothesisNotMet,
    InvalidCycle,
    InvalidGraph,
    InvalidPath,
    KphamError,
    TooLarge,
    TooSmall,
)
from .extremal import (
    FaultReport,
    fault_tolerance_trial,
    random_graph_at_edge_count,
    tight_non_hamiltonian,
)
from .graph import (
    MAX_VERTICES,
    SIGMA_INFINITY,
    GraphStats,
    KPartiteGraph,
    from_edge_list,
    new_complete,
    remove_edges,
    stats,
)
from .graphio import parse_graph, parse_graphs, write_graph, write_graphs
from .oracle import (
    Counterexample,
    EnumerationSummary,
    OracleAnswer,
    enumerate_threshold_sweep,
    is_hamiltonian,
)
from .paths import (
    canonical_cycle,
    is_hamilton_cycle,
    validate_hamilton_cycle,
    validate_hamilton_path,
    validate_path,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "ConditionReport",
    "ConstructionFailed",
    "Counterexample",
    "EnumerationSummary",
    "FaultReport",
    "GraphFormatError",
    "GraphStats",
    "HypothesisNotMet",
    "InvalidCycle",
    "InvalidGraph",
    "InvalidPath",
    "KPartiteGraph",
    "KphamError",
    "MAX_VERTICES",
    "OracleAnswer",
    "SIGMA_INFINITY",
    "SolveResult",
    "TooLarge",
    "TooSmall",
    "canonical_cycle",
    "check_ore",
    "check_theorem2_edges",
    "check_theorem4_min_degree",
    "check_theorem5_sigma",
    "close_hamilton_path",
    "edge_threshold",
    "enumerate_threshold_sweep",
    "evaluate",
    "fault_tolerance_trial",
    "from_edge_list",
    "is_hamilton_cycle",
    "is_hamiltonian",
    "new_complete",
    "ore_build_cycle",
    "parse_graph",
    "parse_graphs",
    "random_graph_at_edge_count",
    "remove_edges",
    "solve",
    "solve_theorem11",
    "stats",
    "tight_non_hamiltonian",
    "validate_hamilton_cycle",
    "validate_hamilton_path",
    "validate_path",
    "write_graph",
    "write_graphs",
]
