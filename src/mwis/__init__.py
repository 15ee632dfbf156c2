"""Maximum-weight independent set toolkit.

Exact kernelization (thirteen reduction rules with full undo and solution
reconstruction), a partition-based memetic search over the kernel, and a
heuristic vertex-forcing loop that alternates the two until the graph is
gone.  An exact branch-and-bound for small instances finishes every kernel
of at most 40 vertices and is the test suite's reference.
"""

from .graph import (GraphError, WeightedGraph, build_graph,
                    independence_violations, is_independent, set_weight)
from .metis_io import (GraphFormatError, format_solution, parse_metis,
                       parse_solution, write_metis)
from .oracle import OracleBudgetError, OracleLimitError, OracleLimits, brute_force
from .reductions import (Kernel, ORDERING_EXPERIMENTS, ORDERING_PRESETS,
                         OrderingTrial, ReductionEvent, Rule, exact_reduce,
                         reconstruct, run_ordering_experiment, undo_event)
from .local_search import (SearchState, maximize_greedy, omega_one_swap,
                           one_two_swap, perturb, vnd)
from .partition import (Partition, PartitionPool, SEPARATOR, edge_partition,
                        separator_from, validate_partition, vertex_separator)
from .evolution import (Individual, InitStrategy, Population, build_initial,
                        combine_edge_separator, combine_multiway_edge_separator,
                        combine_multiway_vertex_separator,
                        combine_vertex_separator, evolve, initial_population,
                        make_individual, mutate, replace, tournament_select)
from .heuristic import SelectionStrategy, heuristic_reduce, rate
from .solver import (RoundStats, SolveResult, SolverConfig, VerifyReport,
                     solve, verify)

__version__ = "0.1.0"

__all__ = [
    "GraphError", "GraphFormatError", "Individual",
    "InitStrategy", "Kernel", "ORDERING_EXPERIMENTS", "ORDERING_PRESETS",
    "OracleBudgetError", "OracleLimitError", "OracleLimits", "OrderingTrial",
    "Partition", "PartitionPool", "Population", "ReductionEvent",
    "RoundStats", "Rule", "SEPARATOR", "SearchState", "SelectionStrategy",
    "SolveResult", "SolverConfig", "VerifyReport",
    "WeightedGraph", "brute_force", "build_graph", "build_initial",
    "combine_edge_separator",
    "combine_multiway_edge_separator", "combine_multiway_vertex_separator",
    "combine_vertex_separator", "edge_partition", "evolve", "exact_reduce",
    "format_solution", "heuristic_reduce", "independence_violations",
    "initial_population", "is_independent", "make_individual",
    "maximize_greedy", "mutate", "omega_one_swap", "one_two_swap",
    "parse_metis", "parse_solution", "perturb", "rate",
    "reconstruct", "replace", "run_ordering_experiment", "separator_from",
    "set_weight", "solve", "tournament_select", "undo_event",
    "validate_partition", "verify", "vertex_separator", "vnd", "write_metis",
]
