"""diamest: graph diameter estimation toolkit.

Exact diameter oracle, a family of approximation estimators with provable
floors, a dominating-set-based generator of adversarial 2-vs-3 diameter
instances, seeded corpus generators and a benchmark CLI.
"""

from .graph import (Graph, GraphError, GraphParseError, InfiniteDiameterError,
                    UNREACHED, build_graph, finite_diameter_check,
                    parse_dimacs, parse_edge_list, parse_graph,
                    write_edge_list)
from .search import (IN, OUT, NearSet, SearchTree, batch_depths,
                     batch_search_stats, nearest_high_degree, nearest_in_set,
                     nearest_s, search)
from .oracle import ExactResult, exact_apsp, exact_diameter
from .estimators import (Estimate, RestartLimitError, Witness, aingworth,
                         dense_estimate, four_fifths_estimate,
                         recompute_witness, sampled_estimate,
                         sampled_estimate_weighted, sampling_estimate,
                         sparse_driver, sparse_estimate, two_approx)
from .hardness import (ReductionInstance, brute_force_dominating_set,
                       build_diameter_instance)
from .generators import PRNG_NAME, GenSpec, generate

__version__ = "0.1.0"

__all__ = [
    "Graph", "GraphError", "GraphParseError",
    "InfiniteDiameterError", "UNREACHED", "build_graph",
    "finite_diameter_check", "parse_dimacs", "parse_edge_list", "parse_graph",
    "write_edge_list",
    "IN", "OUT", "NearSet", "SearchTree", "batch_depths", "batch_search_stats",
    "nearest_high_degree", "nearest_in_set", "nearest_s", "search",
    "ExactResult", "exact_apsp", "exact_diameter",
    "Estimate", "RestartLimitError", "Witness", "aingworth", "dense_estimate",
    "four_fifths_estimate", "recompute_witness", "sampled_estimate",
    "sampled_estimate_weighted", "sampling_estimate", "sparse_driver",
    "sparse_estimate", "two_approx",
    "ReductionInstance", "brute_force_dominating_set", "build_diameter_instance",
    "PRNG_NAME", "GenSpec", "generate",
    "__version__",
]
