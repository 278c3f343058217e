"""Adjacent-vertex-distinguishing total colourings.

Build proper total colourings whose incident-colour sets differ across
every edge, verify candidate colourings, compute exact chromatic
statistics on small graphs, and evaluate the tail bounds and local-lemma
conditions behind the randomized construction.
"""

from .bounds import (BoundReport, DerivedConstants, DomainError,
                     binom_lower_tail_log, binom_upper_tail_log, compute_c0,
                     derive_constants, find_feasible_delta,
                     lll_asymmetric_check)
from .coloring import (DocumentError, TotalColoring, Violation, check_total,
                       from_document, to_document, verdict, violations)
from .exact import (CapacityError, ConjectureReport, GraphRecord,
                    check_conjecture, chi_at_exact, chi_prime_exact,
                    chi_total_exact, find_edge_coloring, find_total_coloring)
from .graphs import (DegreeSplit, DimacsError, Edge, Graph, Graph6Error,
                     complete_bipartite_graph, complete_graph, cycle_graph,
                     degree_split, normalize_edge, parse_dimacs, parse_graph6,
                     path_graph, random_gnp, random_regular, star_graph,
                     write_graph6)
from .highdeg import (BadEvent, EdgeSelection, PipelineParams, SelectionResult,
                      find_bulk_deletion, find_patch_deletion, light_vertices)
from .lowdeg import distinguish_low_degree
from .pipeline import (PipelineReport, recolor_union, repair_fallback,
                       run_pipeline)
from .rng import substream
from .seeding import greedy_total
from .vizing import EdgeColoring, vizing_color

__all__ = [
    "BadEvent",
    "BoundReport",
    "CapacityError",
    "ConjectureReport",
    "DegreeSplit",
    "DerivedConstants",
    "DimacsError",
    "DocumentError",
    "DomainError",
    "Edge",
    "EdgeColoring",
    "EdgeSelection",
    "Graph",
    "Graph6Error",
    "GraphRecord",
    "PipelineParams",
    "PipelineReport",
    "SelectionResult",
    "TotalColoring",
    "Violation",
    "binom_lower_tail_log",
    "binom_upper_tail_log",
    "check_conjecture",
    "check_total",
    "chi_at_exact",
    "chi_prime_exact",
    "chi_total_exact",
    "complete_bipartite_graph",
    "complete_graph",
    "compute_c0",
    "cycle_graph",
    "degree_split",
    "derive_constants",
    "distinguish_low_degree",
    "find_bulk_deletion",
    "find_edge_coloring",
    "find_feasible_delta",
    "find_patch_deletion",
    "find_total_coloring",
    "from_document",
    "greedy_total",
    "light_vertices",
    "lll_asymmetric_check",
    "normalize_edge",
    "parse_dimacs",
    "parse_graph6",
    "path_graph",
    "random_gnp",
    "random_regular",
    "recolor_union",
    "repair_fallback",
    "run_pipeline",
    "star_graph",
    "substream",
    "to_document",
    "verdict",
    "violations",
    "vizing_color",
    "write_graph6",
]

__version__ = "0.1.0"
