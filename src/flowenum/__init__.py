"""Minimum-cost integer flows: one optimum, every optimum, the K best, and
bounds on how many solutions exist, with a brute-force oracle for
cross-checking on small instances.

The package root exports the names the README's Library section documents;
everything else is imported from its submodule.
"""

from .core import Arc, Flow, Network
from .enumeration import iter_optimal_flows
from .kbest import iter_k_best_flows
from .solver import solve_min_cost_flow
from .treebounds import count_lower_bound, count_upper_bound, to_tree_solution, zero_cost_nontree_set

__version__ = "0.1.0"

__all__ = [
    "Arc",
    "Flow",
    "Network",
    "count_lower_bound",
    "count_upper_bound",
    "iter_k_best_flows",
    "iter_optimal_flows",
    "solve_min_cost_flow",
    "to_tree_solution",
    "zero_cost_nontree_set",
]
