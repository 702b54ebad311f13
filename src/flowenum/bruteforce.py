"""Exhaustive ground truth for small instances.

Backtracks over arcs in id order, pruning on per-node balance intervals.
Deliberately simple, so the clever algorithms have something independent
to answer to.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Flow, Network, flow_cost
from .errors import BudgetExceededError


@dataclass(frozen=True)
class EnumerationBudget:
    max_states: int = 20_000_000
    max_flows: int = 500_000

    def __post_init__(self) -> None:
        if self.max_states < 1 or self.max_flows < 1:
            raise ValueError("budget limits must be positive")


def enumerate_all_feasible_bruteforce(net: Network, budget: EnumerationBudget | None = None) -> list[Flow]:
    """Every integer b-flow, in arc-value lexicographic order."""
    budget = budget or EnumerationBudget()
    arcs = net.arcs
    arc_count = net.arc_count
    balances = net.balances

    # Interval of achievable remaining contribution (out minus in) per node.
    low = [0] * net.node_count
    high = [0] * net.node_count
    for arc in arcs:
        low[arc.src] += arc.lower
        high[arc.src] += arc.upper
        low[arc.dst] -= arc.upper
        high[arc.dst] -= arc.lower
    fixed = [0] * net.node_count
    assigned = [0] * arc_count
    flows: list[Flow] = []
    states = 0

    def fits(node: int) -> bool:
        gap = balances[node] - fixed[node]
        return low[node] <= gap <= high[node]

    def place(position: int) -> None:
        nonlocal states
        if position == arc_count:
            if len(flows) >= budget.max_flows:
                raise BudgetExceededError(f"more than {budget.max_flows} flows")
            flows.append(Flow(tuple(assigned)))
            return
        arc = arcs[position]
        low[arc.src] -= arc.lower
        high[arc.src] -= arc.upper
        low[arc.dst] += arc.upper
        high[arc.dst] += arc.lower
        for value in range(arc.lower, arc.upper + 1):
            states += 1
            if states > budget.max_states:
                raise BudgetExceededError(f"more than {budget.max_states} search states")
            assigned[position] = value
            fixed[arc.src] += value
            fixed[arc.dst] -= value
            if fits(arc.src) and fits(arc.dst):
                place(position + 1)
            fixed[arc.src] -= value
            fixed[arc.dst] += value
        low[arc.src] += arc.lower
        high[arc.src] += arc.upper
        low[arc.dst] -= arc.upper
        high[arc.dst] -= arc.lower

    if all(fits(node) for node in range(net.node_count)):
        try:
            place(0)
        except RecursionError:
            raise BudgetExceededError(
                f"{arc_count} arcs nest deeper than the interpreter's recursion limit"
            ) from None
    return flows


def enumerate_all_optimal_bruteforce(net: Network, budget: EnumerationBudget | None = None) -> list[Flow]:
    """The feasible set filtered at minimum cost."""
    feasible = enumerate_all_feasible_bruteforce(net, budget)
    if not feasible:
        return []
    best = min(flow_cost(net, flow) for flow in feasible)
    return [flow for flow in feasible if flow_cost(net, flow) == best]


def k_best_bruteforce(net: Network, k: int, budget: EnumerationBudget | None = None) -> list[Flow]:
    """Cost-sorted prefix of the full feasible enumeration."""
    feasible = enumerate_all_feasible_bruteforce(net, budget)
    ordered = sorted(feasible, key=lambda flow: (flow_cost(net, flow), flow.values))
    return ordered[: max(0, k)]
