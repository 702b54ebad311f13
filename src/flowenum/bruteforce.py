"""Exhaustive ground truth for small instances.

Backtracks over arcs in id order, pruning on per-node balance intervals.
The search keeps an explicit stack, so its depth is not bounded by the
interpreter's recursion limit.  Deliberately simple, so the clever
algorithms have something independent to answer to.
"""

from __future__ import annotations

from collections.abc import Iterator
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
    # The search stack: one iterator over the values still to try per open
    # arc, in id order.  Every open arc but the last has its value applied.
    untried: list[Iterator[int]] = []

    def fits(node: int) -> bool:
        gap = balances[node] - fixed[node]
        return low[node] <= gap <= high[node]

    def record() -> None:
        if len(flows) >= budget.max_flows:
            raise BudgetExceededError(f"more than {budget.max_flows} flows")
        flows.append(Flow(tuple(assigned)))

    def open_arc(position: int) -> None:
        arc = arcs[position]
        low[arc.src] -= arc.lower
        high[arc.src] -= arc.upper
        low[arc.dst] += arc.upper
        high[arc.dst] += arc.lower
        untried.append(iter(range(arc.lower, arc.upper + 1)))

    def unassign(position: int) -> None:
        arc = arcs[position]
        fixed[arc.src] -= assigned[position]
        fixed[arc.dst] += assigned[position]

    if all(fits(node) for node in range(net.node_count)):
        if arc_count:
            open_arc(0)
        else:
            record()
    while untried:
        position = len(untried) - 1
        arc = arcs[position]
        value = next(untried[-1], None)
        if value is None:
            low[arc.src] += arc.lower
            high[arc.src] += arc.upper
            low[arc.dst] -= arc.upper
            high[arc.dst] -= arc.lower
            untried.pop()
            if position:
                unassign(position - 1)
            continue
        states += 1
        if states > budget.max_states:
            raise BudgetExceededError(f"more than {budget.max_states} search states")
        assigned[position] = value
        fixed[arc.src] += value
        fixed[arc.dst] -= value
        if fits(arc.src) and fits(arc.dst):
            if position + 1 < arc_count:
                open_arc(position + 1)
                continue
            record()
        unassign(position)
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
