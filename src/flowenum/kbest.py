"""Ranked flow enumeration: K distinct flows in nondecreasing cost order.

A second-best flow is either another optimum (another feasible flow of the
optimal face) or one unit pushed around the cheapest proper cycle.  That
cycle is an arc sitting at one of its bounds plus the shortest way back
from its head to its tail, found with the solver's Dijkstra over residual
reduced costs.  Regions of the solution space are then split exactly as
in the all-optimal search and ranked on a heap keyed by challenger cost.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Iterator

from .core import Flow, Network, flow_cost, validate_network
from .dfs import find_another_feasible_flow
from .enumeration import optimal_face, partition_solution_space
from .errors import InvariantError
from .solver import (
    _dijkstra,
    _incidence,
    compute_node_potentials,
    compute_reduced_costs,
    solve_min_cost_flow,
)


def find_second_best_flow(net: Network, flow: Flow) -> Flow | None:
    """The cheapest flow different from an optimal one; ties come first."""
    potential = compute_node_potentials(net, flow)
    reduced_costs = compute_reduced_costs(net, potential)
    tied = find_another_feasible_flow(optimal_face(net, flow, reduced_costs), flow)
    if tied is not None:
        return tied
    # The flow is the unique optimum, so the next flow is one unit around the
    # cheapest proper cycle.  Only an arc at a bound lacks an anti-parallel
    # residual partner, so each such arc, traversed away from its bound and
    # closed by a shortest path back, is a candidate cycle.
    arcs = net.arcs
    span = [arc.span for arc in arcs]
    extra = [value - arc.lower for arc, value in zip(arcs, flow.values)]
    out_arcs, in_arcs = _incidence(net)
    searches: dict[int, tuple] = {}  # head -> (dist, pred) of one full Dijkstra
    best_total = best = None
    for index, arc in enumerate(arcs):
        if span[index] == 0:
            continue
        if extra[index] == 0:
            head, tail, weight = arc.dst, arc.src, reduced_costs[index]
        elif extra[index] == span[index]:
            head, tail, weight = arc.src, arc.dst, -reduced_costs[index]
        else:
            continue
        if head not in searches:
            searches[head] = _dijkstra(net, span, extra, potential, out_arcs, in_arcs, head)
        back = searches[head][0][tail]
        if back is not None and (best_total is None or weight + back < best_total):
            best_total = weight + back
            best = (index, extra[index] == 0, head, tail)
    if best is None:
        return None
    index, forward, head, tail = best
    steps = {index: forward}
    pred = searches[head][1]
    node = tail
    while node != head:
        index, forward = pred[node]
        if steps.setdefault(index, forward) != forward:
            raise InvariantError("cheapest cycle uses an arc in both directions")
        node = arcs[index].src if forward else arcs[index].dst
    values = list(flow.values)
    for index, forward in steps.items():
        values[index] += 1 if forward else -1
    return Flow(tuple(values))


def iter_k_best_flows(net: Network, k: int) -> Iterator[Flow]:
    """Up to k distinct flows, cheapest first; stops early if fewer exist."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    validate_network(net)
    best = solve_min_cost_flow(net)
    yield best
    if k == 1:
        return
    emitted = 1
    ticket = count()
    heap: list = []  # (challenger cost, ticket, region, region's best flow, challenger)

    def offer(region: Network, region_best: Flow) -> None:
        challenger = find_second_best_flow(region, region_best)
        if challenger is not None:
            heapq.heappush(heap, (flow_cost(net, challenger), next(ticket), region, region_best, challenger))

    offer(net, best)
    while heap and emitted < k:
        _, _, region, parent, challenger = heapq.heappop(heap)
        yield challenger
        emitted += 1
        if emitted == k:
            return
        stay, move = partition_solution_space(region, parent, challenger)
        offer(stay, parent)
        offer(move, challenger)
