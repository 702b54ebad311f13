"""Ranked flow enumeration: K distinct flows in nondecreasing cost order.

A second-best flow is either another optimum (found through the reduced
network) or one unit pushed around the cheapest proper cycle, located with
a Floyd-Warshall distance table over residual reduced costs.  Regions of
the solution space are then split exactly as in the all-optimal search and
ranked on a heap keyed by challenger cost.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import count
from typing import Iterator

from .core import Cycle, Flow, Network, ResidualGraph, augment, build_residual, flow_cost, validate_network
from .enumeration import find_another_optimal_flow, partition_solution_space
from .errors import InvariantError, NegativeReducedCostError
from .solver import (
    compute_node_potentials,
    compute_reduced_costs,
    residual_reduced_costs,
    solve_min_cost_flow,
)

INF = float("inf")


@dataclass(frozen=True)
class DistanceTable:
    """All-pairs shortest distances over residual reduced costs."""

    dist: tuple[tuple[int | float, ...], ...]
    first_arc: tuple[tuple[int | None, ...], ...]


def distance_table(rg: ResidualGraph, residual_costs) -> DistanceTable:
    """Floyd-Warshall with first-hop reconstruction; costs must be >= 0."""
    for weight in residual_costs:
        if weight < 0:
            raise NegativeReducedCostError("residual reduced costs must be nonnegative")
    n = rg.node_count
    dist = [[INF] * n for _ in range(n)]
    first: list[list[int | None]] = [[None] * n for _ in range(n)]
    for node in range(n):
        dist[node][node] = 0
    for index, res in enumerate(rg.arcs):
        weight = residual_costs[index]
        if weight < dist[res.src][res.dst]:
            dist[res.src][res.dst] = weight
            first[res.src][res.dst] = index
    for mid in range(n):
        mid_row = dist[mid]
        for src in range(n):
            through = dist[src][mid]
            if through == INF:
                continue
            row = dist[src]
            hops = first[src]
            for dst in range(n):
                candidate = through + mid_row[dst]
                if candidate < row[dst]:
                    row[dst] = candidate
                    hops[dst] = hops[mid]
    return DistanceTable(tuple(tuple(r) for r in dist), tuple(tuple(r) for r in first))


def shortest_path_arcs(table: DistanceTable, rg: ResidualGraph, src: int, dst: int):
    """Residual arc indices of one shortest src->dst path, None if unreachable."""
    if table.dist[src][dst] == INF:
        return None
    arcs: list[int] = []
    node = src
    while node != dst:
        index = table.first_arc[node][dst]
        if index is None or len(arcs) > rg.node_count:
            raise RuntimeError("corrupt distance table")
        arcs.append(index)
        node = rg.arcs[index].dst
    return arcs


def candidate_arc_set(net: Network, flow: Flow, rg: ResidualGraph) -> tuple[int, ...]:
    """Residual arcs whose origin sits exactly at the bound they leave behind.

    These are precisely the residual arcs with no anti-parallel partner, so
    the cheapest proper cycle through one of them is its reduced cost plus
    the shortest way back.
    """
    chosen = []
    for index, res in enumerate(rg.arcs):
        arc = net.arcs[res.origin_arc]
        value = flow.values[res.origin_arc]
        if res.forward:
            if value == arc.lower:
                chosen.append(index)
        elif value == arc.upper:
            chosen.append(index)
    return tuple(chosen)


def find_second_best_flow(net: Network, flow: Flow) -> Flow | None:
    """The cheapest flow different from an optimal one; ties come first."""
    potential = compute_node_potentials(net, flow)
    reduced_costs = compute_reduced_costs(net, potential)
    tied = find_another_optimal_flow(net, flow, reduced_costs)
    if tied is not None:
        return tied
    rg = build_residual(net, flow)
    residual_costs = residual_reduced_costs(rg, reduced_costs)
    table = distance_table(rg, residual_costs)
    best_total = None
    best_arc = None
    for index in candidate_arc_set(net, flow, rg):
        res = rg.arcs[index]
        back = table.dist[res.dst][res.src]
        if back == INF:
            continue
        total = residual_costs[index] + back
        if best_total is None or total < best_total:
            best_total = total
            best_arc = index
    if best_arc is None:
        return None
    res = rg.arcs[best_arc]
    path = shortest_path_arcs(table, rg, res.dst, res.src)
    cycle = Cycle((res, *(rg.arcs[i] for i in path)))
    if not cycle.is_proper():
        raise InvariantError("cheapest cycle uses an arc in both directions")
    return augment(flow, cycle, 1)


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
