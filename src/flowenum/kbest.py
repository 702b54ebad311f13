"""Ranked flow enumeration: K distinct flows in nondecreasing cost order.

A second-best flow is either another optimum (another feasible flow of the
optimal face) or one unit pushed around the cheapest proper cycle.  That
cycle is an arc sitting at one of its bounds plus the shortest way back
from its head to its tail, found with the solver's Dijkstra over residual
reduced costs.  Heads are searched best first, in order of their cheapest
candidate arc, and each search is bounded: the Dijkstra yields nodes as
they settle, and this module stops reading it at the first node past the
radius beyond which the search cannot beat the best cycle found so far, or
once every candidate tail of its head has settled.  Only the distances of
tails seen to settle are read, since those are final.  Regions of the
solution space are then split exactly as in the all-optimal search and
ranked on a heap keyed by challenger cost.
"""

from __future__ import annotations

import heapq
import math
from itertools import count
from typing import Iterator

from .core import Flow, Network, flow_cost
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
    # Pruned searches scan only part of the residual graph, so its reduced
    # costs are all checked here; this also makes every candidate weight >= 0.
    for index, reduced in enumerate(reduced_costs):
        if (reduced < 0 and extra[index] < span[index]) or (reduced > 0 and extra[index] > 0):
            raise InvariantError(f"negative residual reduced cost on arc {index}")
    groups: dict[int, list] = {}  # head -> candidates (weight, index, forward, tail)
    for index, arc in enumerate(arcs):
        if span[index] == 0:
            continue
        if extra[index] == 0:
            groups.setdefault(arc.dst, []).append((reduced_costs[index], index, True, arc.src))
        elif extra[index] == span[index]:
            groups.setdefault(arc.src, []).append((-reduced_costs[index], index, False, arc.dst))
    # The answer is the least (weight + dist[tail], index).  Heads are searched
    # cheapest candidate first, and each search stops past the radius beyond
    # which none of its candidates can reach that key (ties included, since a
    # smaller index still wins) or once all of its tails are settled.
    out_arcs, in_arcs = _incidence(net)
    n = net.node_count
    best_key = best = None
    for least, head in sorted((min(group)[0], head) for head, group in groups.items()):
        if best_key is not None and least > best_key[0]:
            break
        group = groups[head]
        radius = math.inf if best_key is None else best_key[0] - least
        waiting = {tail for *_, tail in group}
        dist, pred = [None] * n, [None] * n
        for node in _dijkstra(net, span, extra, potential, out_arcs, in_arcs, head, dist, pred):
            if dist[node] > radius:
                break
            waiting.discard(node)
            if not waiting:
                break
        for weight, index, forward, tail in group:
            if tail not in waiting and (best_key is None or (weight + dist[tail], index) < best_key):
                best_key = (weight + dist[tail], index)
                best = (index, forward, head, tail, pred)
    if best is None:
        return None
    index, forward, head, tail, pred = best
    steps = {index: forward}
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
