"""Ranked flow enumeration: K distinct flows in nondecreasing cost order.

A second-best flow is either another optimum (another feasible flow of the
optimal face) or one unit pushed around the cheapest proper cycle.  That
cycle is a residual id `r` whose reverse `r ^ 1` has no room (its arc sits
at a bound) plus the shortest way back from its head to its tail.  Each
offer reads the residual ids once, into per-node lists of the face's ids
(those of reduced weight 0) for the proper-cycle DFS and of `(weight, head,
id)` for this module's own Dijkstra.  Heads are searched best first, in
order of their cheapest candidate, and each search is bounded: the offer
stops reading it at the first node past the radius beyond which it cannot
beat the best cycle found so far, or once every candidate tail of its head
has settled.  Only the distances of tails seen to settle are read, since
those are final.  Regions of the solution space are split as in the
all-optimal search and ranked on a heap keyed by challenger cost.  All
regions share the instance's one `core.Frame`: a heap entry holds its own
copies of the `lower` and `upper` lists, swapped into the frame to search.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from itertools import count
from typing import Iterator

from .core import Flow, Frame, Network, check_feasible, flow_cost, frame_of, push_unit, residual_room
from .dfs import _forest, _proper_cycle
from .enumeration import _split
from .errors import InfeasibleFlowError, InvariantError
from .solver import _path, _potentials, _solve


def find_second_best_flow(net: Network, flow: Flow) -> Flow | None:
    """The cheapest flow other than the optimal `flow`, ties first; raises InfeasibleFlowError."""
    if not check_feasible(net, flow):
        raise InfeasibleFlowError("cannot search from an infeasible flow")
    return _second_best(frame_of(net), flow.values)


def _second_best(region: Frame, values) -> Flow | None:
    """`find_second_best_flow` within the region's bounds; `values` must be optimal there."""
    head, cost = region.head, region.cost
    room = residual_room(region, values)
    potential = _potentials(region, room)
    # Pruned searches scan only part of the residual graph, so every weight is checked
    # here.  Each id whose reverse has no room starts a candidate cycle.
    out: list[list] = [[] for _ in range(region.node_count)]   # (weight, head, id), `incident` order
    face: list[list] = [[] for _ in range(region.node_count)]  # weight-0 ids: the optimal face's
    groups: dict[int, list] = {}  # head -> candidates (weight, id, tail)
    for node, ids in enumerate(region.incident):
        for index in ids:
            if room[index]:
                other = head[index]
                weight = cost[index] + potential[node] - potential[other]
                if weight < 0:
                    raise InvariantError(f"negative residual reduced cost on arc {index >> 1}")
                out[node].append((weight, other, index))
                if not weight:
                    face[node].append(index)
                if not room[index ^ 1]:
                    groups.setdefault(other, []).append((weight, index, node))
    for ids in face:
        ids.sort()  # as `dfs._search` lists them; the order picks which tie comes next
    cycle = _proper_cycle(_forest(face, head), head, region.origin)
    if cycle is not None:
        return push_unit(region, values, cycle)
    # The flow is the unique optimum; the answer is the least (weight + dist[tail], id).
    # Heads are searched cheapest candidate first, and each search stops past the radius
    # beyond which none of its candidates can reach that key (ties included, since a
    # smaller id still wins) or once all of its tails are settled.
    best_key = best_cycle = None
    for least, start in sorted((min(group)[0], start) for start, group in groups.items()):
        if best_key is not None and least > best_key[0]:
            break
        group = groups[start]
        radius = math.inf if best_key is None else best_key[0] - least
        waiting = {tail for *_, tail in group}
        dist, pred = [None] * region.node_count, [None] * region.node_count
        for node in _nearest(out, start, dist, pred):
            if dist[node] > radius:
                break
            waiting.discard(node)
            if not waiting:
                break
        for weight, index, tail in group:
            if tail not in waiting and (best_key is None or (weight + dist[tail], index) < best_key):
                best_key = (weight + dist[tail], index)
                best_cycle = [index, *reversed(_path(head, pred, start, tail))]
    return None if best_cycle is None else push_unit(region, values, best_cycle)


def _nearest(out, start, dist, pred):
    """`solver._dijkstra` over per-node lists of `(weight >= 0, head, id)`: over the same
    ids it yields the same nodes in the same order and fills `dist` and `pred` alike."""
    dist[start] = 0
    heap = [(0, 0, start)]
    pushed = 0  # the tie-break, as the solver's `tick`
    while heap:
        reached, _, node = heappop(heap)
        if reached > dist[node]:
            continue
        yield node
        for weight, other, index in out[node]:
            candidate = reached + weight
            known = dist[other]
            if known is None or candidate < known:
                dist[other] = candidate
                pred[other] = index
                pushed += 1
                heappush(heap, (candidate, pushed, other))


def iter_k_best_flows(net: Network, k: int) -> Iterator[Flow]:
    """Up to k distinct flows, cheapest first; stops early if fewer exist."""
    # `type(...) is int` turns away floats and bools, as `Arc` and `Flow` do.
    if type(k) is not int or k < 1:
        raise ValueError(f"k must be positive and an int, got {k!r}")
    frame, best = _solve(net)
    yield best
    if k == 1:
        return
    emitted = 1
    ticket = count()
    heap: list = []  # (challenger cost, ticket, region's lower, upper and best values, challenger)

    def offer(lower: list[int], upper: list[int], region_best) -> None:
        frame.lower, frame.upper = lower, upper
        challenger = _second_best(frame, region_best)
        if challenger is not None:
            heappush(heap, (flow_cost(net, challenger), next(ticket), lower, upper,
                            region_best, challenger))

    offer(frame.lower, frame.upper, best.values)
    while heap and emitted < k:
        _, _, lower, upper, parent, challenger = heappop(heap)
        yield challenger
        emitted += 1
        if emitted == k:
            return
        arc, *halves = _split(parent, challenger.values, lower, upper)
        for (lo, hi), region_best in zip(halves, (parent, challenger.values)):
            half_lower, half_upper = lower[:], upper[:]
            half_lower[arc], half_upper[arc] = lo, hi
            offer(half_lower, half_upper, region_best)
