"""Ranked flow enumeration: K distinct flows in nondecreasing cost order.

A second-best flow is either another optimum (another feasible flow of the
optimal face) or one unit pushed around the cheapest proper cycle: a residual
id `r` whose reverse `r ^ 1` has no room (its arc sits at a bound) plus the
shortest way back from its head to its tail.  Each offer reads the residual
ids once, checking every reduced weight, into per-node lists of the face's
ids (weight 0) for the proper-cycle DFS and of `(weight, head)` for the
distance searches.  A free arc, with room both ways, weighs 0 both ways, so
the nodes free arcs join (a `core._root` union-find group) lie at distance 0
from each other.  Distance-only searches run between groups, head groups
cheapest candidate first, each until no waiting candidate can beat the best
cycle; only the winner's path is traced, once, by the solver's `_dijkstra`
and read back by `core._path`.
Regions are split as in the all-optimal search and ranked on a heap keyed by
challenger cost.  They share the instance's one `core.Frame`, each heap entry
holding its own `lower` and `upper` lists to swap in.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from itertools import count
from operator import mul
from typing import Iterator

from .core import Flow, Frame, Network, _path, _root, check_feasible, frame_of, push_unit, residual_room
from .dfs import _forest, _proper_cycle
from .enumeration import _split
from .errors import InfeasibleFlowError, InvariantError
from .solver import _dijkstra, _potentials, _solve


def find_second_best_flow(net: Network, flow: Flow) -> Flow | None:
    """The cheapest flow other than the optimal `flow`, ties first; raises InfeasibleFlowError."""
    if not check_feasible(net, flow):
        raise InfeasibleFlowError("cannot search from an infeasible flow")
    return _second_best(frame_of(net), flow.values)[0]


def _second_best(region: Frame, values) -> tuple[Flow | None, list[int] | None]:
    """`find_second_best_flow` within the region's bounds, and the cycle it pushed `values`
    around (None twice when there is none); `values` must be optimal there."""
    head, cost, nodes = region.head, region.cost, region.node_count
    room = residual_room(region, values)
    potential = _potentials(region, room)
    # Pruned searches scan only part of the residual graph, so every weight is checked
    # here.  Each id whose reverse has no room starts a candidate cycle.
    out: list[list] = [[] for _ in range(nodes)]   # (weight, head)
    face: list[list] = [[] for _ in range(nodes)]  # weight-0 ids: the optimal face's
    candidates = []  # (weight, id, tail)
    for node, ids in enumerate(region.incident):
        for index in ids:
            if room[index]:
                other = head[index]
                weight = cost[index] + potential[node] - potential[other]
                if weight < 0:
                    raise InvariantError(f"negative residual reduced cost on arc {index >> 1}")
                out[node].append((weight, other))
                if not weight:
                    face[node].append(index)
                if not room[index ^ 1]:
                    candidates.append((weight, index, node))
    for ids in face:
        ids.sort()  # as `dfs._search` lists them; the order picks which tie comes next
    cycle = _proper_cycle(_forest(face, head), region.tail, region.origin)
    if cycle is not None:
        return push_unit(region, values, cycle), cycle
    # The flow is the unique optimum; the answer is the least (weight + dist[tail], id).
    # A free arc, with room both ways, weighs 0 both ways (both were checked above), so
    # distances are searched between the groups free arcs join, over the ids between groups.
    group = list(range(nodes))
    for index in range(0, len(room), 2):
        if room[index] and room[index + 1]:
            group[_root(group, head[index])] = _root(group, head[index + 1])
    group = [_root(group, node) for node in range(nodes)]
    links: list[list] = [[] for _ in range(nodes)]  # per group, (weight, group) leaving it
    for node, edges in enumerate(out):
        own = group[node]
        links[own] += [(weight, group[other]) for weight, other in edges if group[other] != own]
    # Head groups, searched cheapest candidate first, wait on each tail group's cheapest
    # (weight, id); a search stops once none waits or none can reach the best key, ties included.
    offers: dict[int, dict] = {}
    for weight, index, tail in sorted(candidates):
        offers.setdefault(group[head[index]], {}).setdefault(group[tail], (weight, index))
    best = (math.inf, -1)
    for start, waiting in offers.items():
        cheapest = next(iter(waiting.values()))[0]
        if cheapest > best[0]:
            break
        for reached, found in _distances(links, start):
            if reached + cheapest > best[0]:
                break
            if found in waiting:
                weight, index = waiting.pop(found)
                best = min(best, (weight + reached, index))
                if not waiting:
                    break
                cheapest = next(iter(waiting.values()))[0]
    if best[1] < 0:
        return None, None
    index, dist, pred = best[1], [None] * nodes, [None] * nodes
    start, tail = head[index], region.tail[index]  # one trace: tail's path is final once it settles
    next(node for node in _dijkstra(head, cost, room, potential, region.incident, start, dist, pred)
         if node == tail)
    cycle = [index, *reversed(_path(region.tail, pred, start, tail))]
    return push_unit(region, values, cycle), cycle


def _distances(links, start):
    """Dijkstra over per-node `(weight >= 0, head)` lists: yields `(dist, node)`, keeps no pred."""
    dist = [None] * len(links)
    dist[start] = 0
    heap = [(0, start)]
    while heap:
        reached, node = heappop(heap)
        if reached > dist[node]:
            continue
        yield reached, node
        for weight, other in links[node]:
            candidate = reached + weight
            known = dist[other]
            if known is None or candidate < known:
                dist[other] = candidate
                heappush(heap, (candidate, other))


def iter_k_best_flows(net: Network, k: int) -> Iterator[Flow]:
    """Up to k distinct flows, cheapest first; stops early if fewer exist."""
    # `type(...) is int` turns away floats and bools, as `Arc` and `Flow` do.
    if type(k) is not int or k < 1:
        raise ValueError(f"k must be positive and an int, got {k!r}")
    frame, best = _solve(net)
    costs = frame.cost[::2]  # per arc, as the CLI sums them
    yield best
    if k == 1:
        return
    emitted = 1
    ticket = count()
    heap: list = []  # (challenger cost, ticket, region's lower, upper, best, challenger, cycle)

    def offer(lower: list[int], upper: list[int], region_best) -> None:
        frame.lower, frame.upper = lower, upper
        challenger, cycle = _second_best(frame, region_best)
        if challenger is not None:
            heappush(heap, (sum(map(mul, costs, challenger.values)), next(ticket), lower, upper,
                            region_best, challenger, cycle))

    offer(frame.lower, frame.upper, best.values)
    while heap and emitted < k:
        _, _, lower, upper, parent, challenger, cycle = heappop(heap)
        yield challenger
        emitted += 1
        if emitted == k:
            return
        arc, *halves = _split(parent, cycle, lower, upper)
        for (lo, hi), region_best in zip(halves, (parent, challenger.values)):
            half_lower, half_upper = lower[:], upper[:]
            half_lower[arc], half_upper[arc] = lo, hi
            offer(half_lower, half_upper, region_best)
