"""Ranked flow enumeration: K distinct flows in nondecreasing cost order.

A second-best flow is either another optimum (another feasible flow of the optimal face) or
one unit pushed around the cheapest proper cycle: a residual id `r` whose reverse `r ^ 1` has
no room (its arc sits at a bound) plus the shortest way back from its head to its tail.  Each
offer reads the residual ids once, in id order, checking every reduced weight, into per-node
lists of the face's ids (weight 0), ascending as `dfs._search` builds its out-lists, for the
proper-cycle DFS and one list of candidate ids.  A free arc, with room both ways, weighs 0 both
ways, so the nodes free arcs join (a `core._root` union-find group) lie at distance 0 from each
other, and the candidates between groups are the `(weight, group)` links.  One distance-only
Dijkstra, `_search_back`, per head group, cheapest candidate first, runs until no waiting
candidate can beat the best cycle and pushes no label past that bound.  A group whose search
found only keys above the best loses its links: no cycle through it can win or tie, so later
searches neither wait on it nor pass through it.  Only the winner's path is traced, once, by
the solver's `_dijkstra` and read back by `core._path`.
Regions are split as in the all-optimal search.  A waiting region is one heap record: its
challenger's cost above the optimum, a ticket, `_split`'s `(arc, lo, hi)` narrowings of the
one `core.Frame`, its best flow and the cycle; its challenger is built only when popped.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from heapq import heappop, heappush
from itertools import count
from typing import Iterator

from .core import Flow, Frame, Network, _path, _root, check_feasible, frame_of, push_unit, residual_room
from .dfs import _forest, _proper_cycle
from .enumeration import _split
from .errors import InfeasibleFlowError, InvariantError
from .solver import _dijkstra, _potentials, _solve


def find_second_best_flow(net: Network, flow: Flow) -> Flow | None:
    """The cheapest flow other than the optimal `flow`, ties first; raises InfeasibleFlowError
    for an infeasible `flow` and NegativeCycleError for a feasible one that is not optimal."""
    if not check_feasible(net, flow):
        raise InfeasibleFlowError("cannot search from an infeasible flow")
    frame = frame_of(net)
    cycle = _second_best(frame, flow.values)
    return None if cycle is None else push_unit(frame, flow.values, cycle)


def _second_best(region: Frame, values) -> list[int] | None:
    """The residual ids of the cycle that `find_second_best_flow` pushes `values` one unit
    around within the region's bounds, or None if there is none; `values` must be optimal there."""
    head, cost, nodes = region.head, region.cost, region.node_count
    room = residual_room(region, values)
    potential = _potentials(region, room)
    # Pruned searches scan only part of the residual graph, so every weight is checked
    # here.  Each id whose reverse has no room starts a candidate cycle.
    face: list[list] = [[] for _ in range(nodes)]  # weight-0 ids, whose order picks the next tie
    candidates = []  # (weight, id, tail)
    for index, node in enumerate(region.tail):  # by id, as `dfs._search` lists the face
        if room[index]:
            weight = cost[index] + potential[node] - potential[head[index]]
            if weight < 0:
                raise InvariantError(f"negative residual reduced cost on arc {index >> 1}")
            if not weight:
                face[node].append(index)
            if not room[index ^ 1]:
                candidates.append((weight, index, node))
    cycle = _proper_cycle(_forest(face, head), region.tail, region.origin)
    if cycle is not None:
        return cycle
    # The flow is the unique optimum; the answer is the least (weight + dist[tail], id).
    # A free arc, with room both ways, weighs 0 both ways (both were checked above), so
    # distances are searched between the groups free arcs join.  An id between two groups
    # is not free, so it is a candidate: the candidates are the links.
    group = list(range(nodes))
    for index in range(0, len(room), 2):
        if room[index] and room[index + 1]:
            group[_root(group, head[index])] = _root(group, head[index + 1])
    group = [_root(group, node) for node in range(nodes)]
    links: list[list] = [[] for _ in range(nodes)]  # per group, (weight, group) leaving it
    for weight, index, tail in candidates:
        own, other = group[tail], group[head[index]]
        if own != other:
            links[own].append((weight, other))
    offers: dict[int, dict] = {}  # per head group, cheapest first: tail group -> (weight, id)
    for weight, index, tail in sorted(candidates):
        offers.setdefault(group[head[index]], {}).setdefault(group[tail], (weight, index))
    best = (math.inf, -1)
    for start, waiting in offers.items():
        if next(iter(waiting.values()))[0] > best[0]:
            break
        waiting = {tail: entry for tail, entry in waiting.items() if links[tail] or tail == start}
        if waiting:
            best, least = _search_back(links, start, waiting, best)
            if least > best[0]:  # every cycle through `start` then costs more than `best`, which only falls
                links[start] = ()
    if best[1] < 0:
        return None
    index, dist, pred = best[1], [None] * nodes, [None] * nodes
    start, tail = head[index], region.tail[index]  # one trace: tail's path is final once it settles
    next(node for node in _dijkstra(head, cost, room, potential, region.incident, start, dist, pred)
         if node == tail)
    return [index, *reversed(_path(region.tail, pred, start, tail))]


def _search_back(links, start, waiting, best):
    """The least of `best` and each `waiting` tail group's (weight + distance from `start`,
    id), by Dijkstra over per-group `(weight, group)` links, and the least such key found; a
    tail group leaves `waiting` once it settles.  It stops once none waits or none can reach
    the best key, ties included, and pushes no label that could only be popped past that
    stop (over a search `cheapest` only rises and `best` only falls), nor one into a group
    with no links, which expands nothing and which the caller keeps in no `waiting` but its
    own.  So each key it did not find exceeds the best it returns; if the least it found
    does too, no cycle through `start` can reach the best, and the caller empties its links."""
    cheapest = next(iter(waiting.values()))[0]
    dist, heap, least = {start: 0}, [(0, start)], math.inf
    while heap:
        reached, node = heappop(heap)
        if reached > dist[node]:
            continue
        if reached + cheapest > best[0]:
            break
        if node in waiting:
            weight, index = waiting.pop(node)
            least = min(least, weight + reached)
            best = min(best, (weight + reached, index))
            if not waiting:
                break
            cheapest = next(iter(waiting.values()))[0]
        slack = best[0] - cheapest - reached
        for weight, other in links[node]:
            if weight <= slack and links[other]:
                label = reached + weight
                if other not in dist or label < dist[other]:
                    dist[other] = label
                    heappush(heap, (label, other))
    return best, least


def iter_k_best_flows(net: Network, k: int) -> Iterator[Flow]:
    """Up to k distinct flows, cheapest first; stops early if fewer exist."""
    # `type(...) is int` turns away floats and bools, as `Arc` and `Flow` do.
    if type(k) is not int or k < 1:
        raise ValueError(f"k must be positive and an int, got {k!r}")
    frame, best = _solve(net)
    yield best
    ticket, lower, upper, cost = count(), frame.lower, frame.upper, frame.cost
    heap: list = []  # (challenger cost above the optimum, ticket, narrowings, region best, cycle)

    @contextmanager
    def region(narrowed: tuple):  # the frame's bounds narrowed in place, then put back
        for arc, lo, hi in narrowed:
            lower[arc], upper[arc] = lo, hi
        yield
        for arc, _, _ in narrowed:
            lower[arc], upper[arc] = net.arcs[arc].lower, net.arcs[arc].upper

    halves = [((), best.values, 0)]  # (narrowings, region best, its cost above the optimum)
    for _ in range(k - 1):  # the last flow's halves are never offered
        for narrowed, region_best, above in halves:
            with region(narrowed):
                cycle = _second_best(frame, region_best)
            if cycle is not None:
                heappush(heap, (above + sum(cost[index] for index in cycle), next(ticket), narrowed,
                                region_best, cycle))
        if not heap:
            return
        above, _, narrowed, region_best, cycle = heappop(heap)
        with region(narrowed):  # `push_unit` checks the challenger against the region's bounds
            challenger = push_unit(frame, region_best, cycle)
            arc, keep, move = _split(region_best, cycle, lower, upper)
        halves = [(narrowed + ((arc, *keep),), region_best, above - sum(cost[index] for index in cycle)),
                  (narrowed + ((arc, *move),), challenger.values, above)]
        yield challenger
