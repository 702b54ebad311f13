"""Ranked flow enumeration: K distinct flows in nondecreasing cost order.

A second-best flow is either another optimum (another feasible flow of the optimal face) or
one unit pushed around the cheapest proper cycle: a residual id `r` whose reverse `r ^ 1` has
no room (its arc sits at a bound) plus the shortest way back from its head to its tail.  Each
offer reads each arc once, in arc order: from its two ids' room and one reduced weight it checks
both weights, appends the face's ids (weight 0) to per-node lists, ascending as `dfs._search`
builds its out-lists, for the proper-cycle DFS, lists the candidate ids and joins the ends of
free arcs.  A free arc, with room both ways, weighs 0 both ways, so the nodes free arcs join (a
`core._root` union-find group) lie at distance 0 from each other, and the candidates between
groups are the `(weight, group)` links.  The face holds a proper cycle exactly when free arcs
close one, a weight-0 candidate lies inside a group or the weight-0 links close one between
groups; the DFS runs only once the pass or `_groups` proves one.  Else one distance-only
Dijkstra, `_search_back`, per head group, cheapest candidate first, runs until no waiting
candidate can beat the best cycle and pushes no label past that bound.  A group whose search
found only keys above the best, or whose first live tail outweighs the best, loses its links: no
cycle through it can win or tie, so later searches neither wait on it (`_live` drops it) nor pass
through it.  The winner's path alone is traced, once, by the solver's `_dijkstra` for `core._path`.
Regions are split as in the all-optimal search.  A waiting region is one heap record: its
challenger's cost above the optimum, a ticket, `_split`'s `(arc, lo, hi)` narrowings of the
one `core.Frame`, its best flow and the cycle; its challenger is built only when popped, and
its Bellman–Ford sentinel is the instance's less each arc's share at its last narrowing.
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


def _second_best(region: Frame, values, big=None) -> list[int] | None:
    """The residual ids of the cycle that `find_second_best_flow` pushes `values` one unit
    around within the region's bounds, or None if there is none; `values` must be optimal there."""
    head, tail, cost, nodes = region.head, region.tail, region.cost, region.node_count
    room = residual_room(region, values)
    potential = _potentials(region, room, big)
    # Pruned searches scan only part of the residual graph, so every weight is checked
    # here.  Each id whose reverse has no room starts a candidate cycle.
    face: list[list] = [[] for _ in range(nodes)]  # weight-0 ids, whose order picks the next tie
    candidates = []  # (weight, id, tail)
    group, free_cycle = list(range(nodes)), False  # union-find over the free arcs' ends
    for index, node, other, ahead, back in zip(count(0, 2), tail[::2], head[::2], room[::2], room[1::2]):
        weight = cost[index] + potential[node] - potential[other]  # the backward id's is -weight
        if not weight:  # by id, as `dfs._search` lists the face
            if ahead:
                face[node].append(index)
            if back:
                face[other].append(index + 1)
        elif ahead if weight < 0 else back:
            raise InvariantError(f"negative residual reduced cost on arc {index >> 1}")
        if ahead and back:
            if not free_cycle:  # once free arcs close a cycle, the tie DFS needs no groups
                own, joined = _root(group, other), _root(group, node)
                free_cycle, group[own] = own == joined, joined
        elif ahead:
            candidates.append((weight, index, node))
        elif back:
            candidates.append((-weight, index + 1, other))
    grouped = None if free_cycle else _groups(head, group, candidates, nodes)
    if grouped is None:
        cycle = _proper_cycle(_forest(face, head), tail, region.origin)
        if cycle is None:
            raise InvariantError("the tie search found no cycle in a face proven to hold one")
        return cycle
    # The flow is the unique optimum; the answer is the least (weight + dist[tail], id).
    links, offers = grouped
    best = (math.inf, -1)
    for start, waiting in offers.items():  # per head group, cheapest first: tail group -> (weight, id)
        if next(iter(waiting.values()))[0] > best[0]:
            break
        if _live(waiting, links, start):
            least = next(iter(waiting.values()))[0]  # no key from `start` is below it
            if least <= best[0]:
                best, least = _search_back(links, start, waiting, best)
            if least > best[0]:  # every cycle through `start` then costs more than `best`, which only falls
                links[start] = ()
    if best[1] < 0:
        return None
    index, dist, pred = best[1], [None] * nodes, [None] * nodes
    start, end = head[index], tail[index]  # one trace: end's path is final once it settles
    next(node for node in _dijkstra(head, cost, room, potential, region.incident, start, dist, pred)
         if node == end)
    return [index, *reversed(_path(tail, pred, start, end))]


def _groups(head, group, candidates, nodes):
    """Sorts `candidates`; per group of the free-arc union-find `group`, its `(weight, group)`
    links, the candidates leaving it, cheapest first, and per head group, in order of its cheapest
    candidate, each tail group's cheapest `(weight, id)`; or None once a weight-0 candidate lies
    inside a group or Kahn's peel leaves a cycle of weight-0 links between groups."""
    group = [_root(group, node) for node in range(nodes)]
    candidates.sort()
    links: list[list] = [[] for _ in range(nodes)]
    entering = [0] * nodes  # per group, the weight-0 links into it not yet peeled
    offers: dict[int, dict] = {}
    for weight, index, tail in candidates:
        own, other = group[tail], group[head[index]]
        if own != other:
            links[own].append((weight, other))
            entering[other] += not weight
        elif not weight:
            return None
        offers.setdefault(other, {}).setdefault(own, (weight, index))
    peeled = [node for node in range(nodes) if not entering[node]]
    for node in peeled:
        for weight, other in links[node]:
            if weight:  # links come cheapest first, so no weight-0 link follows
                break
            entering[other] -= 1
            if not entering[other]:
                peeled.append(other)
    return (links, offers) if len(peeled) == nodes else None


def _live(waiting, links, start):
    """`waiting` less its leading tail groups other than `start` with no links, which no search
    enters: its first entry is then the cheapest one a search from `start` can settle."""
    while waiting and not (links[first := next(iter(waiting))] or first == start):
        del waiting[first]
    return waiting


def _search_back(links, start, waiting, best):
    """The least of `best` and each `waiting` tail group's (weight + distance from `start`,
    id), by Dijkstra over per-group `(weight, group)` links, cheapest first, and the least such
    key found; a tail group leaves `waiting` once it settles, as do those `_live` drops.  It
    stops once none waits or none can reach the best key, ties included, and pushes no label
    that could only be popped past that stop (over a search `cheapest` only rises and `best`
    only falls), nor one into a group with no links, which expands nothing.  So each key it did
    not find exceeds the best it returns; if the least it found does too, no cycle through
    `start` can reach the best, and the caller empties its links."""
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
            if not _live(waiting, links, start):
                break
            cheapest = next(iter(waiting.values()))[0]
        slack = best[0] - cheapest - reached
        for weight, other in links[node]:
            if weight > slack:
                break
            if links[other]:
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
    big = 1 + sum(abs(weight) * max(1, hi) for weight, hi in zip(cost[::2], upper))

    @contextmanager
    def region(narrowed: tuple):  # the frame's bounds narrowed in place, then put back
        for arc, lo, hi in narrowed:
            lower[arc], upper[arc] = lo, hi
        # `_potentials`' sentinel, less what each arc's last narrowing took off its sum
        yield big - sum(abs(cost[2 * arc]) * (max(1, net.arcs[arc].upper) - max(1, upper[arc]))
                        for arc in {arc for arc, _, _ in narrowed})
        for arc, _, _ in narrowed:
            lower[arc], upper[arc] = net.arcs[arc].lower, net.arcs[arc].upper

    halves = [((), best.values, 0)]  # (narrowings, region best, its cost above the optimum)
    for _ in range(k - 1):  # the last flow's halves are never offered
        for narrowed, region_best, above in halves:
            with region(narrowed) as sentinel:
                cycle = _second_best(frame, region_best, sentinel)
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
