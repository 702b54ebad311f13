"""Minimum-cost flow solving, optimal node potentials, reduced costs.

The solver is successive shortest paths: lower bounds are substituted away,
arcs with negative cost are saturated up front (which leaves every residual
cost nonnegative), and each augmentation runs Dijkstra with potentials over
the network's `core.Frame`, and `core._path` reads each augmenting path
back from its pred ids.

The Dijkstra is a generator that yields nodes as they settle, reading room
and potentials afresh, as both move on every augmentation.  K-best traces
each offer's winning cycle with it and searches distances with its own
`_search_back`.  The solver stops at the nearest deficit: once a node with
negative imbalance settles, at distance reach, it reads on through the
other nodes at reach and leaves at the first node past it, or as soon as
the lowest-index deficit left settles.  The target is the lowest-index
deficit among the settled nodes, the same node a full search would choose,
so the choice never depends on the order in which the heap pops ties.  Only
the settled nodes' potentials move, by dist - reach, which is 0 on the nodes
at reach left unread; a full search would add reach to that on every node,
which leaves every reduced cost, and so every path and flow, the same.
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import count

from .core import Flow, Frame, Network, _path, check_feasible, frame_of, validate_network
from .errors import InfeasibleError, InvariantError, NegativeCycleError


def solve_min_cost_flow(net: Network) -> Flow:
    """One optimal integer flow, or InfeasibleError when no b-flow exists."""
    return _solve(net)[1]


def _solve(net: Network) -> tuple[Frame, Flow]:
    """`solve_min_cost_flow(net)` and the frame it ran on, whose bounds it leaves as `net`'s."""
    validate_network(net)
    n = net.node_count

    # Work on the zero-lower-bound substitution, where room[2a + 1] is the
    # flow above arc a's lower bound; restore lowers at the end.
    room = [spare for arc in net.arcs
            for spare in ((0, arc.span) if arc.cost < 0 else (arc.span, 0))]
    imbalance = list(net.balances)
    for index, arc in enumerate(net.arcs):
        imbalance[arc.src] -= arc.lower + room[2 * index + 1]
        imbalance[arc.dst] += arc.lower + room[2 * index + 1]

    frame = frame_of(net)
    head, cost, incident = frame.head, frame.cost, frame.incident
    potential = [0] * n
    # Sources only lose supply and targets stay at or below zero, so neither
    # the lowest node with supply left nor the lowest with demand left moves back.
    source = lowest = 0
    while True:
        while source < n and imbalance[source] <= 0:
            source += 1
        if source == n:
            break
        while imbalance[lowest] >= 0:
            lowest += 1
        dist, pred = [None] * n, [None] * n  # pred[v]: the residual id that reached v
        settled: list[int] = []
        reach = None
        for node in _dijkstra(head, cost, room, potential, incident, source, dist, pred):
            if reach is not None and dist[node] > reach:
                break
            settled.append(node)
            if reach is None and imbalance[node] < 0:
                reach = dist[node]
            if node == lowest:
                break
        if reach is None:
            raise InfeasibleError("supply cannot reach demand in the residual graph")
        target = min(node for node in settled if imbalance[node] < 0)
        for node in settled:
            potential[node] += dist[node] - reach
        path = _path(frame.tail, pred, source, target)
        amount = min(imbalance[source], -imbalance[target], *(room[index] for index in path))
        for index in path:
            room[index] -= amount
            room[index ^ 1] += amount
        imbalance[source] -= amount
        imbalance[target] += amount

    result = Flow(tuple(arc.lower + room[2 * index + 1] for index, arc in enumerate(net.arcs)))
    if not check_feasible(net, result):
        raise InvariantError("successive shortest paths ended on an infeasible flow")
    return frame, result


def _dijkstra(head, cost, room, potential, incident, source, dist, pred):
    """Yield the nodes reachable from source over residual reduced costs, nearest first.

    Residual id `r` has `room[r]` units left and runs from `head[r ^ 1]` to
    `head[r]` at `cost[r]`; one with room whose reduced cost is negative
    raises InvariantError.  `dist` and `pred` must read None everywhere;
    they are filled in place with distances and the residual id that
    reached each node.  A node's entries are final when it is yielded,
    because a relaxation replaces only a strictly longer distance and every
    node popped later is at least as far.  Entries of nodes not yet yielded
    are tentative.  The caller stops the search by no longer reading it, and
    a node's own arcs are scanned only when the caller reads past it.
    """
    dist[source] = 0
    tick = count()
    heap = [(0, next(tick), source)]
    while heap:
        reached, _, node = heapq.heappop(heap)
        if reached > dist[node]:
            continue
        yield node
        for index in incident[node]:
            if room[index] > 0:
                other = head[index]
                weight = cost[index] + potential[node] - potential[other]
                if weight < 0:
                    raise InvariantError(f"negative reduced cost on residual arc {index}")
                candidate = reached + weight
                if dist[other] is None or candidate < dist[other]:
                    dist[other] = candidate
                    pred[other] = index
                    heapq.heappush(heap, (candidate, next(tick), other))


def _potentials(frame: Frame, room) -> tuple[int, ...]:
    """Shortest-path distances from node 0 over `room`, the `residual_room` of a flow feasible in
    the frame; a node 0 cannot reach sits at `big`, as if an arc too dear to shadow any real path
    led there.  Bellman-Ford from node 0 at 0 and every other node at `big` queues a node again
    when its distance drops; a distance set through n arcs walked a cycle, so a negative one.
    Node 0's reach is scanned first, then that of each lowest node never scanned (it still holds
    `big`): distances over the `big` arcs are unique and labels follow walks, so any order that
    scans each node after its last drop gives the same tuple, and the same NegativeCycleError."""
    n, head, cost, incident = frame.node_count, frame.head, frame.cost, frame.incident
    big = 1 + sum(abs(weight) * max(1, hi) for weight, hi in zip(cost[::2], frame.upper))
    dist, arcs = [0] + [big] * (n - 1), [0] * n  # arcs: how many the path to each distance took
    queue, queued = deque(), [False] * n
    for start in range(n):
        if start and dist[start] < big:
            continue  # dropped, so scanned after its last drop
        queue.append(start)
        while queue:
            node = queue.popleft()
            queued[node] = False
            reach, step = dist[node], arcs[node] + 1
            for index in incident[node]:
                other = head[index]
                if room[index] and reach + cost[index] < dist[other]:
                    if step >= n:
                        raise NegativeCycleError(
                            "residual graph has a negative cycle; the flow is not optimal")
                    dist[other], arcs[other] = reach + cost[index], step
                    if not queued[other]:
                        queued[other] = True
                        queue.append(other)
    return tuple(dist)


def compute_reduced_costs(net: Network, potential) -> tuple[int, ...]:
    """Per original arc: cost + potential(src) - potential(dst)."""
    return tuple(arc.cost + potential[arc.src] - potential[arc.dst] for arc in net.arcs)

