"""Minimum-cost flow solving, optimal node potentials, reduced costs.

The solver is successive shortest paths: lower bounds are substituted away,
arcs with negative cost are saturated up front (which leaves every residual
cost nonnegative), and each augmentation runs Dijkstra with potentials over
the network's `core.Frame`.  `compute_node_potentials` checks feasibility
and runs `_potentials`, the Bellman-Ford that the searches call on their room.

The Dijkstra is a generator that yields nodes as they settle, reading room
and potentials afresh, as both move on every augmentation (K-best searches
its own per-offer lists).  The solver stops at the nearest deficit: once a
node with negative imbalance settles, at distance reach, it reads on
through the other nodes at reach and leaves at the first node past it.  The
target is the lowest-index deficit among the settled nodes, the same node a
full search would choose, so the choice never depends on the order in which
the heap pops ties.  Only the settled nodes' potentials move, by dist -
reach; a full search would add reach to that on every node, which leaves
every reduced cost, and so every path and flow, the same.
"""

from __future__ import annotations

import heapq
from itertools import count

from .core import Flow, Frame, Network, check_feasible, frame_of, residual_room, validate_network
from .errors import InfeasibleError, InfeasibleFlowError, InvariantError, NegativeCycleError


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
    # Sources only lose supply and targets stay at or below zero, so the
    # lowest node with supply left never moves back.
    source = 0
    while True:
        while source < n and imbalance[source] <= 0:
            source += 1
        if source == n:
            break
        dist, pred = [None] * n, [None] * n  # pred[v]: the residual id that reached v
        settled: list[int] = []
        reach = None
        for node in _dijkstra(head, cost, room, potential, incident, source, dist, pred):
            if reach is not None and dist[node] > reach:
                break
            settled.append(node)
            if reach is None and imbalance[node] < 0:
                reach = dist[node]
        if reach is None:
            raise InfeasibleError("supply cannot reach demand in the residual graph")
        target = min(node for node in settled if imbalance[node] < 0)
        for node in settled:
            potential[node] += dist[node] - reach
        path = _path(head, pred, source, target)
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


def _path(head, pred, start, node):
    """Residual ids of the Dijkstra pred path from start to node, last id first."""
    path = []
    while node != start:
        path.append(pred[node])
        node = head[pred[node] ^ 1]
    return path


def compute_node_potentials(net: Network, flow: Flow) -> tuple[int, ...]:
    """Shortest-path distances from node 0 across the residual graph.

    Nodes that node 0 cannot reach are seeded as if an artificial arc of cost
    1 + sum(|cost| * max(1, upper)) led there, which is too expensive to
    shadow any real path.  Raises InfeasibleFlowError on an infeasible flow,
    and NegativeCycleError when the residual graph has a negative cycle,
    i.e. the flow was not optimal.
    """
    if not check_feasible(net, flow):
        raise InfeasibleFlowError("cannot build the residual graph of an infeasible flow")
    frame = frame_of(net)
    return _potentials(frame, residual_room(frame, flow.values))


def _potentials(frame: Frame, room) -> tuple[int, ...]:
    """`compute_node_potentials` over `room`, the `residual_room` of a flow feasible in the frame."""
    head, cost = frame.head, frame.cost
    edges = [(head[index ^ 1], head[index], cost[index]) for index, spare in enumerate(room) if spare]
    big = 1 + sum(abs(weight) * max(1, hi) for weight, hi in zip(cost[::2], frame.upper))
    dist = [big] * frame.node_count
    dist[0] = 0
    for _ in range(max(0, frame.node_count - 1)):
        changed = False
        for src, dst, weight in edges:
            candidate = dist[src] + weight
            if candidate < dist[dst]:
                dist[dst] = candidate
                changed = True
        if not changed:
            break
    else:
        for src, dst, weight in edges:
            if dist[src] + weight < dist[dst]:
                raise NegativeCycleError(
                    "residual graph has a negative cycle; the flow is not optimal"
                )
    return tuple(dist)


def compute_reduced_costs(net: Network, potential) -> tuple[int, ...]:
    """Per original arc: cost + potential(src) - potential(dst)."""
    return tuple(arc.cost + potential[arc.src] - potential[arc.dst] for arc in net.arcs)

