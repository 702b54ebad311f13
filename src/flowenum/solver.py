"""Minimum-cost flow solving, optimal node potentials, reduced costs.

The solver is successive shortest paths: lower bounds are substituted away,
arcs with negative cost are saturated up front (which leaves every residual
cost nonnegative), and each augmentation runs Dijkstra with potentials.

The Dijkstra is a generator that yields nodes as they settle, and each
caller decides when to stop reading it.  The solver stops at the nearest
deficit: once a node with negative imbalance settles, at distance reach, it
reads on through the other nodes at reach and leaves at the first node past
it.  The target is the lowest-index deficit among the settled nodes, the
same node a full search would choose, so the choice never depends on the
order in which the heap pops ties.  Only the settled nodes' potentials
move, by dist - reach; a full search would add reach to that on every node,
which leaves every reduced cost, and so every path and flow, the same.
"""

from __future__ import annotations

import heapq
from itertools import count

from .core import Flow, Network, check_feasible, validate_network
from .errors import InfeasibleError, InfeasibleFlowError, InvariantError, NegativeCycleError


def solve_min_cost_flow(net: Network) -> Flow:
    """One optimal integer flow, or InfeasibleError when no b-flow exists."""
    validate_network(net)
    n = net.node_count
    arcs = net.arcs
    m = len(arcs)

    # Work on the zero-lower-bound substitution; restore lowers at the end.
    span = [arc.span for arc in arcs]
    extra = [0] * m
    imbalance = list(net.balances)
    for arc in arcs:
        imbalance[arc.src] -= arc.lower
        imbalance[arc.dst] += arc.lower
    for index, arc in enumerate(arcs):
        if arc.cost < 0:
            extra[index] = span[index]
            imbalance[arc.src] -= span[index]
            imbalance[arc.dst] += span[index]

    out_arcs, in_arcs = _incidence(net)
    potential = [0] * n
    # Sources only lose supply and targets stay at or below zero, so the
    # lowest node with supply left never moves back.
    source = 0
    while True:
        while source < n and imbalance[source] <= 0:
            source += 1
        if source == n:
            break
        dist: list[int | None] = [None] * n
        pred: list[tuple[int, bool] | None] = [None] * n
        settled: list[int] = []
        reach = None
        for node in _dijkstra(net, span, extra, potential, out_arcs, in_arcs, source, dist, pred):
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
        amount = min(imbalance[source], -imbalance[target])
        node = target
        while node != source:
            index, forward = pred[node]
            headroom = span[index] - extra[index] if forward else extra[index]
            amount = min(amount, headroom)
            node = arcs[index].src if forward else arcs[index].dst
        node = target
        while node != source:
            index, forward = pred[node]
            extra[index] += amount if forward else -amount
            node = arcs[index].src if forward else arcs[index].dst
        imbalance[source] -= amount
        imbalance[target] += amount

    result = Flow(tuple(arc.lower + extra[index] for index, arc in enumerate(arcs)))
    if not check_feasible(net, result):
        raise InvariantError("successive shortest paths ended on an infeasible flow")
    return result


def _incidence(net: Network) -> tuple[list[list[int]], list[list[int]]]:
    """Per node, the ids of the arcs leaving it and of the arcs entering it."""
    out_arcs: list[list[int]] = [[] for _ in range(net.node_count)]
    in_arcs: list[list[int]] = [[] for _ in range(net.node_count)]
    for index, arc in enumerate(net.arcs):
        out_arcs[arc.src].append(index)
        in_arcs[arc.dst].append(index)
    return out_arcs, in_arcs


def _dijkstra(net, span, extra, potential, out_arcs, in_arcs, source, dist, pred):
    """Yield the nodes reachable from source over residual reduced costs, nearest first.

    `extra` is the flow above each arc's lower bound; a residual arc whose
    reduced cost is negative raises InvariantError.  `dist` and `pred` must
    read None everywhere; they are filled in place with distances and
    (arc, forward) preds.  A node's entries are final when it is yielded,
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
        for index in out_arcs[node]:
            if extra[index] < span[index]:
                arc = net.arcs[index]
                weight = arc.cost + potential[node] - potential[arc.dst]
                if weight < 0:
                    raise InvariantError(f"negative reduced cost on arc {index}")
                candidate = reached + weight
                if dist[arc.dst] is None or candidate < dist[arc.dst]:
                    dist[arc.dst] = candidate
                    pred[arc.dst] = (index, True)
                    heapq.heappush(heap, (candidate, next(tick), arc.dst))
        for index in in_arcs[node]:
            if extra[index] > 0:
                arc = net.arcs[index]
                weight = -arc.cost + potential[node] - potential[arc.src]
                if weight < 0:
                    raise InvariantError(f"negative reduced cost on the reverse of arc {index}")
                candidate = reached + weight
                if dist[arc.src] is None or candidate < dist[arc.src]:
                    dist[arc.src] = candidate
                    pred[arc.src] = (index, False)
                    heapq.heappush(heap, (candidate, next(tick), arc.src))


def compute_node_potentials(net: Network, flow: Flow) -> tuple[int, ...]:
    """Shortest-path distances from node 0 across the residual graph.

    Nodes that node 0 cannot reach are seeded as if an artificial arc of cost
    1 + sum(|cost| * max(1, upper)) led there, which is too expensive to
    shadow any real path.  Raises NegativeCycleError when the residual graph
    has a negative cycle, i.e. the flow was not optimal.
    """
    if not check_feasible(net, flow):
        raise InfeasibleFlowError("potentials are defined for feasible flows only")
    n = net.node_count
    big = 1 + sum(abs(arc.cost) * max(1, arc.upper) for arc in net.arcs)
    dist = [big] * n
    dist[0] = 0
    edges = []
    for arc, value in zip(net.arcs, flow.values):
        if value < arc.upper:
            edges.append((arc.src, arc.dst, arc.cost))
        if value > arc.lower:
            edges.append((arc.dst, arc.src, -arc.cost))
    for _ in range(max(0, n - 1)):
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

