"""Shared generators and independent brute-force checkers for the tests."""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import replace
from types import SimpleNamespace
from itertools import count

from flowenum.core import Arc, Cycle, Flow, Network, ResidualArc, ResidualGraph, _path, flow_cost, frame_of
from flowenum import dfs
from flowenum.dfs import (
    BACKWARD_LONG,
    BACKWARD_SHORT,
    CROSS,
    FORWARD,
    TREE,
    find_another_feasible_flow,
)
from flowenum.enumeration import optimal_face
from flowenum.errors import IdenticalFlowsError, InvariantError, NegativeCycleError
from flowenum.kbest import find_second_best_flow
from flowenum.solver import compute_node_potentials, compute_reduced_costs, solve_min_cost_flow
from flowenum.treebounds import _PIVOT_CAP


def make_network(node_count, specs, balances) -> Network:
    return Network(node_count, tuple(Arc(*spec) for spec in specs), tuple(balances))


def face_network(net: Network, flow: Flow) -> Network:
    """The optimal face of `net` around the optimum `flow`, as a network."""
    reduced_costs = compute_reduced_costs(net, compute_node_potentials(net, flow))
    face = optimal_face(frame_of(net), flow.values, reduced_costs)
    bounds = zip(net.arcs, face.lower, face.upper)
    return replace(net, arcs=tuple(replace(arc, lower=lo, upper=hi) for arc, lo, hi in bounds))


def reference_optimal_flows(net: Network):
    """The optimal flows in the order of the search that kept one network per region.

    A stack of (region, witness) pairs: each region is searched with the
    public `find_another_feasible_flow`, and a found flow splits it with
    `partition_solution_space`; the half that keeps the witness goes on top.
    """
    first = solve_min_cost_flow(net)
    yield first
    pending = [(face_network(net, first), first)]
    while pending:
        region, witness = pending.pop()
        other = find_another_feasible_flow(region, witness)
        if other is None:
            continue
        yield other
        keep_here, move_there = partition_solution_space(region, witness, other)
        pending.append((move_there, other))
        pending.append((keep_here, witness))


def reference_k_best_flows(net: Network, k: int):
    """Up to k flows in the order of the K-best search that kept one network per heap region.

    Each region is searched with the public `find_second_best_flow` and
    ranked by (challenger cost, ticket); a popped region is split with
    `partition_solution_space`, and the half that keeps its best flow is
    offered first.
    """
    best = solve_min_cost_flow(net)
    yield best
    ticket = count()
    heap = []  # (challenger cost, ticket, region, region's best, challenger)

    def offer(region, region_best):
        challenger = find_second_best_flow(region, region_best)
        if challenger is not None:
            heapq.heappush(heap, (flow_cost(net, challenger), next(ticket), region, region_best,
                                  challenger))

    if k > 1:
        offer(net, best)
    for emitted in range(2, k + 1):
        if not heap:
            return
        _, _, region, parent, challenger = heapq.heappop(heap)
        yield challenger
        if emitted < k:
            stay, move = partition_solution_space(region, parent, challenger)
            offer(stay, parent)
            offer(move, challenger)


def linked_cycles(rng, k, span, unit_costs=None):
    """k directed 3-cycles of arcs spanning [0, span], chained by pinned [1, 1] arcs.

    The closed forms are in tests/test_closed_form.py; node labels and arc
    order are shuffled by rng.

    Cycle i's arcs cost 1, 2 and -3 + unit_costs[i] (0 when unit_costs is
    None), in a random rotation.  Returns the network, per cycle the ids of
    its three arcs and what one unit around it costs, and the pinned arcs'
    total cost.
    """
    labels = list(range(3 * k))
    rng.shuffle(labels)
    specs = []  # (src, dst, lower, upper, cost, cycle or None)
    hubs = []
    for cycle in range(k):
        nodes = labels[3 * cycle:3 * cycle + 3]
        extra = 0 if unit_costs is None else unit_costs[cycle]
        costs = [1, 2, -3 + extra]
        rng.shuffle(costs)
        for step in range(3):
            specs.append((nodes[step], nodes[(step + 1) % 3], 0, span, costs[step], cycle))
        hubs.append(rng.choice(nodes))
    pinned_cost = 0
    for here, there in zip(hubs, hubs[1:]):
        cost = rng.randint(-5, 5)
        pinned_cost += cost
        specs.append((here, there, 1, 1, cost, None))
    rng.shuffle(specs)
    balances = [0] * (3 * k)
    balances[hubs[0]] += 1
    balances[hubs[-1]] -= 1
    net = Network(3 * k, tuple(Arc(*spec[:5]) for spec in specs), tuple(balances))
    members = [[index for index, spec in enumerate(specs) if spec[5] == cycle] for cycle in range(k)]
    unit = [sum(net.arcs[index].cost for index in arcs) for arcs in members]
    return net, members, unit, pinned_cost


def random_feasible_network(rng: random.Random, max_nodes=6, max_arcs=10,
                            max_span=3, max_cost=3, min_nodes=2):
    """Connected instance plus a witness flow it was built around.

    Balances are derived from the witness, so feasibility is guaranteed.
    Parallel and anti-parallel arcs arise naturally from the random pairs.
    """
    n = rng.randint(min_nodes, max_nodes)
    specs = []
    for node in range(1, n):
        other = rng.randrange(node)
        specs.append((node, other) if rng.random() < 0.5 else (other, node))
    total = rng.randint(n - 1, max(n - 1, max_arcs))
    while len(specs) < total:
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        if v >= u:
            v += 1
        specs.append((u, v))
    arcs = []
    witness = []
    for src, dst in specs:
        lower = rng.randint(0, 2)
        span = rng.randint(0, max_span)
        witness.append(rng.randint(lower, lower + span))
        arcs.append(Arc(src, dst, lower, lower + span, rng.randint(-max_cost, max_cost)))
    balances = [0] * n
    for arc, value in zip(arcs, witness):
        balances[arc.src] += value
        balances[arc.dst] -= value
    return Network(n, tuple(arcs), tuple(balances)), Flow(tuple(witness))


def random_grid_network(rng: random.Random, rows, cols, min_cost=-20, max_cost=50,
                        max_span=3, both_ways=False) -> Network:
    """rows x cols grid, one arc of random direction per grid edge.

    With `both_ways`, each grid edge gets an arc in each direction instead.
    Balances come from a random witness flow, so the instance is feasible.
    """
    arcs = []
    balances = [0] * (rows * cols)
    for node in range(rows * cols):
        right = node + 1 if (node + 1) % cols else None
        down = node + cols if node + cols < rows * cols else None
        for other in (right, down):
            if other is None:
                continue
            if both_ways:
                ends = ((node, other), (other, node))
            else:
                ends = ((node, other) if rng.random() < 0.5 else (other, node),)
            for src, dst in ends:
                lower = rng.randint(0, 1)
                upper = lower + rng.randint(1, max_span)
                witness = rng.randint(lower, upper)
                balances[src] += witness
                balances[dst] -= witness
                arcs.append(Arc(src, dst, lower, upper, rng.randint(min_cost, max_cost)))
    return Network(rows * cols, tuple(arcs), tuple(balances))


def synthetic_digraph(rng: random.Random, max_nodes=30) -> ResidualGraph:
    """Random digraph dressed up as a residual graph, one origin per arc."""
    n = rng.randint(2, max_nodes)
    m = rng.randint(0, min(3 * n, 60))
    arcs = []
    for index in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        if v >= u:
            v += 1
        arcs.append(ResidualArc(u, v, 1, 0, index, True))
    out_lists: list[list[int]] = [[] for _ in range(n)]
    for index, res in enumerate(arcs):
        out_lists[res.src].append(index)
    return ResidualGraph(n, tuple(arcs), tuple(tuple(lst) for lst in out_lists))


def digraph_has_cycle(rg: ResidualGraph) -> bool:
    """Kahn's algorithm; exact and linear."""
    indegree = [0] * rg.node_count
    for res in rg.arcs:
        indegree[res.dst] += 1
    queue = deque(i for i in range(rg.node_count) if indegree[i] == 0)
    seen = 0
    while queue:
        node = queue.popleft()
        seen += 1
        for index in rg.out_arcs[node]:
            dst = rg.arcs[index].dst
            indegree[dst] -= 1
            if indegree[dst] == 0:
                queue.append(dst)
    return seen != rg.node_count


def sbalow_bruteforce(rg: ResidualGraph, forest) -> list[int]:
    """Walk parent links while a short backward arc exists; track the min dfs."""
    result = []
    for start in range(rg.node_count):
        best = forest.order[start]
        node = start
        while True:
            parent = forest.parent_node[node]
            if parent < 0:
                break
            if not any(rg.arcs[i].dst == parent for i in rg.out_arcs[node]):
                break
            node = parent
            best = min(best, forest.order[node])
        result.append(best)
    return result


def proper_cycle_exists_bruteforce(rg: ResidualGraph, cap=500_000) -> bool:
    """Enumerate simple cycles rooted at their smallest node; stop at a proper one."""
    states = 0

    def proper(arc_indices) -> bool:
        directions: dict[int, bool] = {}
        for i in arc_indices:
            res = rg.arcs[i]
            if directions.setdefault(res.origin_arc, res.forward) != res.forward:
                return False
        return True

    for start in range(rg.node_count):
        path_nodes = [start]
        path_arcs: list[int] = []

        def extend(node) -> bool:
            nonlocal states
            states += 1
            if states > cap:
                raise RuntimeError("brute-force cycle search exceeded its cap")
            for index in rg.out_arcs[node]:
                res = rg.arcs[index]
                if res.dst == start:
                    if proper(path_arcs + [index]):
                        return True
                elif res.dst > start and res.dst not in path_nodes:
                    path_nodes.append(res.dst)
                    path_arcs.append(index)
                    if extend(res.dst):
                        return True
                    path_nodes.pop()
                    path_arcs.pop()
            return False

        if extend(start):
            return True
    return False


def random_residual_cycle(rng: random.Random, rg: ResidualGraph) -> Cycle | None:
    """Random walk until a node repeats; the loop part is a directed cycle."""
    for _ in range(60):
        node = rng.randrange(rg.node_count)
        path: list[int] = []
        seen = {node: 0}
        for _ in range(2 * rg.node_count + 4):
            options = rg.out_arcs[node]
            if not options:
                break
            index = options[rng.randrange(len(options))]
            path.append(index)
            node = rg.arcs[index].dst
            if node in seen:
                return Cycle(tuple(rg.arcs[i] for i in path[seen[node]:]))
            seen[node] = len(path)
    return None


def headroom(net: Network, values, arc_id: int, sign: int) -> int:
    """How far `values[arc_id]` can move along `sign` before it meets a bound."""
    arc = net.arcs[arc_id]
    return arc.upper - values[arc_id] if sign > 0 else values[arc_id] - arc.lower


def _adjacency(net: Network, arcs):
    """Undirected incidence lists: adjacency[node] holds (neighbor, arc id)."""
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(net.node_count)]
    for arc_id in arcs:
        arc = net.arcs[arc_id]
        adjacency[arc.src].append((arc.dst, arc_id))
        adjacency[arc.dst].append((arc.src, arc_id))
    return adjacency


def _signed_cycle(arcs, parent_node, parent_arc, depth, arc_id: int, sign: int):
    """Signed (arc id, sign) members of the cycle that non-tree arc `arc_id` closes through the tree.

    `(arc_id, sign)` comes first, then the tree path from the arc's head
    back to its tail: the steps climbing from the head, then those going
    down to the tail.  A step carries `sign` when the path rides its tree
    arc in the arc's own direction, `-sign` when it opposes it.
    """
    arc = arcs[arc_id]
    ups = [(arc_id, sign)]
    downs: list[tuple[int, int]] = []
    x, y = arc.dst, arc.src
    while x != y:
        if depth[x] >= depth[y]:
            step = parent_arc[x]
            ups.append((step, sign if arcs[step].src == x else -sign))
            x = parent_node[x]
        else:
            step = parent_arc[y]
            downs.append((step, -sign if arcs[step].src == y else sign))
            y = parent_node[y]
    return ups + downs[::-1]


def _rescan_walk(net: Network, adjacency, tables, node: int, parent: int = -1, via: int = -1):
    """The tree walk that `rescan_pivot_to_optimal` was written against."""
    parent_node, parent_arc, depth, potentials = tables
    seen = set()
    stack = [(node, parent, via)]
    while stack:
        node, parent, via = stack.pop()
        if node in seen:
            return via
        seen.add(node)
        parent_node[node] = parent
        parent_arc[node] = via
        if parent < 0:
            depth[node] = potentials[node] = 0
        else:
            arc = net.arcs[via]
            depth[node] = depth[parent] + 1
            potentials[node] = potentials[parent] + (arc.cost if arc.src == parent else -arc.cost)
        # Reversed, so neighbours pop in adjacency order.
        stack.extend((other, node, a) for other, a in reversed(adjacency[node]) if a != via)
    return None


def rescan_pivot_to_optimal(net: Network, values, tree: list[int], pivots: list[int]):
    """Bland's rule by rescanning every arc from id 0 after each pivot.

    The pivot loop `treebounds._pivot_to_optimal` ran before it took its
    entering arcs from a heap, kept as the reference the heap must match.
    Appends each entering arc to `pivots`.
    """
    adjacency = _adjacency(net, tree)
    tables = parent_node, parent_arc, depth, potentials = [[-1] * net.node_count for _ in range(4)]
    _rescan_walk(net, adjacency, tables, 0)
    if -1 in depth:
        raise InvariantError("tree arcs must span the network")
    in_tree = [False] * net.arc_count
    for arc_id in tree:
        in_tree[arc_id] = True
    for _ in range(_PIVOT_CAP):
        swap = None
        for arc_id in range(net.arc_count):
            if in_tree[arc_id]:
                continue
            arc = net.arcs[arc_id]
            if arc.lower == arc.upper:
                continue
            reduced = arc.cost + potentials[arc.src] - potentials[arc.dst]
            if values[arc_id] == arc.lower and reduced < 0:
                orientation = 1
            elif values[arc_id] == arc.upper and reduced > 0:
                orientation = -1
            else:
                continue
            members = _signed_cycle(net.arcs, parent_node, parent_arc, depth, arc_id, orientation)
            if min(headroom(net, values, e, s) for e, s in members) > 0:
                continue  # a genuinely negative cycle: the flow was not optimal
            swap = (arc_id, members)
            break
        if swap is None:
            return in_tree, tables
        entering, members = swap
        pivots.append(entering)
        leaving = min(e for e, s in members if e != entering and headroom(net, values, e, s) == 0)
        out, arc = net.arcs[leaving], net.arcs[entering]
        # The leaving arc cuts off the subtree below its deeper end; the
        # entering arc has exactly one end inside it.
        cut = out.src if depth[out.src] > depth[out.dst] else out.dst
        x = arc.src
        while depth[x] > depth[cut]:
            x = parent_node[x]
        inside, outside = (arc.src, arc.dst) if x == cut else (arc.dst, arc.src)
        adjacency[out.src].remove((out.dst, leaving))
        adjacency[out.dst].remove((out.src, leaving))
        adjacency[arc.src].append((arc.dst, entering))
        adjacency[arc.dst].append((arc.src, entering))
        in_tree[leaving], in_tree[entering] = False, True
        _rescan_walk(net, adjacency, tables, inside, outside, entering)
    raise InvariantError("tree pivoting did not terminate")


def split_on_flows(witness, other, lower, upper):
    """The first arc where the flows differ, its bounds keeping `witness`, then holding `other`.

    The split `enumeration._split` made by comparing both flows arc by arc,
    before it read the arc and its side from the cycle's lowest id; kept as
    the reference that split must match.
    """
    for arc, (mine, theirs) in enumerate(zip(witness, other)):
        if mine != theirs:
            if mine < theirs:
                return arc, (lower[arc], mine), (mine + 1, upper[arc])
            return arc, (mine, upper[arc]), (lower[arc], mine - 1)
    raise IdenticalFlowsError("cannot partition on two identical flows")


def partition_solution_space(net: Network, flow: Flow, other: Flow) -> tuple[Network, Network]:
    """`net` with the first differing arc narrowed: the half that keeps `flow`, then `other`'s.

    The split `enumeration._split` makes in frame bounds, over whole
    networks; the reference searches above split regions with it.
    """
    arcs = net.arcs
    arc_id, *halves = split_on_flows(flow.values, other.values,
                                     [arc.lower for arc in arcs], [arc.upper for arc in arcs])
    return tuple(replace(net, arcs=arcs[:arc_id] + (replace(arcs[arc_id], lower=lo, upper=hi),)
                         + arcs[arc_id + 1:]) for lo, hi in halves)


def sweep_proper_cycle(forest, tail: list[int], origin: list[int]) -> list[int] | None:
    """Proper-cycle scan by sweeping every residual id, highest first, once per class.

    The scan `dfs._proper_cycle` ran before the forest kept its candidate
    ids, kept as the reference the candidate lists must match.
    """
    order, classes, head, sbalow = forest.order, forest.arc_class, forest.head, forest.sbalow
    last = len(head) - 1

    for index in range(last, -1, -1):
        if classes[index] == BACKWARD_LONG:
            return [index, *reversed(_path(tail, forest.parent_arc, head[index], tail[index]))]

    for index in range(last, -1, -1):
        if classes[index] != FORWARD or sbalow[head[index]] > order[tail[index]]:
            continue
        path = dfs._short_backward_path(forest, origin, head[index], tail[index], origin[index])
        if path is not None:
            return [index, *path]

    for index in range(last, -1, -1):
        if classes[index] != CROSS:
            continue
        u, v = tail[index], head[index]
        if forest.tree_root[u] != forest.tree_root[v]:
            continue
        meet = dfs.lca(forest, u, v)
        if sbalow[v] > order[meet]:
            continue
        path = dfs._short_backward_path(forest, origin, v, meet, origin[index])
        if path is not None:
            return [index, *path, *reversed(_path(tail, forest.parent_arc, meet, u))]

    for node in reversed(forest.discovery):
        tree_arc = forest.parent_arc[node]
        for index in forest.short_back_arcs[node]:
            if origin[index] != origin[tree_arc]:
                return [tree_arc, index]
    return None


def reference_forest(out, head: list[int]) -> SimpleNamespace:
    """The DFS `dfs._forest` ran while it stored a class and a tail for every id it scanned.

    Kept as the reference its derived view and other fields must match: the
    same fields, less the subtree sizes, with `arc_class` stored as the arcs
    are scanned (0 for ids not in `out`) and a done flag per node.  `cross`
    lists only the cross ids between two nodes of one tree, as `_forest` does.
    Its depths went with it, since `dfs.lca` climbs to a discovery interval.
    """
    n = len(out)
    order = [0] * n
    done = [False] * n
    parent_node = [-1] * n
    parent_arc = [-1] * n
    tree_root = [-1] * n
    arc_class = [0] * len(head)
    short_back: list[list[int]] = [[] for _ in range(n)]
    discovery: list[int] = []
    long_back, forward, cross = -1, [], []

    for root in range(n):
        if order[root]:
            continue
        discovery.append(root)
        order[root] = len(discovery)
        tree_root[root] = root
        stack = [(root, iter(out[root]))]
        while stack:
            node, arcs = stack[-1]
            for index in arcs:
                child = head[index]
                if not order[child]:
                    arc_class[index] = TREE
                    discovery.append(child)
                    order[child] = len(discovery)
                    parent_node[child] = node
                    parent_arc[child] = index
                    tree_root[child] = root
                    stack.append((child, iter(out[child])))
                    break
                if not done[child]:
                    if child == parent_node[node]:
                        arc_class[index] = BACKWARD_SHORT
                        short_back[node].append(index)
                    else:
                        arc_class[index] = BACKWARD_LONG
                        long_back = max(long_back, index)
                elif order[node] < order[child]:
                    arc_class[index] = FORWARD
                    forward.append(index)
                else:
                    arc_class[index] = CROSS
                    if tree_root[child] == root:  # a cross arc into an earlier tree is no candidate
                        cross.append(index)
            else:
                stack.pop()
                done[node] = True

    return dfs._sbalow(SimpleNamespace(
        order=order, discovery=discovery, parent_node=parent_node, parent_arc=parent_arc,
        tree_root=tree_root, arc_class=arc_class,
        short_back_arcs=short_back, sbalow=[0] * n, long_back=long_back, forward=forward,
        cross=cross))


def round_based_potentials(frame, room) -> tuple[int, ...]:
    """The round-based Bellman-Ford `solver._potentials` ran before it corrected labels
    from a queue, kept as the reference it must match tuple for tuple and raise for raise."""
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
