"""Depth-first forests over residual graphs and proper-cycle search.

The forest classifies every residual arc as tree, forward, backward (short
or long), or cross, and keeps per-node SBAlow values (the shallowest dfs
number reachable through short backward arcs alone).  Scanning the
classified arcs then either produces a proper cycle or proves none exists;
only cross arcs need a lowest common ancestor, found by walking parent links.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Cycle, Flow, Network, ResidualGraph, augment, build_residual
from .errors import DifferentTreesError

TREE = "tree"
FORWARD = "forward"
BACKWARD_SHORT = "backward_short"
BACKWARD_LONG = "backward_long"
CROSS = "cross"


@dataclass(frozen=True)
class DfsForest:
    """DFS numbering, tree links, arc classification, and SBAlow values."""

    graph: ResidualGraph
    order: tuple[int, ...]                      # discovery numbers, 1-based
    finish: tuple[int, ...]
    parent_node: tuple[int, ...]                # -1 at roots
    parent_arc: tuple[int, ...]                 # residual arc used for discovery
    tree_root: tuple[int, ...]
    depth: tuple[int, ...]
    arc_class: tuple[str, ...]
    short_back_arcs: tuple[tuple[int, ...], ...]
    sbalow: tuple[int, ...]

    def is_ancestor(self, node: int, descendant: int) -> bool:
        return (
            self.order[node] <= self.order[descendant]
            and self.finish[descendant] <= self.finish[node]
        )


def build_dfs_forest(rg: ResidualGraph) -> DfsForest:
    """Iterative DFS; roots by ascending node id, out-arcs in residual order."""
    n = rg.node_count
    order = [0] * n
    finish = [0] * n
    parent_node = [-1] * n
    parent_arc = [-1] * n
    tree_root = [-1] * n
    depth = [0] * n
    arc_class = [""] * len(rg.arcs)
    short_back: list[tuple[int, ...]] = [()] * n
    sbalow = [0] * n

    clock = 0
    finish_clock = 0
    for root in range(n):
        if order[root]:
            continue
        clock += 1
        order[root] = clock
        tree_root[root] = root
        sbalow[root] = clock
        stack = [(root, 0)]
        while stack:
            node, cursor = stack[-1]
            if cursor < len(rg.out_arcs[node]):
                stack[-1] = (node, cursor + 1)
                arc_index = rg.out_arcs[node][cursor]
                child = rg.arcs[arc_index].dst
                if order[child]:
                    continue
                arc_class[arc_index] = TREE
                clock += 1
                order[child] = clock
                parent_node[child] = node
                parent_arc[child] = arc_index
                tree_root[child] = root
                depth[child] = depth[node] + 1
                to_parent = tuple(
                    back for back in rg.out_arcs[child] if rg.arcs[back].dst == node
                )
                short_back[child] = to_parent
                sbalow[child] = sbalow[node] if to_parent else clock
                stack.append((child, 0))
            else:
                stack.pop()
                finish_clock += 1
                finish[node] = finish_clock

    for index, res in enumerate(rg.arcs):
        if arc_class[index]:
            continue
        u, v = res.src, res.dst
        if order[u] < order[v]:
            arc_class[index] = FORWARD
        elif finish[u] <= finish[v]:
            arc_class[index] = BACKWARD_SHORT if parent_node[u] == v else BACKWARD_LONG
        else:
            arc_class[index] = CROSS

    return DfsForest(
        rg,
        tuple(order),
        tuple(finish),
        tuple(parent_node),
        tuple(parent_arc),
        tuple(tree_root),
        tuple(depth),
        tuple(arc_class),
        tuple(short_back),
        tuple(sbalow),
    )


def lca(forest: DfsForest, a: int, b: int) -> int:
    """Lowest common ancestor, walking parent links up from the deeper node."""
    if forest.tree_root[a] != forest.tree_root[b]:
        raise DifferentTreesError(f"nodes {a} and {b} are in different DFS trees")
    depth, parent = forest.depth, forest.parent_node
    while depth[a] > depth[b]:
        a = parent[a]
    while depth[b] > depth[a]:
        b = parent[b]
    while a != b:
        a, b = parent[a], parent[b]
    return a


def _tree_path_arcs(forest: DfsForest, top: int, bottom: int) -> list:
    """Tree arcs walked top -> ... -> bottom; top must be an ancestor."""
    arcs = []
    node = bottom
    while node != top:
        arcs.append(forest.graph.arcs[forest.parent_arc[node]])
        node = forest.parent_node[node]
    arcs.reverse()
    return arcs


def _short_backward_path(forest: DfsForest, start: int, goal: int, avoid_origin: int):
    """Short-backward steps start -> goal that never reuse the defining origin."""
    rg = forest.graph
    arcs = []
    node = start
    while node != goal:
        step = None
        for index in forest.short_back_arcs[node]:
            if rg.arcs[index].origin_arc != avoid_origin:
                step = index
                break
        if step is None:
            return None
        arcs.append(rg.arcs[step])
        node = forest.parent_node[node]
    return arcs


def find_proper_cycle(rg: ResidualGraph, forest: DfsForest | None = None) -> Cycle | None:
    """One proper cycle of the residual graph, or None when there is none."""
    if forest is None:
        forest = build_dfs_forest(rg)
    order = forest.order
    classes = forest.arc_class
    last = len(rg.arcs) - 1

    for index in range(last, -1, -1):
        if classes[index] != BACKWARD_LONG:
            continue
        res = rg.arcs[index]
        return Cycle((res, *_tree_path_arcs(forest, res.dst, res.src)))

    for index in range(last, -1, -1):
        if classes[index] != FORWARD:
            continue
        res = rg.arcs[index]
        if forest.sbalow[res.dst] > order[res.src]:
            continue
        path = _short_backward_path(forest, res.dst, res.src, res.origin_arc)
        if path is not None:
            return Cycle((res, *path))

    for index in range(last, -1, -1):
        if classes[index] != CROSS:
            continue
        res = rg.arcs[index]
        if forest.tree_root[res.src] != forest.tree_root[res.dst]:
            continue
        meet = lca(forest, res.src, res.dst)
        if forest.sbalow[res.dst] > order[meet]:
            continue
        path = _short_backward_path(forest, res.dst, meet, res.origin_arc)
        if path is None:
            continue
        return Cycle((res, *path, *_tree_path_arcs(forest, meet, res.src)))

    # Parallel arcs: a short backward arc against a different-origin tree arc
    # closes a proper two-arc cycle that the three scans above cannot see.
    for node in sorted(range(rg.node_count), key=lambda v: -order[v]):
        tree_arc = forest.parent_arc[node]
        if tree_arc < 0:
            continue
        for index in forest.short_back_arcs[node]:
            if rg.arcs[index].origin_arc != rg.arcs[tree_arc].origin_arc:
                return Cycle((rg.arcs[tree_arc], rg.arcs[index]))

    return None


def find_another_feasible_flow(net: Network, flow: Flow) -> Flow | None:
    """A feasible flow different from the input, or None if it is unique.

    Raises InfeasibleFlowError, through build_residual, on an infeasible input.
    """
    cycle = find_proper_cycle(build_residual(net, flow))
    if cycle is None:
        return None
    return augment(flow, cycle, 1)
