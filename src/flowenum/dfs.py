"""Depth-first forests over residual graphs and proper-cycle search.

One DFS works on plain integer lists: each node's out-list of residual arc
ids, and per id the arc's head and the original arc it came from.  It
classifies every residual arc as tree, forward, backward (short or long), or
cross, and keeps per-node SBAlow values (the shallowest dfs number reachable
through short backward arcs alone), and lists the candidates a cycle scan
reads: the greatest long backward id and the forward and cross ids.  Scanning
them by descending id, the order that fixes which cycle and so which flow comes
next, either produces a proper cycle or proves none exists; only cross arcs
need a lowest common ancestor, found by walking parent links.

One kernel, `another_flow`, runs the search on a `core.Frame` and pushes one
unit around the cycle it finds; `find_another_feasible_flow` runs it on a
network's own frame.  `_search` also returns the out-lists and forest, so a
region with one residual id less can start from them: `_drop` removes the id
and patches the forest in place, unless it was a tree or long backward arc.
`build_dfs_forest` and `find_proper_cycle` read a `ResidualGraph`, whose ids
are positions in its arcs.  Both readings list out-arcs by (origin arc,
forward first), so they find the same cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import Cycle, Flow, Frame, Network, ResidualGraph, check_feasible, frame_of, push_unit
from .errors import DifferentTreesError, InfeasibleFlowError

TREE, FORWARD, BACKWARD_SHORT, BACKWARD_LONG, CROSS = range(1, 6)


@dataclass
class DfsForest:
    """DFS numbering, tree links, arc classes, SBAlow values and scan candidates.

    Per-arc lists are indexed by residual id; ids with no arc read 0.
    """

    order: list[int]                    # discovery numbers, 1-based
    discovery: list[int]                # nodes in discovery order
    parent_node: list[int]              # -1 at roots
    parent_arc: list[int]               # residual arc used for discovery
    tree_root: list[int]
    depth: list[int]
    tail: list[int]
    arc_class: list[int]
    short_back_arcs: list[list[int]]
    sbalow: list[int]
    long_back: int                      # greatest BACKWARD_LONG id, -1 if none
    forward: list[int]                  # FORWARD ids in visit order
    cross: list[int]                    # CROSS ids in visit order


def _forest(out: Sequence[Sequence[int]], head: list[int]) -> DfsForest:
    """Iterative DFS; roots by ascending node id, each node's out-arcs in list order."""
    n = len(out)
    order = [0] * n
    done = [False] * n
    parent_node = [-1] * n
    parent_arc = [-1] * n
    tree_root = [-1] * n
    depth = [0] * n
    tail = [0] * len(head)
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
                tail[index] = node
                if not order[child]:
                    arc_class[index] = TREE
                    discovery.append(child)
                    order[child] = len(discovery)
                    parent_node[child] = node
                    parent_arc[child] = index
                    tree_root[child] = root
                    depth[child] = depth[node] + 1
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
                    cross.append(index)
            else:
                stack.pop()
                done[node] = True

    return _sbalow(DfsForest(order, discovery, parent_node, parent_arc, tree_root, depth, tail,
                             arc_class, short_back, [0] * n, long_back, forward, cross))


def _sbalow(forest: DfsForest) -> DfsForest:
    """`forest` with its SBAlow values set top-down from parents and short backward arcs."""
    sbalow, order, parent = forest.sbalow, forest.order, forest.parent_node
    for node in forest.discovery:
        sbalow[node] = sbalow[parent[node]] if forest.short_back_arcs[node] else order[node]
    return forest


def _drop(out: list[list[int]], forest: DfsForest, index: int, head: list[int]) -> DfsForest:
    """Remove id `index` from its tail's out-list and return the forest of what is left: a
    forward, cross or short backward arc changes no discovery or finishing time, so
    removing one patches the forest in place, equal to a new one, field by field."""
    tail, kind = forest.tail[index], forest.arc_class[index]
    out[tail].remove(index)
    if kind in (TREE, BACKWARD_LONG):
        return _forest(out, head)
    forest.tail[index] = forest.arc_class[index] = 0
    short = forest.short_back_arcs[tail]
    {FORWARD: forest.forward, CROSS: forest.cross, BACKWARD_SHORT: short}[kind].remove(index)
    if kind == BACKWARD_SHORT and not short:
        _sbalow(forest)
    return forest


def build_dfs_forest(rg: ResidualGraph) -> DfsForest:
    """DFS forest of a residual graph; roots by ascending node id, out-arcs in residual order."""
    return _forest(rg.out_arcs, [res.dst for res in rg.arcs])


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


def _tree_path(forest: DfsForest, top: int, bottom: int) -> list[int]:
    """Tree arcs walked top -> ... -> bottom; top must be an ancestor."""
    arcs = []
    node = bottom
    while node != top:
        arcs.append(forest.parent_arc[node])
        node = forest.parent_node[node]
    arcs.reverse()
    return arcs


def _short_backward_path(forest: DfsForest, origin: list[int], start: int, goal: int, avoid: int):
    """Short-backward steps start -> goal that never reuse the origin `avoid`."""
    arcs = []
    node = start
    while node != goal:
        step = next((i for i in forest.short_back_arcs[node] if origin[i] != avoid), None)
        if step is None:
            return None
        arcs.append(step)
        node = forest.parent_node[node]
    return arcs


def _proper_cycle(forest: DfsForest, head: list[int], origin: list[int]) -> list[int] | None:
    """Residual ids of one proper cycle, in walk order, or None when there is none.

    Reads the forest's candidates, each class by descending id: that order picks
    the cycle, so the flow order the golden digests pin depends on it."""
    order, tail, sbalow = forest.order, forest.tail, forest.sbalow

    index = forest.long_back
    if index >= 0:
        return [index, *_tree_path(forest, head[index], tail[index])]

    for index in sorted(forest.forward, reverse=True):
        if sbalow[head[index]] > order[tail[index]]:
            continue
        path = _short_backward_path(forest, origin, head[index], tail[index], origin[index])
        if path is not None:
            return [index, *path]

    for index in sorted(forest.cross, reverse=True):
        u, v = tail[index], head[index]
        if forest.tree_root[u] != forest.tree_root[v]:
            continue
        meet = lca(forest, u, v)
        if sbalow[v] > order[meet]:
            continue
        path = _short_backward_path(forest, origin, v, meet, origin[index])
        if path is not None:
            return [index, *path, *_tree_path(forest, meet, u)]

    # Parallel arcs: a short backward arc against a different-origin tree arc
    # closes a proper two-arc cycle that the three scans above cannot see.
    for node in reversed(forest.discovery):
        tree_arc = forest.parent_arc[node]
        for index in forest.short_back_arcs[node]:
            if origin[index] != origin[tree_arc]:
                return [tree_arc, index]
    return None


def find_proper_cycle(rg: ResidualGraph, forest: DfsForest | None = None) -> Cycle | None:
    """One proper cycle of the residual graph, or None when there is none."""
    head = [res.dst for res in rg.arcs]
    if forest is None:
        forest = _forest(rg.out_arcs, head)
    cycle = _proper_cycle(forest, head, [res.origin_arc for res in rg.arcs])
    return None if cycle is None else Cycle(tuple(rg.arcs[index] for index in cycle))


def _search(frame: Frame, values: Sequence[int], reuse=None):
    """`another_flow`, and the out-lists and forest it searched.  `reuse` is the `(out,
    forest, index)` of a search from `values` in a region that also held id `index`."""
    head = frame.head
    if reuse is not None:
        out, forest = reuse[0], _drop(*reuse, head)
    else:
        out = [[] for _ in range(frame.node_count)]
        for index, value, lo, hi in zip(range(0, len(head), 2), values, frame.lower, frame.upper):
            if value < hi:
                out[head[index + 1]].append(index)
            if value > lo:
                out[head[index]].append(index + 1)
        forest = _forest(out, head)
    cycle = _proper_cycle(forest, head, frame.origin)
    return (None if cycle is None else push_unit(frame, values, cycle)), out, forest


def another_flow(frame: Frame, values: Sequence[int]) -> Flow | None:
    """Another flow one unit from `values`, which must be feasible within the bounds, or None."""
    return _search(frame, values)[0]


def find_another_feasible_flow(net: Network, flow: Flow) -> Flow | None:
    """A feasible flow one unit around `find_proper_cycle(build_residual(net, flow))`, or None.

    Raises InfeasibleFlowError on an infeasible input."""
    if not check_feasible(net, flow):
        raise InfeasibleFlowError("cannot search from an infeasible flow")
    return another_flow(frame_of(net), flow.values)
