"""Depth-first forests over residual graphs and proper-cycle search.

One DFS reads plain integer lists, each node's out-list of residual ids and
per id the node it enters, and its loop stores nothing per id.  A node's
descendants hold the discovery numbers from its own to its own plus its
subtree size (Tarjan 1972), so an id's class is read in O(1) from its ends:
tree or forward if the head lies in the tail's interval (tree if the id
discovered it), backward if the tail lies in the head's (short when the head
is the tail's parent), cross otherwise.  The forest keeps per-node SBAlow
values (the shallowest dfs number reachable through short backward arcs
alone) and the candidates a cycle scan reads: the greatest long backward id,
the forward ids and the cross ids whose head is in the tail's own tree (one
into an earlier tree lies on no cycle, as all that tree reaches was discovered
before it finished).  Scanning them by descending id, the order that fixes
which cycle and so which flow comes next, either produces a proper cycle or
proves none exists; only cross arcs need a lowest common ancestor.  A tree
path is read up the parent ids by `core._path`, which takes `tail` per id.

The kernel, `_search`, runs on a `core.Frame`, pushes one unit around the
cycle it finds and returns the cycle and the forest, which holds its
out-lists: a region with one residual id less starts from it, as `_drop`
removes the id and patches the forest in place unless it was a long backward
arc or a tree arc with no twin (a parallel id next on the same out-list).
`find_another_feasible_flow` runs it on a network's own frame; `build_dfs_forest`
and `find_proper_cycle` read a `ResidualGraph`, whose ids are positions in its
arcs, and list out-arcs by (origin arc, forward first), so find the same cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import Cycle, Flow, Frame, Network, ResidualGraph, _path, check_feasible, frame_of, push_unit
from .errors import InfeasibleFlowError

TREE, FORWARD, BACKWARD_SHORT, BACKWARD_LONG, CROSS = range(1, 6)


@dataclass
class DfsForest:
    """DFS numbering, subtree sizes, tree links, SBAlow values and scan candidates of `out`."""

    order: list[int]                    # discovery numbers, 1-based
    discovery: list[int]                # nodes in discovery order
    parent_node: list[int]              # -1 at roots
    parent_arc: list[int]               # residual arc used for discovery
    size: list[int]                     # subtree sizes, the node included; 0 until it finishes
    short_back_arcs: list[list[int]]
    sbalow: list[int]
    long_back: int                      # greatest BACKWARD_LONG id, -1 if none
    forward: list[int]                  # FORWARD ids in visit order
    cross: list[int]                    # CROSS ids into their tail's own tree, in visit order
    out: Sequence[Sequence[int]]        # per node, the ids searched; `_drop` edits them
    head: list[int]                     # per id, the node it enters

    def classify(self, tail: int, index: int) -> int:
        """The class of id `index`, which leaves `tail`, from its ends' discovery intervals."""
        node, order, size = self.head[index], self.order, self.size
        if order[tail] < order[node] < order[tail] + size[tail]:
            return TREE if self.parent_arc[node] == index else FORWARD
        if order[node] <= order[tail] < order[node] + size[node]:
            return BACKWARD_SHORT if node == self.parent_node[tail] else BACKWARD_LONG
        return CROSS

    def _per_id(self, read) -> list[int]:
        values = [0] * len(self.head)
        for node, ids in enumerate(self.out):
            for index in ids:
                values[index] = read(node, index)
        return values

    arc_class = property(lambda self: self._per_id(self.classify))  # per id, 0 off `out`


def _forest(out: Sequence[Sequence[int]], head: list[int]) -> DfsForest:
    """Iterative DFS; roots by ascending node id, each node's out-arcs in list order."""
    n = len(out)
    order, size, parent_node, parent_arc = [0] * n, [0] * n, [-1] * n, [-1] * n
    short_back: list[list[int]] = [[] for _ in range(n)]
    discovery: list[int] = []
    count, long_back, forward, cross = 0, -1, [], []

    for root in range(n):
        if order[root]:
            continue
        count += 1
        discovery.append(root)
        order[root] = count
        node, arcs, stack = root, iter(out[root]), []
        while True:
            for index in arcs:
                child = head[index]
                if not order[child]:
                    count += 1
                    discovery.append(child)
                    order[child] = count
                    parent_node[child] = node
                    parent_arc[child] = index
                    stack.append((node, arcs))
                    node, arcs = child, iter(out[child])
                    break
                if not size[child]:  # on the stack
                    if child == parent_node[node]:
                        short_back[node].append(index)
                    elif index > long_back:
                        long_back = index
                elif order[node] < order[child]:
                    forward.append(index)
                elif order[child] >= order[root]:  # an earlier tree's arcs close no cycle
                    cross.append(index)
            else:
                size[node] = count + 1 - order[node]
                if not stack:
                    break
                node, arcs = stack.pop()

    return _sbalow(DfsForest(order, discovery, parent_node, parent_arc, size, short_back,
                             [0] * n, long_back, forward, cross, out, head))


def _sbalow(forest: DfsForest) -> DfsForest:
    """`forest` with its SBAlow values set top-down from parents and short backward arcs."""
    sbalow, order, parent = forest.sbalow, forest.order, forest.parent_node
    for node in forest.discovery:
        sbalow[node] = sbalow[parent[node]] if forest.short_back_arcs[node] else order[node]
    return forest


def _drop(forest: DfsForest, index: int, tail: list[int]) -> DfsForest:
    """Remove id `index` from its tail's out-list and return the forest of what is left: a
    forward, cross or short backward arc changes no discovery or finishing time, so
    removing one patches the forest in place, equal to a new one, field by field.  So does
    a tree arc whose twin, the id now after it on the out-list, enters the same node: a new
    DFS would discover that node through the twin, at the same number, where it had been
    a forward arc.  Any other tree arc, or a long backward arc, builds a new forest."""
    node, head = tail[index], forest.head
    kind = forest.classify(node, index)
    out = forest.out[node]
    at = out.index(index)
    del out[at]
    if kind == TREE and at < len(out) and head[out[at]] == head[index]:
        forest.parent_arc[head[index]] = out[at]
        forest.forward.remove(out[at])
        return forest
    if kind in (TREE, BACKWARD_LONG):
        return _forest(forest.out, head)
    short = forest.short_back_arcs[node]
    listed = {FORWARD: forest.forward, CROSS: forest.cross, BACKWARD_SHORT: short}[kind]
    if index in listed:  # a cross id into an earlier tree is on none
        listed.remove(index)
    if kind == BACKWARD_SHORT and not short:
        _sbalow(forest)
    return forest


def build_dfs_forest(rg: ResidualGraph) -> DfsForest:
    """DFS forest of a residual graph; roots by ascending node id, out-arcs in residual order."""
    return _forest(rg.out_arcs, [res.dst for res in rg.arcs])


def _lca(forest: DfsForest, a: int, b: int) -> int:
    """Lowest common ancestor: the first node up from `a` whose discovery interval holds `b`.
    Both nodes must be in one tree, as the ends of every id on `forest.cross` are."""
    order, size, parent = forest.order, forest.size, forest.parent_node
    while not order[a] <= order[b] < order[a] + size[a]:
        a = parent[a]
    return a


def _short_backward_path(forest: DfsForest, origin: list[int], start: int, goal: int, avoid: int):
    """Short-backward steps start -> goal that never reuse the origin `avoid`."""
    arcs, node = [], start
    while node != goal:
        step = next((i for i in forest.short_back_arcs[node] if origin[i] != avoid), None)
        if step is None:
            return None
        arcs.append(step)
        node = forest.parent_node[node]
    return arcs


def _proper_cycle(forest: DfsForest, tail: list[int], origin: list[int]) -> list[int] | None:
    """Residual ids of one proper cycle, in walk order, or None when there is none.

    Reads the forest's candidates, each class by descending id: that order picks the cycle,
    so the flow order the golden digests pin depends on it.  `tail` and `origin` are per id."""
    order, head, sbalow = forest.order, forest.head, forest.sbalow

    index = forest.long_back
    if index >= 0:
        return [index, *reversed(_path(tail, forest.parent_arc, head[index], tail[index]))]

    for index in sorted(forest.forward, reverse=True):
        if sbalow[head[index]] > order[tail[index]]:
            continue
        path = _short_backward_path(forest, origin, head[index], tail[index], origin[index])
        if path is not None:
            return [index, *path]

    for index in sorted(forest.cross, reverse=True):
        u, v = tail[index], head[index]
        meet = _lca(forest, u, v)
        if sbalow[v] > order[meet]:
            continue
        path = _short_backward_path(forest, origin, v, meet, origin[index])
        if path is not None:
            return [index, *path, *reversed(_path(tail, forest.parent_arc, meet, u))]

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
    if forest is None:
        forest = build_dfs_forest(rg)
    cycle = _proper_cycle(forest, [res.src for res in rg.arcs], [res.origin_arc for res in rg.arcs])
    return None if cycle is None else Cycle(tuple(rg.arcs[index] for index in cycle))


def _search(frame: Frame, values: Sequence[int], reuse=None):
    """Another flow one unit from `values` (feasible within the bounds) and the cycle pushed, or
    None twice, then the forest searched.  `reuse`: the `(forest, index)` of a search from
    `values` with id `index` as well."""
    head = frame.head
    if reuse is not None:
        forest = _drop(*reuse, frame.tail)
    else:
        out = [[] for _ in range(frame.node_count)]
        for index, value, lo, hi in zip(range(0, len(head), 2), values, frame.lower, frame.upper):
            if value < hi:
                out[head[index + 1]].append(index)
            if value > lo:
                out[head[index]].append(index + 1)
        forest = _forest(out, head)
    cycle = _proper_cycle(forest, frame.tail, frame.origin)
    return (None if cycle is None else push_unit(frame, values, cycle)), cycle, forest


def find_another_feasible_flow(net: Network, flow: Flow) -> Flow | None:
    """A feasible flow one unit around `find_proper_cycle(build_residual(net, flow))`, or None.

    Raises InfeasibleFlowError on an infeasible input."""
    if not check_feasible(net, flow):
        raise InfeasibleFlowError("cannot search from an infeasible flow")
    return _search(frame_of(net), flow.values)[0]
