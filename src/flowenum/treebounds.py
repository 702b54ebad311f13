"""Spanning-tree flow structures: induced cycles, count bounds, cycle basis.

A tree solution pins every non-tree arc at one of its capacity bounds; each
non-tree arc then induces exactly one cycle through the tree.  The induced
cycles with zero reduced cost form a basis for all optimal flows, which is
what the count bounds and the coordinate extraction below exploit.

The kernels read core's `Frame`, never an `Arc`: per arc its tail, head and cost as slices over
the forward ids, bounds from the frame and headrooms from `residual_room`.  The CLI's `bounds`
runs them on the frame the solver returns and reads every answer off the one tree:
`_certified_costs` lists each arc's reduced cost, checking that the tree potentials certify the
solver's optimum, for the zero-cost basis and the face `--exact` counts on; both upper bounds
are `_span_product`s over the ids `_capacities` checked.  `_walk`, depth first with a check as
each node pops, finds the free cycles to cancel; the node it meets twice fixes which cycle, and
so which flow, comes out.  `_hang` roots the first tree at node 0 and, after each pivot, walks
again only the smaller side of the leaving arc's cut (Ahuja, Magnanti and Orlin, Network Flows,
ch. 11); pivots follow Bland's rule.  Cycles are read as core's residual ids (`2a` rides arc `a`
forward, `2a + 1` against it), so that a headroom is one read of a `residual_room` list.
`_cycle` climbs the parent links and lists the ids, for free-cycle cancellation and
`_induced_cycles`, which the cycle decomposition and the basis code read; a pivot's leaving arc
(`_least_blocking`) and a cycle capacity (`_least_room`) are read by climbs that list none.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Sequence

from .core import (Cycle, Flow, Frame, Network, _require_dimensions, _root, check_feasible, cycle_cost,
                   frame_of, residual_room, validate_network)
from .errors import (
    ArcInTreeError,
    CycleEntirelyInTreeError,
    InfeasibleFlowError,
    InvariantError,
    PivotLimitError,
)

COUNT_CAP = 2**63 - 1
_PIVOT_CAP = 200_000


@dataclass(frozen=True)
class TreeStructure:
    """Spanning tree plus the lower/upper split of the remaining arcs."""

    network: Network
    tree_arcs: tuple[int, ...]
    lower_set: frozenset[int]
    upper_set: frozenset[int]
    potentials: tuple[int, ...]
    parent_node: tuple[int, ...]
    parent_arc: tuple[int, ...]
    depth: tuple[int, ...]

    def reduced_cost(self, arc_id: int) -> int:
        arc = self.network.arcs[_in_range(self.network, arc_id)]
        return arc.cost + self.potentials[arc.src] - self.potentials[arc.dst]

    def is_tree_arc(self, arc_id: int) -> bool:
        _in_range(self.network, arc_id)
        return arc_id not in self.lower_set and arc_id not in self.upper_set


@dataclass(frozen=True)
class InducedCycle:
    """The unique cycle a non-tree arc closes through the tree, signed.

    Members are (arc id, sign) pairs; +1 rides the arc in its own direction,
    -1 opposes it.  The defining arc comes first and carries +1 when it sits
    in the lower set, -1 when in the upper set; the tree path from its head
    back to its tail follows, its signs flipped likewise.
    """

    arc: int
    members: tuple[tuple[int, int], ...]

    def cost(self, net: Network) -> int:
        return sum(sign * net.arcs[arc_id].cost for arc_id, sign in self.members)


def _in_range(net: Network, arc_id: int) -> int:
    if type(arc_id) is not int:  # floats and bools too, as `Arc` and `Flow` turn them away
        raise ValueError(f"arc id {arc_id!r} is not an int")
    if not 0 <= arc_id < net.arc_count:
        raise ValueError(f"arc id {arc_id} is out of range")
    return arc_id


def _neighbours(node_count: int, arcs, arc_ids):
    """Undirected incidence lists: per node (neighbour, arc id, the arc's cost signed from the node)."""
    src, dst, cost = arcs
    adjacency: list[list[tuple[int, int, int]]] = [[] for _ in range(node_count)]
    for arc_id in arc_ids:
        adjacency[src[arc_id]].append((dst[arc_id], arc_id, cost[arc_id]))
        adjacency[dst[arc_id]].append((src[arc_id], arc_id, -cost[arc_id]))
    return adjacency


def _walk(adjacency, tables, seen, node: int):
    """Depth-first walk from root `node`, taking neighbours in adjacency order.

    Every node reached gets its parent link and depth in `tables` and is
    marked in the per-node list `seen` as it pops.  Returns the first arc
    that leads back to a marked node, which closes a cycle, or None when
    the part reached is a tree.
    """
    parent_node, parent_arc, depth = tables
    stack = [(node, -1, -1)]
    while stack:
        node, parent, via = stack.pop()
        if seen[node]:
            return via
        seen[node] = True
        parent_node[node], parent_arc[node] = parent, via
        depth[node] = depth[parent] + 1 if parent >= 0 else 0
        # Reversed, so neighbours pop in adjacency order.
        stack.extend((other, node, arc_id) for other, arc_id, _ in reversed(adjacency[node])
                     if arc_id != via)
    return None


def _hang(adjacency, tables, node: int, parent: int = -1, via: int = -1, step: int = 0) -> list[int]:
    """Root the tree part reached from `node` at `node`, hung from `parent` by arc `via`.

    `step` is `via`'s cost signed from `parent`.  Every node reached
    without crossing `via` gets its parent link, depth and potential in
    `tables`, and the walk returns them, each after its parent.  It pushes
    bare nodes and reads each one's parent arc from `tables`; inside a tree
    the order changes none of the links, depths or potentials.
    """
    parent_node, parent_arc, depth, potentials = tables
    parent_node[node], parent_arc[node] = parent, via
    depth[node] = depth[parent] + 1 if parent >= 0 else 0
    potentials[node] = potentials[parent] + step if parent >= 0 else 0
    order = [node]
    for node in order:
        up, below, potential = parent_arc[node], depth[node] + 1, potentials[node]
        for other, arc_id, cost in adjacency[node]:
            if arc_id != up:
                parent_node[other] = node
                parent_arc[other] = arc_id
                depth[other] = below
                potentials[other] = potential + cost
                order.append(other)
    return order


def _cycle(src, dst, parent_node, parent_arc, depth, arc_id: int, sign: int) -> list[int]:
    """Residual ids of the cycle that non-tree arc `arc_id` closes through the tree.

    The arc's own id comes first, `2 * arc_id` for `sign` +1 and
    `2 * arc_id + 1` for -1, then the tree path from the arc's head back to
    its tail: the steps climbing from the head, then those going down to
    the tail.  A step rides its tree arc forward (the even id) when `sign`
    is +1 and the path runs along the arc, or `sign` is -1 and it runs
    against it.
    """
    flip = sign < 0
    ups = [2 * arc_id + flip]
    downs: list[int] = []
    x, y = dst[arc_id], src[arc_id]
    while x != y:
        if depth[x] >= depth[y]:
            step = parent_arc[x]
            ups.append(2 * step + ((src[step] != x) ^ flip))
            x = parent_node[x]
        else:
            step = parent_arc[y]
            downs.append(2 * step + ((src[step] == y) ^ flip))
            y = parent_node[y]
    ups.extend(reversed(downs))
    return ups


def _least_room(src, dst, parent_node, parent_arc, depth, room, arc_id: int, sign: int) -> int:
    """`min(room[r] for r in _cycle(...))`, read without listing the ids; stops at 0."""
    flip = sign < 0
    least = room[2 * arc_id + flip]
    x, y = dst[arc_id], src[arc_id]
    while least and x != y:
        if depth[x] >= depth[y]:
            spare = room[2 * parent_arc[x] + ((src[parent_arc[x]] != x) ^ flip)]
            x = parent_node[x]
        else:
            spare = room[2 * parent_arc[y] + ((src[parent_arc[y]] == y) ^ flip)]
            y = parent_node[y]
        if spare < least:
            least = spare
    return least


def _least_blocking(src, dst, parent_node, parent_arc, depth, room, arc_id: int, sign: int) -> int:
    """`min(r >> 1 for r in _cycle(...) if not room[r])`, read without listing the ids; -1 if none."""
    flip = sign < 0
    least = len(src) if room[2 * arc_id + flip] else arc_id
    x, y = dst[arc_id], src[arc_id]
    while x != y:
        if depth[x] >= depth[y]:
            step = parent_arc[x]
            if step < least and not room[2 * step + ((src[step] != x) ^ flip)]:
                least = step
            x = parent_node[x]
        else:
            step = parent_arc[y]
            if step < least and not room[2 * step + ((src[step] == y) ^ flip)]:
                least = step
            y = parent_node[y]
    return least if least < len(src) else -1


def _find_free_cycle(node_count: int, arcs, free):
    """Residual ids of a cycle through arcs strictly between their bounds, as `_cycle` lists them."""
    src, dst = arcs[:2]
    adjacency = _neighbours(node_count, arcs, free)
    tables = parent_node, parent_arc, depth = [[-1] * node_count for _ in range(3)]
    seen = [False] * node_count
    for root in range(node_count):
        # A node no free arc touches is a tree on its own.
        if seen[root] or not adjacency[root]:
            continue
        closing = _walk(adjacency, tables, seen, root)
        if closing is not None:
            # The closing arc leads back to an ancestor of its deeper end.
            sign = 1 if depth[src[closing]] < depth[dst[closing]] else -1
            return _cycle(src, dst, parent_node, parent_arc, depth, closing, sign)
    return None


def _cancel_free_cycles(frame: Frame, arcs, values) -> list[int]:
    """Cancel free cycles in place; returns the free arcs left, a forest."""
    while True:
        room = residual_room(frame, values)
        free = [a for a in range(len(values)) if room[2 * a] and room[2 * a + 1]]
        walk = _find_free_cycle(frame.node_count, arcs, free)
        if walk is None:
            return free
        if sum(map(frame.cost.__getitem__, walk)) > 0:  # the frame's cost is signed per id
            walk = [r ^ 1 for r in walk]
        units = min(room[r] for r in walk)
        for r in walk:
            values[r >> 1] += -units if r & 1 else units


def _initial_tree(frame: Frame, arcs, free: list[int]) -> list[int]:
    """Free arcs first, then tight arcs by (span, id), merged Kruskal-style; the sort is stable."""
    src, dst, span = arcs[0], arcs[1], [hi - lo for lo, hi in zip(frame.lower, frame.upper)]
    leader, tree, free_set = list(range(frame.node_count)), [], set(free)
    rest = sorted((a for a in range(len(src)) if a not in free_set), key=span.__getitem__)
    for arc_id in free + rest:
        x, y = _root(leader, src[arc_id]), _root(leader, dst[arc_id])
        if x != y:
            leader[x] = y
            tree.append(arc_id)
        elif arc_id in free_set:
            raise InvariantError("free arcs must form a forest after cancellation")
    return tree


def _pivot_to_optimal(frame: Frame, arcs, values, tree: list[int]):
    """Degenerate simplex pivots (Bland's rule) until no sign condition fails.

    Only zero-headroom swaps happen, so the flow never changes, the headrooms are one
    `residual_room` list and each movable arc off the tree stays at its bound, `at`.  A violating
    arc whose cycle still has headroom means the flow was not optimal, and those are left alone.
    Returns the tree's parent links, depths and potentials, rooted at node 0.

    A min-heap holds the non-tree arcs that violated when last tested (`queued` marks them), so
    every violating one is in it; pops, in ascending id order, are tested again, and the first that
    still violates with zero headroom enters.  A pivot walks again only the smaller side of the
    leaving arc's cut (`size` holds subtree sizes), hung from the entering arc.  Its potentials
    shift by one constant and its depths are renumbered; a tree fixes its cycles, and its potentials
    up to a constant, so the rooting changes no reduced cost and no choice.  Only an arc with one
    end on each side, the leaving arc included, can start to violate or see its cycle change, so a
    popped arc that no longer violates or still has headroom is dropped.  Seen from the walked side,
    a crossing arc's reduced cost moves by the shift, toward a violation in exactly one of the
    node's two `at` lists; only that list is tested again.  An unqueued arc of the other list
    violates afterward only if it already did, so it was popped violating with headroom, which only
    a flow that is not optimal allows.  Its cycle is unchanged since, as a cycle changes only when
    its arc crosses a cut and this argument then applies.  That cycle rode the leaving arc the way
    it has room, against the entering cycle, so the new one is the sum of two negative cycles: the
    arc moved toward a violation after all.

    Why the loop ends: shift each arc to `0 <= x <= span` and add a slack, `x + s = span`.  A tree
    arc has both basic; an arc at its lower bound has `x` nonbasic, one at its upper bound `s`, the
    complemented variable, and either's reduced cost is `at` times the arc's.  Of a blocking tree
    arc's pair the one that falls is 0 and leaves, so every pivot is degenerate; the entering arc's
    own slack falls from its span, never 0, as a fixed arc (`at` 0) never enters.  So an arc gives
    at most one entering and one leaving candidate, and with the variables ranked by arc id the
    least violating and least blocking ids are the choices of Bland ("New finite pivoting rules for
    the simplex method", 1977): no basis repeats, and there are finitely many.  His proof applies
    the entering rule only to variables that enter within a cycle of bases, never a fixed arc, and
    needs every violator eligible, as on an optimal flow, where no violator's cycle has headroom.
    Otherwise those with headroom are skipped, the proof fails there, and `_PIVOT_CAP` ends the loop.
    """
    src, dst, cost = arcs
    n, m, lower, upper = frame.node_count, len(src), frame.lower, frame.upper
    adjacency = _neighbours(n, arcs, tree)
    tables = parent_node, parent_arc, depth, potentials = [[-1] * n for _ in range(4)]
    rooted = _hang(adjacency, tables, 0)
    if len(rooted) < n:
        raise InvariantError("tree arcs must span the network")
    size = [1] * n  # nodes per subtree, summed child first
    for node in reversed(rooted[1:]):
        size[parent_node[node]] += size[node]
    room = residual_room(frame, values)
    # +1 at the lower bound, -1 at the upper, 0 fixed or strictly between: an
    # arc violates when at * reduced < 0, which a tree arc's 0 never does.
    at = [(value == lo) - (value == hi) for value, lo, hi in zip(values, lower, upper)]
    # Per node (neighbour, arc id, cost signed from the node), listed by `at`
    # signed from the node: +1 in the first list, -1 in the second.
    incident = [([], []) for _ in range(n)]
    for a in range(m):
        if at[a]:
            incident[src[a]][at[a] < 0].append((dst[a], a, cost[a]))
            incident[dst[a]][at[a] > 0].append((src[a], a, -cost[a]))
    # Ascending ids already form a heap.
    heap = [a for a in range(m) if at[a] * (cost[a] + potentials[src[a]] - potentials[dst[a]]) < 0]
    queued = [False] * m
    for arc_id in heap:
        queued[arc_id] = True
    stamp = [-1] * n  # the pivot that last walked the node
    for pivot in range(_PIVOT_CAP):
        while heap:
            entering = heappop(heap)
            queued[entering] = False
            sign = at[entering]
            if sign * (cost[entering] + potentials[src[entering]] - potentials[dst[entering]]) < 0:
                leaving = _least_blocking(src, dst, parent_node, parent_arc, depth, room, entering, sign)
                if leaving >= 0:
                    break  # else a genuinely negative cycle: the flow was not optimal
        else:
            if pivot:
                _hang(adjacency, tables, 0)
            return tables
        tail, head = src[entering], dst[entering]
        out_tail, out_head = src[leaving], dst[leaving]
        # The leaving arc cuts off the subtree below its deeper end; the
        # entering arc has exactly one end inside it.
        cut = out_tail if depth[out_tail] > depth[out_head] else out_head
        x = tail
        while depth[x] > depth[cut]:
            x = parent_node[x]
        inside, outside = (tail, head) if x == cut else (head, tail)
        adjacency[out_tail].remove((out_head, leaving, cost[leaving]))
        adjacency[out_head].remove((out_tail, leaving, -cost[leaving]))
        adjacency[tail].append((head, entering, cost[entering]))
        adjacency[head].append((tail, entering, -cost[entering]))
        step = cost[entering] if outside == tail else -cost[entering]
        cut_size = size[cut]
        if 2 * cut_size <= n:
            # S moves below `outside`: the chain above the leaving arc loses
            # it and the chain above `outside` gains it, up to where they meet.
            x, y = parent_node[cut], outside
            while x != y:
                if depth[x] >= depth[y]:
                    size[x] -= cut_size
                    x = parent_node[x]
                else:
                    size[y] += cut_size
                    y = parent_node[y]
            top, hung = inside, outside
        else:
            # S keeps its links under `cut`, now the root; R hangs below `inside`.
            parent_node[cut] = parent_arc[cut] = -1
            x = inside
            while x >= 0:
                size[x] += n - cut_size
                x = parent_node[x]
            top, hung, step = outside, inside, -step
        # The walked side's shift, the entering arc's reduced cost from `hung`, is not 0.
        shift = potentials[hung] + step - potentials[top]
        walked = _hang(adjacency, tables, top, hung, entering, step)
        for node in walked:
            size[node] = 1
            stamp[node] = pivot
        for node in reversed(walked[1:]):  # the first hangs from the other side
            size[parent_node[node]] += size[node]
        arc_at = -1 if shift > 0 else 1  # the list that moved toward a violation
        for node in walked:
            potential = potentials[node]
            for other, arc_id, arc_cost in incident[node][shift > 0]:
                if (stamp[other] != pivot and not queued[arc_id]
                        and arc_at * (arc_cost + potential - potentials[other]) < 0):
                    heappush(heap, arc_id)
                    queued[arc_id] = True
    raise PivotLimitError(f"tree pivoting passed its budget of {_PIVOT_CAP} pivots")


def to_tree_solution(net: Network, flow: Flow) -> tuple[Flow, TreeStructure]:
    """An equal-or-cheaper flow whose free arcs fit a spanning tree, plus the tree.

    Free cycles are canceled along their cheaper direction, so an optimal
    input keeps its cost, and the returned structure then certifies
    optimality: zero reduced cost on tree arcs, nonnegative on the lower
    set, nonpositive on the upper set.
    """
    validate_network(net)
    if not check_feasible(net, flow):
        raise InfeasibleFlowError("tree solutions exist for feasible flows only")
    return _tree_solution(net, frame_of(net), flow)


def _tree_solution(net: Network, frame: Frame, flow: Flow) -> tuple[Flow, TreeStructure]:
    """`to_tree_solution` on `net`'s frame, unchecked: `flow` must be feasible."""
    arcs = frame.tail[::2], frame.head[::2], frame.cost[::2]
    values = list(flow.values)
    tree = _initial_tree(frame, arcs, _cancel_free_cycles(frame, arcs, values))
    parent_node, parent_arc, depth, potentials = _pivot_to_optimal(frame, arcs, values, tree)
    tree_arcs = tuple(sorted(parent_arc[1:]))  # node 0 is the root
    nontree = frozenset(range(net.arc_count)).difference(tree_arcs)
    lower_set = frozenset(a for a in nontree if values[a] == frame.lower[a])
    structure = TreeStructure(net, tree_arcs, lower_set, nontree - lower_set,
                              *map(tuple, (potentials, parent_node, parent_arc, depth)))
    return Flow(tuple(values)), structure


def _nontree_ids(ts: TreeStructure, arc_ids) -> list[int]:
    """The ids in order, each checked to name a non-tree arc and to appear once."""
    seen: dict[int, None] = {}
    for arc_id in arc_ids:
        if ts.is_tree_arc(arc_id):  # raises for an id out of range
            raise ArcInTreeError(f"arc {arc_id} is a tree arc")
        if arc_id in seen:
            raise ValueError(f"arc id {arc_id} is listed twice")
        seen[arc_id] = None
    return list(seen)


def _induced_cycles(ts: TreeStructure, arc_ids) -> list[InducedCycle]:
    """The cycle each non-tree arc in `arc_ids` closes, oriented by its lower/upper side; the
    ids are checked once, and every cycle read over one frame."""
    frame = frame_of(ts.network)
    links = frame.tail[::2], frame.head[::2], ts.parent_node, ts.parent_arc, ts.depth
    return [InducedCycle(arc_id, tuple((r >> 1, -1 if r & 1 else 1)
                                       for r in _cycle(*links, arc_id, 1 if arc_id in ts.lower_set else -1)))
            for arc_id in _nontree_ids(ts, arc_ids)]


def induced_cycle_capacities(ts: TreeStructure, flow: Flow, arc_ids) -> list[int]:
    """Per non-tree arc in `arc_ids`, the largest augmentation its induced cycle admits at this flow."""
    _require_dimensions(ts.network, flow)
    if any(not arc.lower <= value <= arc.upper for arc, value in zip(ts.network.arcs, flow.values)):
        raise InfeasibleFlowError("cycle capacities exist for flows within the arc bounds only")
    return _capacities(ts, frame_of(ts.network), flow.values, arc_ids)


def _capacities(ts: TreeStructure, frame: Frame, values, arc_ids) -> list[int]:
    """`induced_cycle_capacities` on the frame of `ts.network`, unchecked: `values` must fit its bounds."""
    room = residual_room(frame, values)
    links = frame.tail[::2], frame.head[::2], ts.parent_node, ts.parent_arc, ts.depth, room
    return [_least_room(*links, arc_id, 1 if arc_id in ts.lower_set else -1)
            for arc_id in _nontree_ids(ts, arc_ids)]


def _certified_costs(ts: TreeStructure, frame: Frame, values) -> list[int]:
    """Each arc's reduced cost under the tree potentials, checked to certify `values` optimal."""
    potentials, reduced = ts.potentials, []
    for arc, (tail, head, cost) in enumerate(zip(frame.tail[::2], frame.head[::2], frame.cost[::2])):
        reduced.append(cost + potentials[tail] - potentials[head])
        if reduced[arc] and values[arc] != (frame.lower if reduced[arc] > 0 else frame.upper)[arc]:
            raise InvariantError(f"the tree potentials do not certify the flow optimal on arc {arc}")
    return reduced


def zero_cost_nontree_set(ts: TreeStructure) -> tuple[int, ...]:
    """Non-tree arcs with zero reduced cost under the tree potentials."""
    return tuple(
        a for a in sorted(ts.lower_set | ts.upper_set) if ts.reduced_cost(a) == 0
    )


def count_upper_bound(ts: TreeStructure, zero_arcs) -> int:
    """max(1, product of (span + 1)) over the basis arcs, capped at 2**63 - 1."""
    return _span_product(ts.network, _nontree_ids(ts, zero_arcs))


def _span_product(net: Network, arc_ids) -> int:
    """`count_upper_bound` over ids already checked."""
    total = 1
    for arc_id in arc_ids:
        total *= net.arcs[arc_id].span + 1
        if total > COUNT_CAP:
            return COUNT_CAP
    return total


def count_lower_bound(ts: TreeStructure, zero_arcs, flow: Flow) -> int:
    """max(1, sum of induced-cycle capacities) over the basis arcs."""
    return max(1, sum(induced_cycle_capacities(ts, flow, zero_arcs)))


def feasible_count_bounds(ts: TreeStructure, flow: Flow) -> tuple[int, int]:
    """Same bound formulas taken over every non-tree arc."""
    nontree = tuple(sorted(ts.lower_set | ts.upper_set))
    return count_lower_bound(ts, nontree, flow), count_upper_bound(ts, nontree)


def decompose_cycle(ts: TreeStructure, walk: Sequence[tuple[int, int]]) -> list[InducedCycle]:
    """Induced cycles of the walk's non-tree arcs.

    The symmetric difference of their arc sets reproduces the walk's arc
    set.  The walk must be a closed chain of (arc id, sign) steps, each non-tree arc once.
    """
    if not walk:
        raise CycleEntirelyInTreeError("empty cycle")
    net = ts.network
    head = None
    first_tail = None
    for arc_id, sign in walk:
        _in_range(net, arc_id)
        if type(sign) is not int or sign not in (1, -1):  # not 1.0 or True either
            raise ValueError(f"step sign {sign} is not 1 or -1")
        arc = net.arcs[arc_id]
        tail, tip = (arc.src, arc.dst) if sign > 0 else (arc.dst, arc.src)
        if head is None:
            first_tail = tail
        elif tail != head:
            raise ValueError("walk arcs do not chain")
        head = tip
    if head != first_tail:
        raise ValueError("walk is not closed")
    nontree = [arc_id for arc_id, _ in walk if not ts.is_tree_arc(arc_id)]
    if not nontree:
        raise CycleEntirelyInTreeError("every arc of the cycle lies in the tree")
    return _induced_cycles(ts, nontree)


def incidence_sum_check(ts: TreeStructure, cycle: Cycle) -> bool:
    """Do the cycle's incidence vector and cost equal the induced-cycle sums?"""
    net = ts.network
    arc_count = net.arc_count
    chi = cycle.incidence(arc_count)
    total_chi = [0] * arc_count
    total_cost = 0
    for part in _induced_cycles(ts, [a for a in range(arc_count) if chi[a] and not ts.is_tree_arc(a)]):
        for member, sign in part.members:
            total_chi[member] += sign
        total_cost += part.cost(net)
    return tuple(total_chi) == chi and total_cost == cycle_cost(cycle)


def express_in_cycle_basis(ts: TreeStructure, flow: Flow, other: Flow):
    """Coordinates of `other` over the zero-cost induced cycles.

    Returns {arc id: coefficient} with 0 <= coefficient <= span for every
    basis arc, or None when `other` cannot be written that way (it is not
    an optimal flow for this structure).  Raises InfeasibleFlowError when
    the base `flow` is not feasible.
    """
    net = ts.network
    _require_dimensions(net, other)
    if not check_feasible(net, flow):
        raise InfeasibleFlowError("cycle-basis coordinates exist around a feasible flow only")
    coefficients: dict[int, int] = {}
    for arc_id in zero_cost_nontree_set(ts):
        delta = other.values[arc_id] - flow.values[arc_id]
        coefficient = delta if arc_id in ts.lower_set else -delta
        if not 0 <= coefficient <= net.arcs[arc_id].span:
            return None
        coefficients[arc_id] = coefficient
    rebuilt = list(flow.values)
    for part in _induced_cycles(ts, [arc_id for arc_id, coefficient in coefficients.items() if coefficient]):
        for member, sign in part.members:
            rebuilt[member] += coefficients[part.arc] * sign
    if tuple(rebuilt) != other.values:
        return None
    if not check_feasible(net, Flow(tuple(rebuilt))):
        return None
    return coefficients
