"""Spanning-tree flow structures: induced cycles, count bounds, cycle basis.

A tree solution pins every non-tree arc at one of its capacity bounds; each
non-tree arc then induces exactly one cycle through the tree.  The induced
cycles with zero reduced cost form a basis for all optimal flows, which is
what the count bounds and the coordinate extraction below exploit.

One undirected depth-first walk, `_walk`, finds the free cycles to cancel,
roots the first tree at node 0, and after each pivot walks again only the
smaller side of the leaving arc's cut, as subtree sizes tell (Ahuja,
Magnanti and Orlin, Network Flows, ch. 11).  Pivots follow Bland's rule,
the least violating arc id first, taken from a min-heap of violating arcs:
a pivot shifts the potentials of the walked side by one constant, so only
the arcs across the cut are tested again.  Every induced cycle, free
cycle and pivot cycle is read by one climb of the parent links, `_cycle`.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Sequence

from .core import Cycle, Flow, Network, _require_dimensions, check_feasible, cycle_cost, validate_network
from .errors import (
    ArcInTreeError,
    CycleEntirelyInTreeError,
    InfeasibleFlowError,
    InvariantError,
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
        arc = self.network.arcs[arc_id]
        return arc.cost + self.potentials[arc.src] - self.potentials[arc.dst]

    def is_tree_arc(self, arc_id: int) -> bool:
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

    def incidence(self, arc_count: int) -> tuple[int, ...]:
        chi = [0] * arc_count
        for arc_id, sign in self.members:
            chi[arc_id] += sign
        return tuple(chi)

    def cost(self, net: Network) -> int:
        return sum(sign * net.arcs[arc_id].cost for arc_id, sign in self.members)


def _headroom(net: Network, values, arc_id: int, sign: int) -> int:
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


def _walk(net: Network, adjacency, tables, seen, node: int, parent: int = -1, via: int = -1):
    """Depth-first walk from `node`, entered from `parent` by arc `via`.

    Every node reached without crossing `via` gets its parent link, depth
    and potential in `tables` and is added to the dict `seen`, so that
    `list(seen)` ends with this walk's pre-order; others keep theirs.
    Neighbours are taken in adjacency order.  Returns the first arc that
    leads back to a node in `seen`, which closes a cycle, or None when the
    part reached is a tree.
    """
    parent_node, parent_arc, depth, potentials = tables
    stack = [(node, parent, via)]
    while stack:
        node, parent, via = stack.pop()
        if node in seen:
            return via
        seen[node] = None
        parent_node[node] = parent
        parent_arc[node] = via
        if parent < 0:
            depth[node] = potentials[node] = 0
        else:
            arc = net.arcs[via]
            depth[node] = depth[parent] + 1
            potentials[node] = potentials[parent] + (arc.cost if arc.src == parent else -arc.cost)
        # Reversed, so neighbours pop in adjacency order.
        for other, arc_id in reversed(adjacency[node]):
            if arc_id != via:
                stack.append((other, node, arc_id))
    return None


def _cycle(arcs, parent_node, parent_arc, depth, arc_id: int, sign: int):
    """Signed members of the cycle that non-tree arc `arc_id` closes through the tree.

    `(arc_id, sign)` comes first, then the tree path from the arc's head
    back to its tail: the steps climbing from the head, then those going
    down to the tail.  A step carries `sign` when the path rides its tree
    arc in the arc's own direction, `-sign` when it opposes it.  This is
    the module's only climb of the parent links.
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


def _find_free_cycle(net: Network, free):
    """Signed cycle through arcs that sit strictly between their bounds, as `_cycle` lists it."""
    adjacency = _adjacency(net, free)
    tables = parent_node, parent_arc, depth, _ = [[-1] * net.node_count for _ in range(4)]
    seen: dict[int, None] = {}
    for root in range(net.node_count):
        # A node no free arc touches is a tree on its own.
        if root in seen or not adjacency[root]:
            continue
        closing = _walk(net, adjacency, tables, seen, root)
        if closing is not None:
            # The closing arc leads back to an ancestor of its deeper end.
            arc = net.arcs[closing]
            sign = 1 if depth[arc.src] < depth[arc.dst] else -1
            return _cycle(net.arcs, parent_node, parent_arc, depth, closing, sign)
    return None


def _cancel_free_cycles(net: Network, values) -> list[int]:
    """Cancel free cycles in place; returns the free arcs left, a forest."""
    while True:
        free = [
            a for a in range(net.arc_count)
            if net.arcs[a].lower < values[a] < net.arcs[a].upper
        ]
        walk = _find_free_cycle(net, free)
        if walk is None:
            return free
        walk_cost = sum(sign * net.arcs[arc_id].cost for arc_id, sign in walk)
        if walk_cost > 0:
            walk = [(arc_id, -sign) for arc_id, sign in walk]
        room = min(_headroom(net, values, arc_id, sign) for arc_id, sign in walk)
        for arc_id, sign in walk:
            values[arc_id] += sign * room


def _initial_tree(net: Network, free: list[int]) -> list[int]:
    """Free arcs first, then tight arcs by (span, id), merged Kruskal-style."""
    leader = list(range(net.node_count))

    def find(x: int) -> int:
        while leader[x] != x:
            leader[x] = leader[leader[x]]
            x = leader[x]
        return x

    def union(x: int, y: int) -> bool:
        x, y = find(x), find(y)
        if x == y:
            return False
        leader[x] = y
        return True

    tree = []
    for arc_id in free:
        if not union(net.arcs[arc_id].src, net.arcs[arc_id].dst):
            raise InvariantError("free arcs must form a forest after cancellation")
        tree.append(arc_id)
    free_set = set(free)
    rest = sorted(
        (a for a in range(net.arc_count) if a not in free_set),
        key=lambda a: (net.arcs[a].span, a),
    )
    for arc_id in rest:
        if union(net.arcs[arc_id].src, net.arcs[arc_id].dst):
            tree.append(arc_id)
    return tree


def _pivot_to_optimal(net: Network, values, tree: list[int]):
    """Degenerate simplex pivots (Bland's rule) until no sign condition fails.

    Only zero-headroom swaps happen, so the flow never changes; a violating
    arc whose cycle still has headroom means the flow was not optimal, and
    those are left alone.  Returns tree membership by arc id and the tree's
    parent links, depths and potentials, rooted at node 0.

    Bland's rule enters the least arc id that violates its sign condition
    and whose cycle has zero headroom.  Rather than rescan every arc after
    each pivot, a min-heap holds the non-tree arcs that violated when last
    tested (`queued` marks them), so that every violating non-tree arc is
    in it.  Pops come in ascending id order and are tested again when
    popped; the first that still violates and has zero headroom is Bland's
    choice.  A pivot walks again only the smaller side of the leaving arc's
    cut, as the subtree sizes in `size` tell, hung from the entering arc;
    if that side holds the root, the other side's top becomes the root.
    The walked side's potentials shift by one constant and its depths are
    renumbered, both consistent along parent links; a tree fixes its cycles
    and its potentials up to a constant, so the rooting changes neither
    reduced costs nor Bland's choices.  An arc can start to violate, or see
    its cycle change, only when it has one end on each side, the leaving arc
    included; those are tested again after the pivot.  Every other arc keeps
    its reduced cost and its cycle, so a popped arc that no longer violates
    or still has headroom can be dropped.  The final tree is rooted at node
    0 again.
    """
    arcs = net.arcs
    n = net.node_count
    adjacency = _adjacency(net, tree)
    tables = parent_node, parent_arc, depth, potentials = [[-1] * n for _ in range(4)]
    rooted: dict[int, None] = {}
    _walk(net, adjacency, tables, rooted, 0)
    if len(rooted) < n:
        raise InvariantError("tree arcs must span the network")
    size = [1] * n  # nodes per subtree, summed child first
    for node in reversed(list(rooted)[1:]):
        size[parent_node[node]] += size[node]
    in_tree = [False] * net.arc_count
    for arc_id in tree:
        in_tree[arc_id] = True
    # Arcs fixed at lower == upper never enter the tree.
    movable = [a for a in range(net.arc_count) if arcs[a].lower < arcs[a].upper]
    incident = _adjacency(net, movable)

    def orientation(arc_id: int) -> int:
        """+1 or -1 along which a sign-violating arc would push; 0 if it does not violate."""
        arc = arcs[arc_id]
        reduced = arc.cost + potentials[arc.src] - potentials[arc.dst]
        if values[arc_id] == arc.lower and reduced < 0:
            return 1
        if values[arc_id] == arc.upper and reduced > 0:
            return -1
        return 0

    # Ascending ids already form a heap.
    heap = [a for a in movable if not in_tree[a] and orientation(a)]
    queued = [False] * net.arc_count
    for arc_id in heap:
        queued[arc_id] = True
    for pivot in range(_PIVOT_CAP):
        while heap:
            entering = heappop(heap)
            queued[entering] = False
            sign = orientation(entering)
            if not sign:
                continue
            members = _cycle(arcs, parent_node, parent_arc, depth, entering, sign)
            rooms = [_headroom(net, values, e, s) for e, s in members]
            if min(rooms) > 0:
                continue  # a genuinely negative cycle: the flow was not optimal
            break
        else:
            if pivot:
                _walk(net, adjacency, tables, {}, 0)
            return in_tree, tables
        leaving = min(e for (e, _), room in zip(members, rooms) if e != entering and room == 0)
        arc, out = arcs[entering], arcs[leaving]
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
        moved: dict[int, None] = {}
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
            _walk(net, adjacency, tables, moved, inside, outside, entering)
        else:
            # S keeps its links under `cut`, now the root; R hangs below `inside`.
            parent_node[cut] = parent_arc[cut] = -1
            x = inside
            while x >= 0:
                size[x] += n - cut_size
                x = parent_node[x]
            _walk(net, adjacency, tables, moved, outside, inside, entering)
        walked = list(moved)
        for node in walked:
            size[node] = 1
        for node in reversed(walked[1:]):  # the first hangs from the other side
            size[parent_node[node]] += size[node]
        for node in moved:
            for other, arc_id in incident[node]:
                if queued[arc_id] or in_tree[arc_id] or other in moved:
                    continue
                if orientation(arc_id):
                    heappush(heap, arc_id)
                    queued[arc_id] = True
    raise InvariantError("tree pivoting did not terminate")


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
    values = list(flow.values)
    tree = _initial_tree(net, _cancel_free_cycles(net, values))
    in_tree, (parent_node, parent_arc, depth, potentials) = _pivot_to_optimal(net, values, tree)
    lower_set = frozenset(
        a for a in range(net.arc_count)
        if not in_tree[a] and values[a] == net.arcs[a].lower
    )
    upper_set = frozenset(
        a for a in range(net.arc_count)
        if not in_tree[a] and a not in lower_set
    )
    structure = TreeStructure(
        net,
        tuple(a for a in range(net.arc_count) if in_tree[a]),
        lower_set,
        upper_set,
        tuple(potentials),
        tuple(parent_node),
        tuple(parent_arc),
        tuple(depth),
    )
    return Flow(tuple(values)), structure


def _induced_members(ts: TreeStructure, arc_id: int):
    """`_cycle` of a non-tree arc, oriented by its lower/upper side."""
    if not 0 <= arc_id < ts.network.arc_count:
        raise ValueError(f"arc id {arc_id} is out of range")
    if ts.is_tree_arc(arc_id):
        raise ArcInTreeError(f"arc {arc_id} is a tree arc")
    sign = 1 if arc_id in ts.lower_set else -1
    return _cycle(ts.network.arcs, ts.parent_node, ts.parent_arc, ts.depth, arc_id, sign)


def induced_cycle(ts: TreeStructure, arc_id: int) -> InducedCycle:
    """The cycle closed by a non-tree arc, oriented by its lower/upper side."""
    return InducedCycle(arc_id, tuple(_induced_members(ts, arc_id)))


def induced_cycle_capacity(ts: TreeStructure, flow: Flow, cycle: InducedCycle) -> int:
    """Largest augmentation the cycle's orientation admits at this flow."""
    _require_dimensions(ts.network, flow)
    return min(_headroom(ts.network, flow.values, e, s) for e, s in cycle.members)


def _cycle_capacity(ts: TreeStructure, values, arc_id: int) -> int:
    """`induced_cycle_capacity` of the arc's induced cycle, without building an `InducedCycle`."""
    return min(_headroom(ts.network, values, e, s) for e, s in _induced_members(ts, arc_id))


def zero_cost_nontree_set(ts: TreeStructure) -> tuple[int, ...]:
    """Non-tree arcs with zero reduced cost under the tree potentials."""
    return tuple(
        a for a in sorted(ts.lower_set | ts.upper_set) if ts.reduced_cost(a) == 0
    )


def count_upper_bound(ts: TreeStructure, zero_arcs) -> int:
    """max(1, product of (span + 1)) over the basis arcs, capped at 2**63 - 1."""
    total = 1
    for arc_id in zero_arcs:
        total *= ts.network.arcs[arc_id].span + 1
        if total > COUNT_CAP:
            return COUNT_CAP
    return max(1, total)


def count_lower_bound(ts: TreeStructure, zero_arcs, flow: Flow, reading: str = "max") -> int:
    """Sum of induced-cycle capacities over the basis arcs.

    The "max" reading returns max(1, sum); "min" returns min(1, sum), which
    is vacuous but reported alongside for comparison.
    """
    _require_dimensions(ts.network, flow)
    total = sum(_cycle_capacity(ts, flow.values, a) for a in zero_arcs)
    if reading == "max":
        return max(1, total)
    if reading == "min":
        return min(1, total)
    raise ValueError(f"unknown reading {reading!r}")


def feasible_count_bounds(ts: TreeStructure, flow: Flow) -> tuple[int, int]:
    """Same bound formulas taken over every non-tree arc."""
    nontree = tuple(sorted(ts.lower_set | ts.upper_set))
    return count_lower_bound(ts, nontree, flow), count_upper_bound(ts, nontree)


def decompose_cycle(ts: TreeStructure, walk: Sequence[tuple[int, int]]) -> list[InducedCycle]:
    """Induced cycles of the walk's non-tree arcs.

    The symmetric difference of their arc sets reproduces the walk's arc
    set.  The walk is validated as a closed chain of (arc id, sign) steps.
    """
    if not walk:
        raise CycleEntirelyInTreeError("empty cycle")
    net = ts.network
    head = None
    first_tail = None
    for arc_id, sign in walk:
        if not 0 <= arc_id < net.arc_count:
            raise ValueError(f"arc id {arc_id} is out of range")
        if sign not in (1, -1):
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
    return [induced_cycle(ts, arc_id) for arc_id in nontree]


def incidence_sum_check(ts: TreeStructure, cycle: Cycle) -> bool:
    """Do the cycle's incidence vector and cost equal the induced-cycle sums?"""
    net = ts.network
    arc_count = net.arc_count
    chi = cycle.incidence(arc_count)
    total_chi = [0] * arc_count
    total_cost = 0
    for arc_id in range(arc_count):
        if chi[arc_id] == 0 or ts.is_tree_arc(arc_id):
            continue
        part = induced_cycle(ts, arc_id)
        for member, sign in part.members:
            total_chi[member] += sign
        total_cost += part.cost(net)
    return tuple(total_chi) == chi and total_cost == cycle_cost(cycle)


def express_in_cycle_basis(ts: TreeStructure, flow: Flow, other: Flow):
    """Coordinates of `other` over the zero-cost induced cycles.

    Returns {arc id: coefficient} with 0 <= coefficient <= span for every
    basis arc, or None when `other` cannot be written that way (it is not
    an optimal flow for this structure).
    """
    net = ts.network
    _require_dimensions(net, flow)
    _require_dimensions(net, other)
    coefficients: dict[int, int] = {}
    for arc_id in zero_cost_nontree_set(ts):
        delta = other.values[arc_id] - flow.values[arc_id]
        coefficient = delta if arc_id in ts.lower_set else -delta
        if not 0 <= coefficient <= net.arcs[arc_id].span:
            return None
        coefficients[arc_id] = coefficient
    rebuilt = list(flow.values)
    for arc_id, coefficient in coefficients.items():
        if coefficient == 0:
            continue
        for member, sign in induced_cycle(ts, arc_id).members:
            rebuilt[member] += coefficient * sign
    if tuple(rebuilt) != other.values:
        return None
    if not check_feasible(net, Flow(tuple(rebuilt))):
        return None
    return coefficients
