"""Networks, integer flows, residual graphs, and cycles.

Everything is exact integer arithmetic.  Arc `a`'s residual arcs have ids
`2a` (forward) and `2a + 1` (backward), and id `r` reverses `r ^ 1`, so each
remembers its original arc and parallel or anti-parallel arcs stay
unambiguous: a cycle is "proper" exactly when it never uses both residual
directions of one original arc.  Every layer reads the residual graph
through these ids and one `Frame` per instance, which `frame_of` builds
once: per id its head, tail, arc and cost, per node the ids leaving it, and per
arc the bounds a search region narrows.  The solver, Bellman-Ford, the searches
and the tree code share the solver's frame; `residual_room` reads
a flow's spare units within its bounds and `push_unit` moves one unit around
a cycle of ids.  `_root` is the one union-find (K-best's free-arc groups, the
tree code's Kruskal start) and `_path` the one walk back along predecessor ids
(the solver's augmenting paths, K-best's traced cycle, the DFS tree paths).
`ResidualGraph` spells the same graph out as objects.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from operator import sub

from .errors import (
    BadBoundsError,
    DimensionMismatchError,
    DisconnectedError,
    InfeasibleFlowError,
    InfiniteCapacityError,
    InvariantError,
    NetworkValidationError,
    UnbalancedSupplyError,
)


@dataclass(frozen=True, init=False)
class Arc:
    """Directed arc with integer ends, capacity bounds and cost.  Its own `__init__` stores the
    fields as a frozen dataclass would, then checks them; `dataclasses.replace` runs it too."""

    src: int
    dst: int
    lower: int
    upper: int
    cost: int

    def __init__(self, src: int, dst: int, lower: int, upper: int, cost: int) -> None:
        store = object.__setattr__
        store(self, "src", src)
        store(self, "dst", dst)
        store(self, "lower", lower)
        store(self, "upper", upper)
        store(self, "cost", cost)
        # `type(...) is int` also turns away bool, which is an int subclass.
        if not type(lower) is type(upper) is int:
            raise InfiniteCapacityError(f"capacities must be finite integers, got {self}")
        if not type(src) is type(dst) is type(cost) is int:
            raise NetworkValidationError(f"arc ends and costs must be integers, got {self}")
        if src == dst:
            raise NetworkValidationError(f"self-loop on node {src}")
        if not 0 <= lower <= upper:
            raise BadBoundsError(f"arc ({src},{dst}) requires 0 <= lower <= upper, got [{lower},{upper}]")

    @property
    def span(self) -> int:
        return self.upper - self.lower


@dataclass(frozen=True)
class Network:
    """Immutable arc-list network with per-node balances."""

    node_count: int
    arcs: tuple[Arc, ...]
    balances: tuple[int, ...]

    def __post_init__(self) -> None:
        arcs, balances, node_count = tuple(self.arcs), tuple(self.balances), self.node_count
        object.__setattr__(self, "arcs", arcs)
        object.__setattr__(self, "balances", balances)
        if type(node_count) is not int:
            raise NetworkValidationError(f"node_count must be an integer, got {node_count!r}")
        if node_count < 1:
            raise NetworkValidationError("a network needs at least one node")
        if len(balances) != node_count:
            raise NetworkValidationError(f"{node_count} nodes but {len(balances)} balances")
        # Exact types, as `Flow` checks its values: an exact `Arc` has passed `Arc.__init__`.
        if not set(map(type, balances)) <= {int}:
            bad = next(value for value in balances if type(value) is not int)
            raise NetworkValidationError(f"balances must be integers, got {bad!r}")
        if not set(map(type, arcs)) <= {Arc}:
            bad = next(arc for arc in arcs if type(arc) is not Arc)
            raise NetworkValidationError(f"arcs must be Arc instances, got {bad!r}")
        for arc in arcs:
            if not (0 <= arc.src < node_count and 0 <= arc.dst < node_count):
                raise NetworkValidationError(f"arc endpoint out of range: {arc}")

    @property
    def arc_count(self) -> int:
        return len(self.arcs)


def validate_network(net: Network) -> None:
    """Raise unless the supplies balance and the network is connected; `Network` checks each value."""
    if sum(net.balances) != 0:
        raise UnbalancedSupplyError(f"balances sum to {sum(net.balances)}, expected 0")
    if net.node_count > 1:
        adjacent: list[list[int]] = [[] for _ in range(net.node_count)]
        for arc in net.arcs:
            adjacent[arc.src].append(arc.dst)
            adjacent[arc.dst].append(arc.src)
        seen = {0}
        queue = deque([0])
        while queue:
            node = queue.popleft()
            for other in adjacent[node]:
                if other not in seen:
                    seen.add(other)
                    queue.append(other)
        if len(seen) != net.node_count:
            raise DisconnectedError(
                f"underlying undirected graph is disconnected "
                f"({len(seen)} of {net.node_count} nodes reachable)"
            )


@dataclass(frozen=True)
class Flow:
    """Integer flow values indexed by arc id."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        # Exact types, as in `Arc`: floats and bools are turned away.
        if not set(map(type, self.values)) <= {int}:
            raise InfeasibleFlowError(f"flow values must be integers, got {self.values}")


def _require_dimensions(net: Network, flow: Flow) -> None:
    if len(flow.values) != net.arc_count:
        raise DimensionMismatchError(
            f"flow has {len(flow.values)} values for {net.arc_count} arcs"
        )


def check_feasible(net: Network, flow: Flow) -> bool:
    """True iff the flow meets every capacity bound and node balance."""
    _require_dimensions(net, flow)
    for arc, value in zip(net.arcs, flow.values):
        if not arc.lower <= value <= arc.upper:
            return False
    net_out = [0] * net.node_count
    for arc, value in zip(net.arcs, flow.values):
        net_out[arc.src] += value
        net_out[arc.dst] -= value
    return all(net_out[i] == net.balances[i] for i in range(net.node_count))


def flow_cost(net: Network, flow: Flow) -> int:
    """Total cost of the flow: sum of arc cost times arc value."""
    _require_dimensions(net, flow)
    return sum(arc.cost * value for arc, value in zip(net.arcs, flow.values))


@dataclass(frozen=True)
class ResidualArc:
    """One direction of spare capacity left on an original arc."""

    src: int
    dst: int
    residual_capacity: int
    cost: int
    origin_arc: int
    forward: bool


@dataclass(frozen=True)
class ResidualGraph:
    node_count: int
    arcs: tuple[ResidualArc, ...]
    out_arcs: tuple[tuple[int, ...], ...]


@dataclass
class Frame:
    """One instance's per-id views, built once, and per-arc bounds that a search narrows in place."""

    node_count: int
    head: list[int]            # per residual id r, the node it enters
    tail: list[int]            # per residual id r, the node it leaves: head[r ^ 1]
    origin: list[int]          # per residual id r, its arc r >> 1
    cost: list[int]            # arc a's cost on 2a, negated on 2a + 1
    incident: list[list[int]]  # per node, the residual ids leaving it
    lower: list[int]
    upper: list[int]


def frame_of(net: Network) -> Frame:
    """`net`'s frame.  `incident` lists out-arcs' forward ids, then in-arcs' backward ids: the
    Dijkstras keep the first of equally short paths, so their tie-breaks depend on this order."""
    arcs = net.arcs
    src, dst = [arc.src for arc in arcs], [arc.dst for arc in arcs]
    costs = [arc.cost for arc in arcs]
    head, tail, origin, cost = ([0] * (2 * len(arcs)) for _ in range(4))
    head[::2] = tail[1::2] = dst
    head[1::2] = tail[::2] = src
    origin[::2] = origin[1::2] = range(len(arcs))
    cost[::2], cost[1::2] = costs, [-each for each in costs]
    incident: list[list[int]] = [[] for _ in range(net.node_count)]
    for index in chain(range(0, len(tail), 2), range(1, len(tail), 2)):
        incident[tail[index]].append(index)
    return Frame(net.node_count, head, tail, origin, cost, incident,
                 [arc.lower for arc in arcs], [arc.upper for arc in arcs])


def residual_room(frame: Frame, values) -> list[int]:
    """Per residual id, `values`' spare units: upper - value on 2a, value - lower on 2a + 1."""
    room = [0] * (2 * len(frame.lower))
    room[::2], room[1::2] = map(sub, frame.upper, values), map(sub, values, frame.lower)
    return room


def push_unit(frame: Frame, values, ids: list[int]) -> Flow:
    """`values` plus one unit around a closed cycle of residual ids, each arc used once."""
    head, lower, upper = frame.head, frame.lower, frame.upper
    if not ids or len({index >> 1 for index in ids}) < len(ids):
        raise InvariantError(f"the cycle {ids} is empty or uses an arc twice")
    values = list(values)
    for index, after in zip(ids, ids[1:] + ids[:1]):
        if head[index] != head[after ^ 1]:
            raise InvariantError(f"the cycle {ids} does not close after id {index}")
        arc = index >> 1
        values[arc] += -1 if index & 1 else 1
        if not lower[arc] <= values[arc] <= upper[arc]:
            raise InvariantError(f"the cycle pushes arc {arc} past its bounds")
    return Flow(values)


def _root(leader: list[int], node: int) -> int:
    """The root of `node`'s union-find tree, halving the path on the way."""
    while leader[node] != node:
        leader[node] = node = leader[leader[node]]
    return node


def _path(tail, pred, start: int, node: int) -> list[int]:
    """The ids of the `pred` path from start to node, last id first: `pred[v]` entered v."""
    path = []
    while node != start:
        path.append(pred[node])
        node = tail[pred[node]]
    return path


def build_residual(net: Network, flow: Flow) -> ResidualGraph:
    """Residual graph of a feasible flow, its arcs in ascending residual id order."""
    if not check_feasible(net, flow):
        raise InfeasibleFlowError("cannot build the residual graph of an infeasible flow")
    frame = frame_of(net)
    head, cost, room = frame.head, frame.cost, residual_room(frame, flow.values)
    arcs = [ResidualArc(head[index ^ 1], head[index], spare, cost[index], index >> 1,
                        not index & 1) for index, spare in enumerate(room) if spare]
    out_lists: list[list[int]] = [[] for _ in range(net.node_count)]
    for index, res in enumerate(arcs):
        out_lists[res.src].append(index)
    return ResidualGraph(net.node_count, tuple(arcs), tuple(tuple(lst) for lst in out_lists))


@dataclass(frozen=True)
class Cycle:
    """Closed directed walk of residual arcs."""

    arcs: tuple[ResidualArc, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "arcs", tuple(self.arcs))
        if not self.arcs:
            raise ValueError("a cycle needs at least one arc")
        for here, there in zip(self.arcs, self.arcs[1:] + self.arcs[:1]):
            if here.dst != there.src:
                raise ValueError("cycle arcs do not chain into a closed walk")

    def is_proper(self) -> bool:
        """No original arc used in both residual directions."""
        directions: dict[int, bool] = {}
        for res in self.arcs:
            if directions.setdefault(res.origin_arc, res.forward) != res.forward:
                return False
        return True

    def incidence(self, arc_count: int) -> tuple[int, ...]:
        """Signed traversal count per original arc id."""
        chi = [0] * arc_count
        for res in self.arcs:
            chi[res.origin_arc] += 1 if res.forward else -1
        return tuple(chi)


def cycle_cost(cycle: Cycle) -> int:
    """Sum of residual costs along the cycle."""
    return sum(res.cost for res in cycle.arcs)
