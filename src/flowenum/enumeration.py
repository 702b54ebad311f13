"""All-optimal-flow enumeration by binary partition of the solution space.

The network is reduced once: arcs with nonzero reduced cost are frozen at
the initial optimum and dropped, balances absorb their flow, and every
feasible flow of what remains extends to an optimal flow of the original
network.  Each discovered flow then splits its search region into two
disjoint halves on the first arc where it differs from the region's
witness, so no flow is ever produced twice.  A region is simply the reduced
network with some capacity bounds tightened.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

from .core import Flow, Network, validate_network
from .dfs import find_another_feasible_flow
from .errors import IdenticalFlowsError
from .solver import compute_node_potentials, compute_reduced_costs, solve_min_cost_flow


@dataclass
class EnumerationStats:
    another_flow_calls: int = 0


@dataclass(frozen=True)
class ReducedNetwork:
    base: Network
    kept_arcs: tuple[int, ...]
    removed_arcs: tuple[int, ...]
    balances: tuple[int, ...]
    network: Network


def reduce_network(net: Network, flow: Flow, reduced_costs) -> ReducedNetwork:
    """Restrict to zero-reduced-cost arcs; balances absorb the frozen flow."""
    kept = tuple(a for a in range(net.arc_count) if reduced_costs[a] == 0)
    removed = tuple(a for a in range(net.arc_count) if reduced_costs[a] != 0)
    balances = list(net.balances)
    for index in removed:
        arc = net.arcs[index]
        balances[arc.src] -= flow.values[index]
        balances[arc.dst] += flow.values[index]
    inner = Network(net.node_count, tuple(net.arcs[a] for a in kept), tuple(balances))
    return ReducedNetwork(net, kept, removed, tuple(balances), inner)


def restrict_flow(reduced: ReducedNetwork, flow: Flow) -> Flow:
    return Flow(tuple(flow.values[a] for a in reduced.kept_arcs))


def splice_flow(reduced: ReducedNetwork, base_flow: Flow, inner_flow: Flow) -> Flow:
    """Inner flow on the kept arcs, the frozen base flow everywhere else."""
    values = list(base_flow.values)
    for position, arc_id in enumerate(reduced.kept_arcs):
        values[arc_id] = inner_flow.values[position]
    return Flow(tuple(values))


def find_another_optimal_flow(net: Network, flow: Flow, reduced_costs) -> Flow | None:
    """An optimal flow different from the input one, or None if it is unique."""
    reduced = reduce_network(net, flow, reduced_costs)
    other = find_another_feasible_flow(reduced.network, restrict_flow(reduced, flow))
    if other is None:
        return None
    return splice_flow(reduced, flow, other)


def partition_solution_space(net: Network, flow: Flow, other: Flow) -> tuple[Network, Network]:
    """Split on the first differing arc; the first half keeps `flow`, the second `other`.

    Each half is `net` with that one arc's bound tightened; every other arc
    object is shared with `net`.
    """
    for arc_id, (mine, theirs) in enumerate(zip(flow.values, other.values)):
        if mine != theirs:
            arc = net.arcs[arc_id]
            if mine < theirs:
                halves = (replace(arc, upper=mine), replace(arc, lower=mine + 1))
            else:
                halves = (replace(arc, lower=mine), replace(arc, upper=mine - 1))
            head, tail = net.arcs[:arc_id], net.arcs[arc_id + 1:]
            return tuple(replace(net, arcs=head + (half,) + tail) for half in halves)
    raise IdenticalFlowsError("cannot partition on two identical flows")


def iter_optimal_flows(
    net: Network,
    limit: int | None = None,
    stats: EnumerationStats | None = None,
) -> Iterator[Flow]:
    """Every optimal integer flow exactly once, the solver's optimum first."""
    validate_network(net)
    if limit is not None and limit <= 0:
        return
    first = solve_min_cost_flow(net)
    yield first
    emitted = 1
    if limit is not None and emitted >= limit:
        return
    potential = compute_node_potentials(net, first)
    reduced_costs = compute_reduced_costs(net, potential)
    reduced = reduce_network(net, first, reduced_costs)
    # Each pending region is a narrowed network plus a witness flow inside it.
    pending = [(reduced.network, restrict_flow(reduced, first))]
    while pending:
        region, witness = pending.pop()
        if stats is not None:
            stats.another_flow_calls += 1
        other = find_another_feasible_flow(region, witness)
        if other is None:
            continue
        yield splice_flow(reduced, first, other)
        emitted += 1
        if limit is not None and emitted >= limit:
            return
        keep_here, move_there = partition_solution_space(region, witness, other)
        pending.append((move_there, other))
        pending.append((keep_here, witness))
