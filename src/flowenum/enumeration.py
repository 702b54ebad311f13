"""All-optimal-flow enumeration by binary partition of the solution space.

The optimal face is found once: every arc with nonzero reduced cost is
pinned at its value in the initial optimum, so the feasible flows of what
remains are exactly the optimal flows of the original network.  Each
discovered flow then splits its search region into two disjoint halves on
the first arc where it differs from the region's witness, so no flow is
ever produced twice.  A region is simply the network with some capacity
bounds tightened, and its flows index the original arcs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

from .core import Flow, Network
from .dfs import find_another_feasible_flow
from .errors import IdenticalFlowsError
from .solver import compute_node_potentials, compute_reduced_costs, solve_min_cost_flow


@dataclass
class EnumerationStats:
    another_flow_calls: int = 0


def optimal_face(net: Network, flow: Flow, reduced_costs) -> Network:
    """`net` with every nonzero-reduced-cost arc pinned at its value in `flow`.

    `flow` is optimal and `reduced_costs` come from optimal potentials.  By
    complementary slackness every optimal flow holds an arc of positive
    reduced cost at its lower bound and one of negative reduced cost at its
    upper bound, which is where `flow` holds it; a flow that agrees with
    `flow` on those arcs has the same cost.  So the feasible flows of the
    face are exactly the optimal flows of `net`.  Every arc that is not
    pinned is the same object as in `net`.
    """
    arcs = tuple(
        replace(arc, lower=value, upper=value) if reduced and arc.span else arc
        for arc, value, reduced in zip(net.arcs, flow.values, reduced_costs)
    )
    return replace(net, arcs=arcs)


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


def iter_optimal_flows(net: Network, stats: EnumerationStats | None = None) -> Iterator[Flow]:
    """Every optimal integer flow exactly once, the solver's optimum first.

    The count can be exponential; stop the generator when enough flows have
    come, e.g. with `itertools.islice`.
    """
    first = solve_min_cost_flow(net)
    yield first
    reduced_costs = compute_reduced_costs(net, compute_node_potentials(net, first))
    # Each pending region is a narrowed network plus a witness flow inside it.
    pending = [(optimal_face(net, first, reduced_costs), first)]
    while pending:
        region, witness = pending.pop()
        if stats is not None:
            stats.another_flow_calls += 1
        other = find_another_feasible_flow(region, witness)
        if other is None:
            continue
        yield other
        keep_here, move_there = partition_solution_space(region, witness, other)
        pending.append((move_there, other))
        pending.append((keep_here, witness))
