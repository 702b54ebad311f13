"""All-optimal-flow enumeration by binary partition of the solution space.

Each flow found splits its search region into two disjoint halves on the first arc where it
differs from the region's witness, so no flow comes twice.  All regions of one instance share
one `core.Frame`: a region is the optimal face's bounds with some arcs narrowed in place.  Any
optimal potentials pin a face of the same flows: `iter_optimal_flows` takes Bellman-Ford's,
whose pins fix its flow order, and `bounds --exact` counts on its tree's.  The search is depth
first, so one stack is also the undo trail: a split pushes the arc's bounds to restore, the half
that moves to the new flow, and on top the half that keeps the witness.  A region differs from
its parent on the split arc alone, so the witness stays feasible if it lies within that arc's
new bounds.  The half that keeps the witness is searched straight after its parent, and its
residual graph is the parent's less the cycle's id on the split arc, so it takes the parent's
out-lists and forest with that id dropped.  Every other region builds both afresh.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass
from typing import Iterator, Sequence

from .core import Flow, Frame, Network, residual_room
from .dfs import _search
from .errors import InvariantError
from .solver import _potentials, _solve, compute_reduced_costs


@dataclass
class EnumerationStats:
    another_flow_calls: int = 0


def optimal_face(frame: Frame, values, reduced_costs) -> Frame:
    """`frame` with every nonzero-reduced-cost arc pinned at its value in the optimum `values`.

    By complementary slackness every optimal flow holds such an arc where
    `values` does (an arc whose bounds meet is held there anyway), and a flow
    that agrees there costs the same: the face's feasible flows are exactly
    the optimal flows.
    """
    face = copy(frame)  # shares every list but the bounds
    face.lower = [value if cost else lo for value, cost, lo in zip(values, reduced_costs, frame.lower)]
    face.upper = [value if cost else hi for value, cost, hi in zip(values, reduced_costs, frame.upper)]
    return face


def _split(witness: Sequence[int], cycle: list[int], lower, upper):
    """The cycle's lowest arc, its bounds keeping `witness`, then holding `witness` pushed one
    unit around `cycle`: the first arc where the two flows differ, as a cycle uses each once."""
    index = min(cycle)
    arc = index >> 1
    mine = witness[arc]
    if index & 1:
        return arc, (mine, upper[arc]), (lower[arc], mine - 1)
    return arc, (lower[arc], mine), (mine + 1, upper[arc])


def iter_optimal_flows(net: Network, stats: EnumerationStats | None = None) -> Iterator[Flow]:
    """Every optimal integer flow exactly once, the solver's optimum first.

    The count can be exponential; stop the generator when enough flows have
    come, e.g. with `itertools.islice`.
    """
    frame, first = _solve(net)
    yield first
    potentials = _potentials(frame, residual_room(frame, first.values))
    yield from _flows_after(frame, first.values, compute_reduced_costs(net, potentials), stats)


def _flows_after(frame: Frame, first: Sequence[int], reduced_costs, stats: EnumerationStats | None = None):
    """The optimal flows but `first`, each once, from the face that `reduced_costs` pin in `frame`."""
    frame = optimal_face(frame, first, reduced_costs)
    # (witness, arc, lo, hi, reuse) searches with the arc narrowed; no witness restores
    # it.  The half that keeps the witness carries the parent's search as `reuse`.
    pending: list = [(first, None, 0, 0, None)]
    while pending:
        witness, arc, lo, hi, reuse = pending.pop()
        if arc is not None:
            frame.lower[arc], frame.upper[arc] = lo, hi
            if witness is None:
                continue
            if not lo <= witness[arc] <= hi:
                raise InvariantError(f"the witness leaves its region on arc {arc}")
        if stats is not None:
            stats.another_flow_calls += 1
        other, cycle, forest = _search(frame, witness, reuse)
        if other is None:
            continue
        yield other
        arc, keep_here, move_there = _split(witness, cycle, frame.lower, frame.upper)
        pending.append((None, arc, frame.lower[arc], frame.upper[arc], None))
        pending.append((other.values, arc, *move_there, None))
        pending.append((witness, arc, *keep_here, (forest, min(cycle))))  # the cycle's id on it
