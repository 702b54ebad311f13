"""Instances with answers known in closed form, far past the oracle's reach.

k disjoint directed 3-cycles, each arc spanning [0, s], are chained by
pinned [1, 1] arcs that enter and leave each cycle at the same node.  A
flow is then fixed by how many units, 0..s, circulate around each cycle,
so there are exactly (s+1)**k feasible flows.  With cycle costs summing to
zero every one of them is optimal; with cycle i costing c per unit, the
flow costs are the sums of one multiple of c per cycle.
"""

import heapq
import io
import json
import random
from itertools import product

import pytest

from flowenum.cli import run
from flowenum.core import Flow, check_feasible, flow_cost
from flowenum.dimacs import serialize_dimacs
from flowenum.enumeration import iter_optimal_flows
from flowenum.kbest import iter_k_best_flows

from helpers import linked_cycles


def every_flow(net, members, span):
    """The (s+1)**k feasible flows, built from the units around each cycle."""
    for units in product(range(span + 1), repeat=len(members)):
        values = [arc.lower for arc in net.arcs]
        for arcs, amount in zip(members, units):
            for index in arcs:
                values[index] = amount
        yield Flow(tuple(values))


def bounds_summary(tmp_path, net, *words):
    path = tmp_path / "cycles.min"
    path.write_text(serialize_dimacs(net), encoding="utf-8")
    out = io.StringIO()
    assert run(["bounds", str(path), *words], stdout=out, stderr=io.StringIO()) == 0
    return json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("seed, k, span", [(1, 4, 9), (2, 3, 4), (3, 5, 2), (4, 1, 6)])
def test_every_optimum_exactly_once(seed, k, span):
    net, members, unit, pinned_cost = linked_cycles(random.Random(seed), k, span)
    assert unit == [0] * k
    flows = list(iter_optimal_flows(net))
    expected = set(every_flow(net, members, span))
    assert len(expected) == (span + 1) ** k
    assert len(flows) == len(expected)
    assert set(flows) == expected
    assert {flow_cost(net, flow) for flow in flows} == {pinned_cost}


@pytest.mark.parametrize("seed, k, span", [(1, 4, 9), (2, 3, 4), (5, 2, 3)])
def test_bounds_sandwich_the_closed_form(tmp_path, seed, k, span):
    net, *_ = linked_cycles(random.Random(seed), k, span)
    count = (span + 1) ** k
    words = ("--exact",) if count < 1000 else ()
    summary = bounds_summary(tmp_path, net, *words)
    assert summary["lower_bound"] <= count == summary["upper_bound"]
    if words:
        assert summary["exact_count"] == count and summary["limit_reached"] is False


@pytest.mark.parametrize("seed, k, span, unit_costs", [
    (1, 4, 9, None), (6, 3, 5, None), (7, 5, 3, None),
    # Base-10 digits: every flow has its own cost, so no tie hides a mis-ranked one.
    (8, 3, 9, (1, -10, 100)),
])
def test_k_best_costs_merge_the_cycles(seed, k, span, unit_costs):
    rng = random.Random(seed)
    if unit_costs is None:
        unit_costs = [rng.randint(-4, 5) for _ in range(k)]
    net, members, unit, pinned_cost = linked_cycles(rng, k, span, unit_costs)
    wanted = min(200, (span + 1) ** k)
    per_cycle = [[amount * cost for amount in range(span + 1)] for cost in unit]
    reference = heapq.nsmallest(wanted, (pinned_cost + sum(costs) for costs in product(*per_cycle)))
    flows = list(iter_k_best_flows(net, wanted))
    assert [flow_cost(net, flow) for flow in flows] == reference
    assert len(set(flows)) == wanted
    assert all(check_feasible(net, flow) for flow in flows)
