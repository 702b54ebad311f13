"""Output checks for CLI calls, written without flowenum's own checkers.

Each check raises CheckError with a reason; the caller counts the call as a
failed operation.  Feasibility, cost and optimality are recomputed here from
the generated arc data, so a defect in the program's own verification code
cannot hide a wrong answer.
"""

from __future__ import annotations

import json

from gen import Instance


class CheckError(Exception):
    pass


def cost_of(inst: Instance, values) -> int:
    return sum(arc[4] * value for arc, value in zip(inst.arcs, values))


def require_feasible(inst: Instance, values) -> None:
    if len(values) != len(inst.arcs):
        raise CheckError(f"flow has {len(values)} values for {len(inst.arcs)} arcs")
    net_out = [0] * inst.node_count
    for (src, dst, lower, upper, _), value in zip(inst.arcs, values):
        if not (isinstance(value, int) and lower <= value <= upper):
            raise CheckError(f"arc ({src},{dst}) carries {value!r} outside [{lower},{upper}]")
        net_out[src] += value
        net_out[dst] -= value
    if net_out != list(inst.balances):
        raise CheckError("flow violates a node balance")


def is_optimal(inst: Instance, values) -> bool:
    """True iff the residual graph of the flow has no negative cycle."""
    edges = []
    for (src, dst, lower, upper, cost), value in zip(inst.arcs, values):
        if value < upper:
            edges.append((src, dst, cost))
        if value > lower:
            edges.append((dst, src, -cost))
    dist = [0] * inst.node_count
    for _ in range(inst.node_count):
        changed = False
        for src, dst, weight in edges:
            if dist[src] + weight < dist[dst]:
                dist[dst] = dist[src] + weight
                changed = True
        if not changed:
            return True
    return False


def parse_output(text: str) -> tuple[list[tuple[int, tuple[int, ...]]], dict]:
    """Flow lines as (reported cost, values), plus the closing summary object."""
    try:
        records = [json.loads(line) for line in text.splitlines()]
        flows = [(r["cost"], tuple(r["flow"])) for r in records[:-1]]
        summary = records[-1]
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise CheckError(f"malformed output: {exc!r}") from None
    if not isinstance(summary, dict) or "command" not in summary:
        raise CheckError("output does not end in a summary object")
    return flows, summary


def check_call(inst: Instance, argv: list[str], text: str) -> int:
    """Validate one successful call's stdout; returns the number of flow lines."""
    command = argv[0]
    flows, summary = parse_output(text)
    for cost, values in flows:
        require_feasible(inst, values)
        if cost != cost_of(inst, values):
            raise CheckError(f"reported cost {cost} differs from {cost_of(inst, values)}")
    if summary.get("count") != len(flows):
        raise CheckError(f"summary count {summary.get('count')} but {len(flows)} flow lines")
    if len({values for _, values in flows}) != len(flows):
        raise CheckError("a flow is emitted twice")
    if command in ("enumerate", "kbest"):
        if not flows:
            raise CheckError("no flow emitted for a feasible instance")
        first_cost, first = flows[0]
        if not is_optimal(inst, first):
            raise CheckError("first flow is not optimal")
        if summary.get("optimal_cost") != first_cost:
            raise CheckError("summary optimal_cost differs from the first flow's cost")
    if command == "enumerate":
        if any(cost != first_cost for cost, _ in flows):
            raise CheckError("enumerate emitted a flow that is not optimal")
        if "--limit" in argv and len(flows) > int(argv[argv.index("--limit") + 1]):
            raise CheckError("enumerate exceeded its limit")
    elif command == "kbest":
        costs = [cost for cost, _ in flows]
        if costs != sorted(costs):
            raise CheckError("kbest costs decrease")
        if len(flows) > int(argv[2]):
            raise CheckError("kbest emitted more than K flows")
    elif command == "bounds":
        reported = [summary.get(key) for key in ("lower_bound", "exact_count", "upper_bound")]
        if not all(isinstance(value, int) for value in reported):
            raise CheckError(f"bounds reports lower, exact, upper {reported!r}")
        lower, exact, upper = reported
        if exact < 1 or not lower <= exact <= upper:
            raise CheckError(f"bounds {lower}..{upper} miss the exact count {exact}")
        if summary.get("limit_reached"):
            raise CheckError("bounds --exact hit its limit")
    return len(flows)


def check_against_oracle(inst: Instance, argv: list[str], text: str, bruteforce, net) -> int:
    """Exact agreement with the brute-force oracle on a tiny instance.

    `bruteforce` is the flowenum.bruteforce module and `net` the parsed instance.
    """
    count = check_call(inst, argv, text)
    flows, _ = parse_output(text)
    mine = [values for _, values in flows]
    if argv[0] == "enumerate":
        reference = {f.values for f in bruteforce.enumerate_all_optimal_bruteforce(net)}
        if set(mine) != reference:
            raise CheckError(f"enumerate gives {len(mine)} optima, the oracle {len(reference)}")
        return count
    k = int(argv[2])
    reference = [f.values for f in bruteforce.k_best_bruteforce(net, k)]
    if [cost_of(inst, v) for v in mine] != [cost_of(inst, v) for v in reference]:
        raise CheckError("kbest costs differ from the oracle's")
    by_cost: dict[int, set] = {}
    for flow in bruteforce.enumerate_all_feasible_bruteforce(net):
        by_cost.setdefault(cost_of(inst, flow.values), set()).add(flow.values)
    last = cost_of(inst, mine[-1])
    for cost in {cost_of(inst, v) for v in mine}:
        chosen = {v for v in mine if cost_of(inst, v) == cost}
        if cost != last and chosen != by_cost[cost]:
            raise CheckError(f"kbest skips a flow of cost {cost}")
    return count
