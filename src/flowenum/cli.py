"""Command line: solve, enumerate, rank, bound, and cross-check flow instances.

Flows stream to stdout as JSON lines ({"cost": ..., "flow": [...]}) followed
by one summary object; diagnostics go to stderr.  Exit codes: 0 success,
1 infeasible instance or failed verification, 2 usage or parse errors,
3 brute-force budget exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from itertools import islice
from pathlib import Path

from .bruteforce import (
    EnumerationBudget,
    enumerate_all_feasible_bruteforce,
    enumerate_all_optimal_bruteforce,
    k_best_bruteforce,
)
from .core import Network, flow_cost, validate_network
from .dimacs import parse_dimacs
from .enumeration import iter_optimal_flows
from .errors import (
    BudgetExceededError,
    DimacsError,
    InfeasibleError,
    NetworkValidationError,
)
from .kbest import iter_k_best_flows
from .solver import solve_min_cost_flow
from .treebounds import (
    count_lower_bound,
    count_upper_bound,
    feasible_count_bounds,
    to_tree_solution,
    zero_cost_nontree_set,
)

DEFAULT_ENUMERATION_LIMIT = 1_000_000


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowenum",
        description="Minimum-cost integer flows: one optimum, all optima, "
        "the K best, and bounds on how many there are.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="find one minimum-cost integer flow")
    solve.add_argument("file")

    enumerate_ = commands.add_parser("enumerate", help="list every optimal integer flow")
    enumerate_.add_argument("file")
    enumerate_.add_argument(
        "--limit", type=_positive_int, default=DEFAULT_ENUMERATION_LIMIT,
        help="stop after this many flows (default %(default)s)",
    )

    kbest = commands.add_parser("kbest", help="list the K cheapest integer flows")
    kbest.add_argument("file")
    kbest.add_argument("k", type=_positive_int)

    bounds = commands.add_parser(
        "bounds", help="bounds on the number of optimal and feasible flows"
    )
    bounds.add_argument("file")
    bounds.add_argument("--exact", action="store_true", help="also enumerate the exact count")
    bounds.add_argument("--limit", type=_positive_int, default=DEFAULT_ENUMERATION_LIMIT)

    oracle = commands.add_parser("oracle", help="brute-force reference enumeration")
    oracle.add_argument("file")
    oracle.add_argument("--mode", choices=("feasible", "optimal", "kbest"), required=True)
    oracle.add_argument("--k", type=_positive_int, help="prefix length for --mode kbest")
    oracle.add_argument("--max-states", type=_positive_int, default=EnumerationBudget.max_states)
    oracle.add_argument("--max-flows", type=_positive_int, default=EnumerationBudget.max_flows)

    verify = commands.add_parser(
        "verify", help="diff the optimal-flow enumeration against the brute-force oracle"
    )
    verify.add_argument("file")
    verify.add_argument("--limit", type=_positive_int, default=DEFAULT_ENUMERATION_LIMIT)
    verify.add_argument("--max-states", type=_positive_int, default=EnumerationBudget.max_states)
    verify.add_argument("--max-flows", type=_positive_int, default=EnumerationBudget.max_flows)

    return parser


def _emit(out, payload) -> None:
    print(json.dumps(payload), file=out)


def _emit_flow(out, net: Network, flow) -> None:
    _emit(out, {"cost": flow_cost(net, flow), "flow": list(flow.values)})


def _summary(out, command: str, net: Network, started: float, **extra) -> None:
    """One summary line: instance size, timing, then the command's own fields."""
    _emit(out, {
        "command": command,
        "nodes": net.node_count,
        "arcs": net.arc_count,
        "elapsed_ms": round((time.perf_counter() - started) * 1000.0, 3),
        **extra,
    })


def _cmd_solve(args, net, out, started) -> int:
    flow = solve_min_cost_flow(net)
    _emit_flow(out, net, flow)
    _summary(out, "solve", net, started, count=1, optimal_cost=flow_cost(net, flow))
    return 0


def _cmd_enumerate(args, net, out, started) -> int:
    emitted = 0
    best_cost = None
    # One flow past the limit tells whether the limit really cut the run short.
    flows = iter_optimal_flows(net)
    for flow in islice(flows, args.limit):
        if best_cost is None:
            best_cost = flow_cost(net, flow)
        _emit_flow(out, net, flow)
        emitted += 1
    _summary(
        out, "enumerate", net, started,
        count=emitted, optimal_cost=best_cost,
        limit=args.limit, limit_reached=next(flows, None) is not None,
    )
    return 0


def _cmd_kbest(args, net, out, started) -> int:
    emitted = 0
    best_cost = None
    for flow in iter_k_best_flows(net, args.k):
        if best_cost is None:
            best_cost = flow_cost(net, flow)
        _emit_flow(out, net, flow)
        emitted += 1
    _summary(
        out, "kbest", net, started,
        count=emitted, requested=args.k, optimal_cost=best_cost,
    )
    return 0


def _cmd_bounds(args, net, out, started) -> int:
    # The enumeration's first flow is the solver's optimum, so --exact
    # counts on from it instead of solving the instance a second time.
    flows = islice(iter_optimal_flows(net), args.limit + 1)
    flow = next(flows)
    tree_flow, structure = to_tree_solution(net, flow)
    zero_arcs = zero_cost_nontree_set(structure)
    feasible_lower, feasible_upper = feasible_count_bounds(structure, tree_flow)
    extra = {
        "count": 0,
        "optimal_cost": flow_cost(net, flow),
        "upper_bound": count_upper_bound(structure, zero_arcs),
        "lower_bound": count_lower_bound(structure, zero_arcs, tree_flow),
        "lower_bound_min_reading": count_lower_bound(structure, zero_arcs, tree_flow, reading="min"),
        "feasible_lower_bound": feasible_lower,
        "feasible_upper_bound": feasible_upper,
        "zero_cost_arcs": list(zero_arcs),
    }
    if args.exact:
        exact = 1 + sum(1 for _ in flows)
        extra["exact_count"] = min(exact, args.limit)
        extra["limit_reached"] = exact > args.limit
    _summary(out, "bounds", net, started, **extra)
    return 0


def _cmd_oracle(args, net, out, started) -> int:
    budget = EnumerationBudget(args.max_states, args.max_flows)
    if args.mode == "feasible":
        flows = enumerate_all_feasible_bruteforce(net, budget)
    elif args.mode == "optimal":
        flows = enumerate_all_optimal_bruteforce(net, budget)
    else:
        if args.k is None:
            raise _UsageError("--mode kbest needs --k")
        flows = k_best_bruteforce(net, args.k, budget)
    for flow in flows:
        _emit_flow(out, net, flow)
    _summary(out, "oracle", net, started, mode=args.mode, count=len(flows))
    return 0


def _cmd_verify(args, net, out, started) -> int:
    budget = EnumerationBudget(args.max_states, args.max_flows)
    flows = iter_optimal_flows(net)
    enumerated = [flow.values for flow in islice(flows, args.limit)]
    limit_reached = next(flows, None) is not None
    reference = {flow.values for flow in enumerate_all_optimal_bruteforce(net, budget)}
    # A run cut short by --limit matches when what it found is right.
    distinct = set(enumerated)
    match = (len(distinct) == len(enumerated) and distinct <= reference
             and (limit_reached or len(distinct) == len(reference)))
    _summary(
        out, "verify", net, started,
        count=len(enumerated), match=match,
        enumerated=len(enumerated), reference=len(reference), limit_reached=limit_reached,
    )
    return 0 if match else 1


class _UsageError(Exception):
    pass


_HANDLERS = {
    "solve": _cmd_solve,
    "enumerate": _cmd_enumerate,
    "kbest": _cmd_kbest,
    "bounds": _cmd_bounds,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
}


def run(argv=None, stdout=None, stderr=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        with contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exit_:  # argparse already printed its diagnostics
        code = exit_.code if isinstance(exit_.code, int) else 2
        return code

    started = time.perf_counter()
    try:
        text = Path(args.file).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"flowenum: cannot read {args.file}: {exc}", file=err)
        return 2
    try:
        net = parse_dimacs(text)
        validate_network(net)
    except (DimacsError, NetworkValidationError) as exc:
        print(f"flowenum: {args.file}: {exc}", file=err)
        return 2

    try:
        return _HANDLERS[args.command](args, net, out, started)
    except _UsageError as exc:
        print(f"flowenum: {exc}", file=err)
        return 2
    except InfeasibleError as exc:
        print(f"flowenum: {exc}", file=err)
        _summary(out, args.command, net, started, count=0, infeasible=True)
        return 1
    except BudgetExceededError as exc:
        print(f"flowenum: {exc}", file=err)
        return 3


def main() -> None:
    raise SystemExit(run())
