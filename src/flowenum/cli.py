"""Command line: solve, enumerate, rank, bound, and cross-check flow instances.

Flows stream to stdout as JSON lines ({"cost": ..., "flow": [...]}) followed
by one summary object; diagnostics go to stderr.  Each line is one write, and a
flow line joins decimal strings made once per stream and sums its cost over the
nonzero-cost arcs alone.  Exit codes: 0 success, 1 infeasible instance or failed
verification, 2 usage or parse errors, 3 a search budget exceeded, 130 interrupted,
141 stdout closed early.  The argument parser is built once per process, on the first
`run()`.  Each subparser names its handler, which streams the flows and returns the
summary's own fields; `run()` writes every summary line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
import time
from functools import cache
from itertools import compress, islice
from operator import mul
from pathlib import Path

from .bruteforce import (
    EnumerationBudget,
    enumerate_all_feasible_bruteforce,
    enumerate_all_optimal_bruteforce,
    k_best_bruteforce,
)
from .core import Network, _require_dimensions, flow_cost, validate_network
from .dimacs import parse_dimacs
from .enumeration import _flows_after, iter_optimal_flows
from .errors import (
    BudgetExceededError,
    DimacsError,
    InfeasibleError,
    NetworkValidationError,
)
from .kbest import iter_k_best_flows
from .solver import _solve, solve_min_cost_flow
from .treebounds import _capacities, _certified_costs, _span_product, _tree_solution

DEFAULT_ENUMERATION_LIMIT = 1_000_000


def _positive_int(text: str) -> int:
    # Counts follow DIMACS fields, [+-]?[0-9]+: bare int() also takes "1_0", " 2" and
    # non-ASCII digits.  islice takes counts up to sys.maxsize only.
    try:
        value = int(text) if re.fullmatch(r"[+-]?[0-9]+", text) else 0
    except ValueError:  # more digits than int() converts
        value = 0
    if not 1 <= value <= sys.maxsize:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer of at most {sys.maxsize}, got {text!r}")
    return value


@cache  # parse_args builds a fresh Namespace per call and changes no parser state
def _build_parser() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser, argparse.ArgumentParser]:
    """The command line parser, and the subparsers of the checks argparse cannot express."""
    parser = argparse.ArgumentParser(
        prog="flowenum",
        description="Minimum-cost integer flows: one optimum, all optima, "
        "the K best, and bounds on how many there are.",
    )
    # Flags shared by several commands, each declared once.
    source, limited, budget = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    source.add_argument("file")
    limited.add_argument(
        "--limit", type=_positive_int, default=DEFAULT_ENUMERATION_LIMIT,
        help="stop after this many flows (default %(default)s)",
    )
    budget.add_argument("--max-states", type=_positive_int, default=EnumerationBudget.max_states)
    budget.add_argument("--max-flows", type=_positive_int, default=EnumerationBudget.max_flows)

    commands = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, parents, about):
        sub = commands.add_parser(name, parents=parents, help=about)
        sub.set_defaults(handler=handler)
        return sub

    command("solve", _cmd_solve, [source], "find one minimum-cost integer flow")
    command("enumerate", _cmd_enumerate, [source, limited], "list every optimal integer flow")
    kbest = command("kbest", _cmd_kbest, [source], "list the K cheapest integer flows")
    kbest.add_argument("k", type=_positive_int)
    bounds = command("bounds", _cmd_bounds, [source], "bounds on the number of optimal and feasible flows")
    bounds.add_argument("--limit", type=_positive_int, help="with --exact, stop after this many "
                        f"flows (default {DEFAULT_ENUMERATION_LIMIT})")  # none here: it needs --exact
    bounds.add_argument("--exact", action="store_true", help="also enumerate the exact count")
    oracle = command("oracle", _cmd_oracle, [source, budget], "brute-force reference enumeration")
    oracle.add_argument("--mode", choices=("feasible", "optimal", "kbest"), required=True)
    oracle.add_argument("--k", type=_positive_int, help="prefix length for --mode kbest")
    command("verify", _cmd_verify, [source, limited, budget],
            "diff the optimal-flow enumeration against the brute-force oracle")
    return parser, oracle, bounds


class _Digits(dict):
    """Decimal strings of ints, each made on its first lookup."""
    def __missing__(self, value: int) -> str:
        text = self[value] = str(value)
        return text


def _stream(out, net: Network, flows) -> tuple[int, int | None]:
    """Write each flow as one JSON line; how many there were and the first one's cost.  A cost
    sums the nonzero-cost arcs alone, and `Flow` holds exact ints, so the lines are `json.dumps`'s."""
    count, first_cost, digits = 0, None, _Digits()
    mask = [bool(arc.cost) for arc in net.arcs]
    nonzero = [arc.cost for arc in net.arcs if arc.cost]
    for count, flow in enumerate(flows, 1):
        _require_dimensions(net, flow)
        cost = sum(map(mul, nonzero, compress(flow.values, mask)))
        if first_cost is None:
            first_cost = cost
        out.write('{"cost": %d, "flow": [%s]}\n' % (cost, ", ".join(map(digits.__getitem__, flow.values))))
    return count, first_cost


def _cmd_solve(args, net, out) -> dict:
    count, cost = _stream(out, net, [solve_min_cost_flow(net)])
    return {"count": count, "optimal_cost": cost}


def _cmd_enumerate(args, net, out) -> dict:
    flows = iter_optimal_flows(net)
    count, cost = _stream(out, net, islice(flows, args.limit))
    # One flow past the limit tells whether the limit really cut the run short.
    return {"count": count, "optimal_cost": cost,
            "limit": args.limit, "limit_reached": next(flows, None) is not None}


def _cmd_kbest(args, net, out) -> dict:
    count, cost = _stream(out, net, iter_k_best_flows(net, args.k))
    return {"count": count, "requested": args.k, "optimal_cost": cost}


def _cmd_bounds(args, net, out) -> dict:
    # The solver checks the instance and its own optimum once; the tree, its certificate and,
    # for --exact, the count on the face of the tree's potentials run on the solver's frame.
    frame, flow = _solve(net)
    tree_flow, structure = _tree_solution(net, frame, flow)
    reduced = _certified_costs(structure, frame, flow.values)
    nontree = sorted(structure.lower_set | structure.upper_set)
    zero_arcs = [arc for arc in nontree if not reduced[arc]]
    # Both readings of the lower bound and the feasible bounds, each cycle capacity read once.
    capacity = dict(zip(nontree, _capacities(structure, frame, tree_flow.values, nontree)))
    zero_total = sum(capacity[arc] for arc in zero_arcs)
    extra = {
        "count": 0,
        "optimal_cost": flow_cost(net, flow),
        "upper_bound": _span_product(net, zero_arcs),
        "lower_bound": max(1, zero_total),
        "lower_bound_min_reading": min(1, zero_total),
        "feasible_lower_bound": max(1, sum(capacity.values())),
        "feasible_upper_bound": _span_product(net, nontree),
        "zero_cost_arcs": zero_arcs,
    }
    if args.exact:
        # As many flows past the first as the limit allows: one more shows it was reached.
        limit = args.limit or DEFAULT_ENUMERATION_LIMIT
        rest = sum(1 for _ in islice(_flows_after(frame, flow.values, reduced), limit))
        extra["exact_count"] = min(1 + rest, limit)
        extra["limit_reached"] = rest == limit
    return extra


def _cmd_oracle(args, net, out) -> dict:
    validate_network(net)  # the brute force checks nothing
    budget = EnumerationBudget(args.max_states, args.max_flows)
    if args.mode == "feasible":
        flows = enumerate_all_feasible_bruteforce(net, budget)
    elif args.mode == "optimal":
        flows = enumerate_all_optimal_bruteforce(net, budget)
    else:
        flows = k_best_bruteforce(net, args.k, budget)
    count, _ = _stream(out, net, flows)
    if not count:  # every mode lists at least one flow of a feasible instance
        raise InfeasibleError("the instance admits no feasible flow")
    return {"mode": args.mode, "count": count}


def _cmd_verify(args, net, out) -> dict:
    budget = EnumerationBudget(args.max_states, args.max_flows)
    flows = iter_optimal_flows(net)
    enumerated = [flow.values for flow in islice(flows, args.limit)]
    limit_reached = next(flows, None) is not None
    reference = {flow.values for flow in enumerate_all_optimal_bruteforce(net, budget)}
    # A run cut short by --limit matches when what it found is right.
    distinct = set(enumerated)
    match = (len(distinct) == len(enumerated) and distinct <= reference
             and (limit_reached or len(distinct) == len(reference)))
    return {"count": len(enumerated), "match": match, "enumerated": len(enumerated),
            "reference": len(reference), "limit_reached": limit_reached}


def run(argv=None, stdout=None, stderr=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser, oracle, bounds = _build_parser()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):  # --help writes to stdout
            args = parser.parse_args(argv)
            if args.command == "oracle" and (args.mode == "kbest") != (args.k is not None):
                oracle.error("--mode kbest needs --k" if args.k is None else "--k needs --mode kbest")
            if args.command == "bounds" and args.limit is not None and not args.exact:
                bounds.error("--limit needs --exact")
    except SystemExit as exit_:  # argparse already printed its diagnostics
        return exit_.code if isinstance(exit_.code, int) else 2

    started = time.perf_counter()
    try:
        text = Path(args.file).read_text(encoding="utf-8-sig")  # a leading byte-order mark is no record
    except (OSError, UnicodeDecodeError) as exc:
        print(f"flowenum: cannot read {args.file}: {exc}", file=err)
        return 2
    try:
        net = parse_dimacs(text)
        # Each command checks the instance before any output, so a rejection prints nothing.
        fields = args.handler(args, net, out)
    except (DimacsError, NetworkValidationError) as exc:
        print(f"flowenum: {args.file}: {exc}", file=err)
        return 2
    except InfeasibleError as exc:
        print(f"flowenum: {exc}", file=err)
        fields = {"count": 0, "infeasible": True}
    except BudgetExceededError as exc:
        print(f"flowenum: {exc}", file=err)
        return 3
    # One summary line: instance size, timing, then the command's own fields.
    elapsed_ms = round((time.perf_counter() - started) * 1000.0, 3)
    out.write(json.dumps({"command": args.command, "nodes": net.node_count, "arcs": net.arc_count,
                          "elapsed_ms": elapsed_ms, **fields}) + "\n")
    return 1 if fields.get("infeasible") or fields.get("match") is False else 0


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # a reader that left shows up here, not at exit
    except BrokenPipeError:
        # Whatever is still buffered goes nowhere, so the exit flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    except KeyboardInterrupt:
        print("flowenum: interrupted", file=sys.stderr)
        code = 130
    raise SystemExit(code)
