"""Seeded benchmark of the flowenum command line, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload enum-ties --seed 1 --seconds 30 --trace 0

The benchmark builds its instances from --seed, writes them as DIMACS files
into a temporary directory in the checkout, and drives `flowenum.cli.run`
in-process as a closed loop with one caller: each call starts after the
previous one returned.  A pass is one call per instance; passes repeat for
--seconds.  Every call's output is checked, and a few tiny instances are
compared with the brute-force oracle (untimed).  The last stdout line is one
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics of a traced run
with --trace 1.  Lines starting with '#' before it repeat the metrics for
people, with the raw times and the metrics that apply to one workload only.

Times are scaled to a reference machine speed.  On a shared machine the
interpreter at times runs at little more than half speed for minutes on
end, longer than one run, so medians alone do not make runs comparable.
Just before each timed call the benchmark times a fixed pure-Python probe,
a shortest-path search on a fixed grid; every time taken in a pass is
scaled by PROBE_REF_NS / the median probe time of that pass.  The probe is
the benchmark's own code, so a change to flowenum does not move it.

Seeds 1 to 11 were used while this benchmark was tuned.  HELD_OUT_SEED was
not; a later claim of a gain must also hold on it.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import io
import json
import math
import os
import platform
import random
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from checks import CheckError, check_against_oracle, check_call
from gen import GridFamily, Instance
from tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
HELD_OUT_SEED = 104729
MIN_PASSES = 3
SETUP_REPEATS = 3
PROBE_REF_NS = 1_000_000


@dataclass(frozen=True)
class Workload:
    words: tuple[str, ...]   # CLI words; the instance file goes after the first
    family: GridFamily
    instances: int           # per pass

    def argv(self, path: str) -> list[str]:
        return [self.words[0], path, *self.words[1:]]


# Why each workload exists is recorded in BENCHMARK.json.  Instances are small
# and many, so a pass averages over the seed's instances and each call is
# shorter than most slow spells of the machine.
WORKLOADS = {
    "enum-ties": Workload(
        ("enumerate", "--limit", "150"),
        GridFamily(6, 6, both_ways=True, cost=(0, 0), lower=(0, 0), span=(1, 2)),
        16,
    ),
    "kbest-ranked": Workload(
        ("kbest", "10"),
        GridFamily(8, 8, both_ways=False, cost=(-20, 50), lower=(0, 1), span=(1, 3)),
        14,
    ),
    "bounds-large": Workload(
        ("bounds", "--exact"),
        GridFamily(12, 12, both_ways=True, cost=(-50, 200), lower=(0, 0), span=(0, 3)),
        14,
    ),
}

# Tiny instances compared exactly with the brute-force oracle in every run;
# the zero-cost one has many optima, so a search that stops early shows.
ORACLE_FAMILIES = (
    GridFamily(2, 2, both_ways=True, cost=(-2, 2), lower=(0, 1), span=(0, 2)),
    GridFamily(2, 3, both_ways=False, cost=(-2, 2), lower=(0, 1), span=(0, 2)),
    GridFamily(2, 3, both_ways=True, cost=(0, 0), lower=(0, 0), span=(0, 1)),
)
ORACLE_WORDS = (("enumerate",), ("kbest", "6"))

END_TO_END = {"wall_s": "s", "setup_s": "s", "first_output_ms": "ms"}

# Inclusive time, and call counts, of single public functions.
FUNCTION_MS = (
    "enumeration.apply_overrides", "core.build_residual", "dfs.build_dfs_forest",
    "dfs.find_proper_cycle", "kbest.distance_table", "kbest.find_second_best_flow",
    "solver.solve_min_cost_flow", "solver.compute_node_potentials",
    "treebounds.to_tree_solution", "dimacs.parse_dimacs",
)
FUNCTION_CALLS = (
    "core.check_feasible", "dfs.find_another_feasible_flow", "kbest.distance_table",
    "solver.solve_min_cost_flow", "solver.compute_node_potentials",
)
BOUND_FUNCTIONS = ("count_lower_bound", "count_upper_bound", "feasible_count_bounds")

PER_LAYER = {
    **{f"{layer}.{kind}": unit for layer in LAYERS
       for kind, unit in (("self_ms", "ms"), ("calls", "count"))},
    **{f"{key}.ms": "ms" for key in FUNCTION_MS},
    **{f"{key}.calls": "count" for key in FUNCTION_CALLS},
    "treebounds.bounds.ms": "ms",
    "enumeration.yield_ratio": "ratio",
    "kbest.challenger_ratio": "ratio",
    "pass.flows": "count",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def _probe_grid(size: int = 30) -> list[list[tuple[int, int]]]:
    """Adjacency lists (node, weight) of a fixed size x size grid with arcs both ways."""
    rng = random.Random(0)
    grid: list[list[tuple[int, int]]] = [[] for _ in range(size * size)]
    for node in range(size * size):
        row, col = divmod(node, size)
        for other_row, other_col in ((row, col + 1), (row + 1, col)):
            if other_row < size and other_col < size:
                other = other_row * size + other_col
                grid[node].append((other, rng.randint(1, 9)))
                grid[other].append((node, rng.randint(1, 9)))
    return grid


_PROBE_GRID = _probe_grid()


def probe_ns() -> int:
    """Time a Dijkstra run over a fixed grid: heap, tuples and list indexing, as in the solver.

    The cyclic garbage collector is held off, so that a collection of the
    program's objects is not charged to the probe.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter_ns()
        dist: list[int | None] = [None] * len(_PROBE_GRID)
        dist[0] = 0
        heap = [(0, 0)]
        while heap:
            reached, node = heapq.heappop(heap)
            if reached > dist[node]:
                continue
            for other, weight in _PROBE_GRID[node]:
                candidate = reached + weight
                if dist[other] is None or candidate < dist[other]:
                    dist[other] = candidate
                    heapq.heappush(heap, (candidate, other))
        return time.perf_counter_ns() - started
    finally:
        if collecting:
            gc.enable()


class LineClock(io.StringIO):
    """Stand-in for stdout that stamps the moment each line is completed."""

    def __init__(self) -> None:
        super().__init__()
        self.stamps: list[int] = []

    def write(self, text: str) -> int:
        if "\n" in text:
            self.stamps.extend([time.perf_counter_ns()] * text.count("\n"))
        return super().write(text)


@dataclass
class Call:
    wall_ns: int
    first_ns: int              # from calling run() to its first complete stdout line
    gaps_ns: list[int]         # between consecutive flow lines
    flows: int


@dataclass
class Pass:
    calls: list[Call | None] = field(default_factory=list)   # None where a call failed
    probes_ns: list[int] = field(default_factory=list)       # probe_ns() before each call
    setup_ns: list[list[int]] = field(default_factory=list)  # set-up samples per instance

    @property
    def flows(self) -> int:
        return sum(c.flows for c in self.calls if c is not None)

    @property
    def scale(self) -> float:
        """Factor that turns a time measured in this pass into one at the reference speed."""
        return PROBE_REF_NS / statistics.median(self.probes_ns)


def pass_of_medians(passes: list[Pass], value) -> float:
    """Sum over the instances of each instance's median across the passes.

    `value(call, pass)` gives one sample; failed calls are left out.
    """
    total = 0.0
    for index in range(len(passes[0].calls)):
        samples = [value(p.calls[index], p) for p in passes if p.calls[index] is not None]
        if samples:
            total += statistics.median(samples)
    return total


def scaled_wall(call: Call, in_pass: Pass) -> float:
    return call.wall_ns * in_pass.scale


class Bench:
    """Issues CLI calls, checks each one, and counts attempts and failures."""

    def __init__(self, cli) -> None:
        self.cli = cli
        self.attempted = 0
        self.failed = 0

    def call(self, argv: list[str], check) -> Call | None:
        self.attempted += 1
        out, err = LineClock(), io.StringIO()
        started = time.perf_counter_ns()
        try:
            code = self.cli.run(argv, stdout=out, stderr=err)
        except Exception:  # a traceback is a failed operation, not the end of the run
            return self._fail(argv, traceback.format_exc())
        ended = time.perf_counter_ns()
        if code != 0:
            return self._fail(argv, f"exit code {code}: {err.getvalue().strip()}")
        try:
            flows = check(out.getvalue())
        except CheckError as exc:
            return self._fail(argv, str(exc))
        stamps = out.stamps
        first = stamps[0] if stamps else ended
        gaps = [b - a for a, b in zip(stamps[:flows - 1], stamps[1:flows])]
        return Call(ended - started, first - started, gaps, flows)

    def _fail(self, argv: list[str], reason: str) -> None:
        self.failed += 1
        print(f"bench: {' '.join(argv)}: {reason}", file=sys.stderr)
        return None

    def run_pass(self, workload: Workload, paths: list[str], instances: list[Instance],
                 flowenum=None) -> Pass:
        """One checked call per instance; with `flowenum`, each call follows its set-up samples."""
        result = Pass()
        for path, inst in zip(paths, instances):
            argv = workload.argv(path)
            result.probes_ns.append(probe_ns())
            if flowenum is not None:
                result.setup_ns.append(measure_setup(flowenum, path))
            result.calls.append(self.call(argv, lambda text: check_call(inst, argv, text)))
        return result


def load_program():
    """Import flowenum from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "flowenum" / "__init__.py").is_file():
        raise SystemExit(f"bench: no flowenum sources under {src}")
    sys.path.insert(0, str(src))
    import flowenum.bruteforce
    import flowenum.cli
    import flowenum.core
    import flowenum.dimacs

    if src.resolve() not in Path(flowenum.cli.__file__).resolve().parents:
        raise SystemExit(f"bench: flowenum was imported from {flowenum.cli.__file__}")
    return flowenum


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_context(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "probe_ms": statistics.median(probe_ns() for _ in range(9)) / 1e6,
    }


def oracle_checks(bench: Bench, flowenum, seed: int, work: Path) -> None:
    rng = random.Random(f"oracle/{seed}")
    for number, family in enumerate(ORACLE_FAMILIES):
        inst = family.build(rng)
        path = work / f"oracle{number}.min"
        path.write_text(inst.dimacs())
        net = flowenum.dimacs.parse_dimacs(inst.dimacs())
        for words in ORACLE_WORDS:
            argv = [words[0], str(path), *words[1:]]
            bench.call(argv, lambda text: check_against_oracle(
                inst, argv, text, flowenum.bruteforce, net))


def measure_setup(flowenum, path: str) -> list[int]:
    """Times to read, parse and validate one instance file, SETUP_REPEATS times."""
    samples = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter_ns()
        net = flowenum.dimacs.parse_dimacs(Path(path).read_text(encoding="utf-8"))
        flowenum.core.validate_network(net)
        samples.append(time.perf_counter_ns() - started)
    return samples


def percentile(values: list[int], share: float) -> int:
    """Nearest-rank percentile; 0 when every call failed."""
    if not values:
        return 0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def end_to_end(passes: list[Pass]) -> tuple[dict, list[str]]:
    calls = [c for p in passes for c in p.calls if c is not None]
    instances = len(passes[0].calls)
    setup = [[ns * p.scale for p in passes for ns in p.setup_ns[index]]
             for index in range(instances)]
    metrics = {
        "wall_s": pass_of_medians(passes, scaled_wall) / 1e9,
        "setup_s": sum(statistics.median(series) for series in setup) / 1e9,
        "first_output_ms": pass_of_medians(passes, lambda c, p: c.first_ns * p.scale) / instances / 1e6,
    }
    raw_wall = pass_of_medians(passes, lambda c, p: c.wall_ns) / 1e9
    notes = [
        f"wall_s: one pass of {instances} calls, each the median of {len(passes)} passes; "
        f"unscaled {raw_wall:.4f} s",
        f"setup_s: read, parse and validate the {instances} files, each the median of "
        f"{len(setup[0])} set-ups",
        f"first_output_ms: mean over the instances of their medians; unscaled p90 of all "
        f"{len(calls)} calls {percentile([c.first_ns for c in calls], 0.9) / 1e6:.3f} ms",
        f"speed scale: median {statistics.median(p.scale for p in passes):.4f} over the passes "
        f"(reference probe {PROBE_REF_NS / 1e6:g} ms)",
    ]
    flows = sum(p.flows for p in passes)
    if flows:
        rate = flows / sum(scaled_wall(c, p) for p in passes for c in p.calls if c) * 1e9
        notes.append(f"flows_per_s: {rate:.1f} 1/s, scaled, over {len(passes)} passes")
    else:
        notes.append("flows_per_s: n/a (this command prints no flows)")
    gaps = [g for c in calls for g in c.gaps_ns]
    if len(gaps) >= 1000 * len(passes):
        notes.append(
            f"flow_gap_p50_ms: {percentile(gaps, 0.5) / 1e6:.4f} ms, "
            f"flow_gap_p99_ms: {percentile(gaps, 0.99) / 1e6:.4f} ms, "
            f"unscaled, over {len(gaps)} gaps"
        )
    else:
        notes.append("flow_gap_p50_ms, flow_gap_p99_ms: n/a (fewer than 1000 gaps a pass)")
    return metrics, notes


def layer_snapshot(tracer: Tracer, traced: Pass) -> dict:
    """Per-layer metrics of one traced pass, times scaled like the pass's calls."""
    scale = traced.scale
    values: dict[str, float] = {}
    covered = 0
    for layer in LAYERS:
        calls, self_ns = tracer.layer_totals(layer)
        values[f"{layer}.calls"] = calls
        values[f"{layer}.self_ms"] = self_ns * scale / 1e6
        if layer != "cli":
            covered += self_ns
    for key in FUNCTION_MS:
        values[f"{key}.ms"] = tracer.get(key).inclusive_ns * scale / 1e6
    for key in FUNCTION_CALLS:
        values[f"{key}.calls"] = tracer.get(key).calls
    values["treebounds.bounds.ms"] = sum(
        tracer.get(f"treebounds.{name}").inclusive_ns for name in BOUND_FUNCTIONS
    ) * scale / 1e6
    for name, key in (("enumeration.yield_ratio", "dfs.find_another_feasible_flow"),
                      ("kbest.challenger_ratio", "kbest.find_second_best_flow")):
        record = tracer.get(key)
        values[name] = record.hits / record.calls if record.calls else 0.0
    values["pass.flows"] = traced.flows
    root_ns = tracer.get("cli.run").inclusive_ns
    values["trace.coverage"] = covered / root_ns if root_ns else 0.0
    return values


def per_layer(untraced: list[Pass], traced: list[Pass], snapshots: list[dict]) -> tuple[dict, list[str]]:
    metrics = {name: statistics.median(s[name] for s in snapshots)
               for name in PER_LAYER if name != "trace.overhead"}
    untraced_ns = pass_of_medians(untraced, scaled_wall)
    metrics["trace.overhead"] = (
        pass_of_medians(traced, scaled_wall) / untraced_ns - 1 if untraced_ns else 0.0
    )
    notes = [f"medians of {len(snapshots)} traced passes; overhead against "
             f"{len(untraced)} untraced passes run in turn with them"]
    for name, unit in PER_LAYER.items():
        if unit == "count" and len({s[name] for s in snapshots}) > 1:
            notes.append(f"warning: {name} differs between passes")
    return metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    flowenum = load_program()
    workload = WORKLOADS[args.workload]
    rng = random.Random(f"{args.workload}/{args.seed}")
    instances = [workload.family.build(rng) for _ in range(workload.instances)]
    bench = Bench(flowenum.cli)

    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        work = Path(tmp)
        paths = []
        for number, inst in enumerate(instances):
            path = work / f"{args.workload}-{number}.min"
            path.write_text(inst.dimacs())
            paths.append(str(path))
        print(json.dumps({"context": run_context(args)}))
        oracle_checks(bench, flowenum, args.seed, work)
        bench.run_pass(workload, paths[:1], instances[:1])  # warm-up, checked but not timed

        deadline = time.perf_counter() + args.seconds
        if args.trace:
            untraced, traced, snapshots = [], [], []
            tracer = Tracer()
            while len(traced) < MIN_PASSES or time.perf_counter() < deadline:
                untraced.append(bench.run_pass(workload, paths, instances))
                tracer.reset()
                with tracer:
                    traced.append(bench.run_pass(workload, paths, instances))
                snapshots.append(layer_snapshot(tracer, traced[-1]))
            metrics, notes = per_layer(untraced, traced, snapshots)
            units = PER_LAYER
        else:
            passes = []
            while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
                passes.append(bench.run_pass(workload, paths, instances, flowenum))
            metrics, notes = end_to_end(passes)
            units = END_TO_END

    attempted, failed = bench.attempted, bench.failed
    print(f"# {args.workload} seed {args.seed}: {attempted} calls, {failed} failed, "
          f"failed_ratio {failed / attempted:.4f}")
    for name, unit in units.items():
        print(f"# {name:36s} {metrics[name]:>14.6g} {unit}")
    for note in notes:
        print(f"# {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
