"""Alternating parent/change pairs of `bench/run.py`, written as one BENCH_<n>.json.

Run from anywhere, with two checkouts that hold the same `bench/`:

    python3 tools/pair.py --parent ../parent --change . --pairs 10 --seconds 5 \\
        --workload enum-ties --workload kbest-ranked --claim enum-ties/first_output_ms \\
        --out BENCH_30.json

Each round runs every workload once per side, in the checkout's own
directory (`bench/run.py` loads the program from the checkout it sits in).
Even rounds run the parent first and odd rounds the change first; the seed
goes round the given seeds by round.  Per workload and end-to-end metric
the file holds each side's runs, median and quartiles (inclusive method),
and for `wall_s` the pairs the change won, ties counting for neither side.
Per workload, `failed` and `attempted` hold each side's operation counts.
`src_sha256` holds each side's `src_digest`, so the file says what it
compared also when a checkout is not a git work tree (`parent_commit` is
then null).  `nproc` is the number of CPUs the runs may use, as
`bench/run.py` counts them.  A run that exits non-zero ends the tool with
status 1 and no file, after it prints the run's side, workload, seed, exit
code and the last lines of its stderr.

A workload shows a gain on a metric when the change won at least nine
tenths of at least ten pairs on it, its median is below the parent's by
more than the parent's interquartile range, and its share of failed
operations is no larger than the parent's.  `--claim WORKLOAD/METRIC`
names the workload and end-to-end metric whose gain the change claims (a
plain `WORKLOAD` claims `wall_s`); the `claim` entry says whether it was
met, with the pairs won on that metric.  Any other workload that shows a
`wall_s` gain is listed under `unclaimed_gains`, so a run with the parent
given twice (an A/A run) must list none and meet no claim.

Every end-to-end metric is better when lower.  `worse` lists each workload
and metric whose change median exceeds the parent's by more than both the
parent's interquartile range and `worse_floor` (2%) of the parent's median,
and each is also printed to stderr.  The floor keeps a rise of one rounding
step off the list when the parent's runs barely spread.  It is a warning,
not a rule: a few pairs are too noisy to decide on.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("wall_s", "setup_s", "first_output_ms")
WALL = "wall_s"  # the metric of a plain --claim, of unclaimed_gains and of the progress lines
STDERR_TAIL = 20  # lines of a failed run's stderr that are printed
WORSE_FLOOR = 0.02  # the least rise, as a share of the parent median, that `worse` lists


def bench_run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `bench/run.py` run in `checkout`: its last stdout line, parsed."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seconds", str(seconds),
            "--trace", "0", "--seed", str(seed)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "runs": sorted(round(value, 4) for value in runs)}


def is_worse(parent: dict, change: dict) -> bool:
    """Does the change's median pass the parent's by more than both the parent's IQR and the floor?

    Both sides are `summary` results."""
    rise = change["median"] - parent["median"]
    return rise > round(parent["q3"] - parent["q1"], 4) and rise > WORSE_FLOOR * parent["median"]


def failed_share(runs: list[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def shows_gain(parent_runs: list[dict], change_runs: list[dict],
               metric: str = WALL) -> tuple[bool, dict]:
    """The gain rule on `metric` of paired `bench/run.py` results, and the figures it read.

    Each figure's key ends in the metric's unit, as the metric's name does."""
    parent, change = ([run["metrics"][metric]["value"] for run in runs]
                      for runs in (parent_runs, change_runs))
    won = sum(theirs > mine for theirs, mine in zip(parent, change))
    q1, median, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    gain = median - statistics.median(change)
    unit = metric.rsplit("_", 1)[-1]
    figures = {"pairs_won": f"{won}/{len(parent)}", f"median_gain_{unit}": round(gain, 4),
               "median_gain_ratio": round(gain / median, 3), f"parent_iqr_{unit}": round(q3 - q1, 4),
               f"parent_median_{unit}": round(median, 4),
               f"change_median_{unit}": round(statistics.median(change), 4)}
    return (len(parent) >= 10 and 10 * won >= 9 * len(parent) and gain > q3 - q1
            and failed_share(change_runs) <= failed_share(parent_runs)), figures


def git_head(checkout: Path) -> str | None:
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True,
                          text=True)
    return done.stdout.strip() or None


def src_digest(checkout: Path) -> str:
    """sha256 over `src/**/*.py` in `checkout`, sorted by relative path: each path, its size, its bytes."""
    digest = hashlib.sha256()
    for name in sorted(path.relative_to(checkout).as_posix() for path in checkout.glob("src/**/*.py")):
        data = (checkout / name).read_bytes()
        digest.update(f"{name}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, action="append", help="default: 3 and 104729")
    parser.add_argument("--pairs", type=int, default=10, help="at least 2")
    parser.add_argument("--seconds", type=float, default=5)
    parser.add_argument("--claim", metavar="WORKLOAD[/METRIC]",
                        help="the workload and end-to-end metric whose gain is claimed "
                        f"(default metric {WALL})")
    parser.add_argument("--target", default="", help="the claim's expected figures, as text")
    parser.add_argument("--text", default="", help="what the change does")
    parser.add_argument("--note", default="")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    seeds = args.seed or [3, 104729]
    if args.pairs < 2:
        parser.error(f"--pairs {args.pairs}: quartiles need at least 2 runs per side")
    claimed = None
    if args.claim is not None:
        claimed, slash, claimed_metric = args.claim.partition("/")
        claimed_metric = claimed_metric if slash else WALL
        if claimed not in args.workload:
            parser.error(f"--claim {args.claim}: {claimed} is not among the workloads run")
        if claimed_metric not in METRICS:
            parser.error(f"--claim {args.claim}: {claimed_metric!r} is not one of "
                         f"{', '.join(METRICS)}")

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {(workload, side): [] for workload in args.workload for side in sides}
    for round_ in range(args.pairs):
        seed = seeds[round_ % len(seeds)]
        for workload in args.workload:
            for side in (("parent", "change") if round_ % 2 == 0 else ("change", "parent")):
                try:
                    result = bench_run(sides[side], workload, seed, args.seconds)
                except subprocess.CalledProcessError as failed:
                    tail = "\n".join(failed.stderr.splitlines()[-STDERR_TAIL:])
                    print(f"pair: {side} {workload} seed {seed}: bench/run.py exited "
                          f"{failed.returncode}; its stderr ends:\n{tail}", file=sys.stderr)
                    return 1
                runs[workload, side].append(result)
                print(f"# round {round_} {workload} seed {seed} {side}: "
                      f"{result['metrics'][WALL]['value']:.4f} s", file=sys.stderr)

    workloads, gains, regressions = {}, {}, []
    for workload in args.workload:
        entry = {}
        for metric in METRICS:
            entry[metric] = {side: summary([run["metrics"][metric]["value"]
                                            for run in runs[workload, side]]) for side in sides}
            parent, change = entry[metric]["parent"], entry[metric]["change"]
            iqr = round(parent["q3"] - parent["q1"], 4)
            if is_worse(parent, change):
                regressions.append({"workload": workload, "metric": metric,
                                    "parent_median": parent["median"],
                                    "change_median": change["median"], "parent_iqr": iqr})
                print(f"pair: worse: {workload} {metric} median {parent['median']} -> "
                      f"{change['median']}, parent IQR {iqr}", file=sys.stderr)
        gains[workload] = shows_gain(runs[workload, "parent"], runs[workload, "change"])
        entry[f"{WALL}_pairs_won_by_change"] = gains[workload][1]["pairs_won"]
        for count in ("failed", "attempted"):
            entry[count] = {side: sum(run[count] for run in runs[workload, side]) for side in sides}
        workloads[workload] = entry

    report = {
        "change": args.text,
        "parent_commit": git_head(sides["parent"]),
        "src_sha256": {side: src_digest(checkout) for side, checkout in sides.items()},
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "command": f"python3 bench/run.py --workload W --seconds {args.seconds:g} --trace 0 --seed S",
        "method": "alternating parent/change pairs (even rounds parent first, odd rounds change "
                  "first), seeds alternating by round, every workload once per side and round, "
                  "each side run from its own checkout; medians and quartiles (inclusive "
                  "method) over all runs of a side; written by tools/pair.py",
        "seeds": seeds,
        "pairs": {workload: args.pairs for workload in args.workload},
        "note": args.note,
    }
    if claimed is not None:
        met, figures = shows_gain(runs[claimed, "parent"], runs[claimed, "change"],
                                  claimed_metric)
        report["claim"] = {"workload": claimed, "metric": claimed_metric, "target": args.target,
                           "met": met, **figures}
    report["unclaimed_gains"] = [workload for workload, (met, _) in gains.items()
                                 if met and workload != claimed]
    report["worse_floor"] = WORSE_FLOOR
    report["worse"] = regressions
    report["workloads"] = workloads
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
