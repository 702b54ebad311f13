"""The pairing tool's gain rule and arguments, on made-up results; no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "pair.py"
spec = importlib.util.spec_from_file_location("pair", TOOL)
pair = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pair)

PARENT = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]  # quartiles 1.225 and 1.675


def runs(values, failed=0, attempted=100, metric=None):
    """`bench/run.py` results with these values of `metric` (of every metric when None),
    each with the given counts; any other metric reads 1.0."""
    return [{"metrics": {name: {"value": value if metric in (None, name) else 1.0}
                         for name in pair.METRICS},
             "failed": failed, "attempted": attempted} for value in values]


def test_summary_reads_inclusive_quartiles():
    assert pair.summary(list(reversed(PARENT))) == {
        "median": 1.45, "q1": 1.225, "q3": 1.675, "runs": PARENT}
    assert pair.summary([2.0, 1.0]) == {"median": 1.5, "q1": 1.25, "q3": 1.75, "runs": [1.0, 2.0]}


def test_nine_of_ten_pairs_must_be_won_and_ties_count_for_neither_side():
    faster = [wall - 0.9 for wall in PARENT]
    for metric in pair.METRICS:
        for losses, ties, gain in ((0, 0, True), (1, 0, True), (0, 1, True), (2, 0, False),
                                   (1, 1, False), (0, 2, False)):
            change = faster[:]
            for index in range(losses):
                change[index] = PARENT[index] + 0.1
            for index in range(losses, losses + ties):
                change[index] = PARENT[index]
            met, figures = pair.shows_gain(runs(PARENT, metric=metric),
                                           runs(change, metric=metric), metric)
            assert figures["pairs_won"] == f"{10 - losses - ties}/10"
            assert met is gain


def test_the_median_gain_must_exceed_the_parents_iqr():
    # Each figure's key ends in its metric's unit.
    for metric, unit in (("wall_s", "s"), ("setup_s", "s"), ("first_output_ms", "ms")):
        for step, gain in ((0.01, False), (0.44, False), (0.46, True)):
            met, figures = pair.shows_gain(runs(PARENT, metric=metric),
                                           runs([wall - step for wall in PARENT], metric=metric),
                                           metric)
            assert figures["pairs_won"] == "10/10" and figures[f"parent_iqr_{unit}"] == 0.45
            assert figures[f"median_gain_{unit}"] == step
            assert met is gain


def test_fewer_than_ten_pairs_never_show_a_gain():
    for metric in pair.METRICS:
        for count in (2, 5, 9):
            met, figures = pair.shows_gain(runs(PARENT[:count], metric=metric),
                                           runs([0.1] * count, metric=metric), metric)
            assert figures["pairs_won"] == f"{count}/{count}"
            assert not met
        assert pair.shows_gain(runs(PARENT, metric=metric), runs([0.1] * 10, metric=metric),
                               metric)[0]


def test_a_larger_failed_share_on_the_change_shows_no_gain():
    faster = [wall - 0.5 for wall in PARENT]
    for metric in pair.METRICS:
        for parent, change, gain in (((0, 100), (1, 100), False), ((1, 100), (2, 100), False),
                                     ((1, 100), (1, 100), True), ((2, 100), (1, 100), True),
                                     ((1, 100), (2, 300), True)):
            met, figures = pair.shows_gain(runs(PARENT, *parent, metric=metric),
                                           runs(faster, *change, metric=metric), metric)
            assert figures["pairs_won"] == "10/10"
            assert met is gain


def usage_error(monkeypatch, tmp_path, capsys, extra):
    """`main` on one workload `w` plus `extra` exits 2 before any run, writing no report; its stderr."""
    def bench_run(*args):
        raise AssertionError("bench_run was called")

    monkeypatch.setattr(pair, "bench_run", bench_run)
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exit_:
        pair.main(["--parent", ".", "--change", ".", "--workload", "w", "--out", str(out), *extra])
    assert exit_.value.code == 2
    assert not out.exists()
    return capsys.readouterr().err


@pytest.mark.parametrize("pairs", ["1", "0", "-3"])
def test_fewer_than_two_pairs_is_a_usage_error_before_any_run(monkeypatch, tmp_path, capsys, pairs):
    assert f"--pairs {pairs}:" in usage_error(monkeypatch, tmp_path, capsys, ["--pairs", pairs])


@pytest.mark.parametrize("claim", ["w/latency", "w/", "w/wall", "w/wall_s/x", "v", "v/wall_s"])
def test_a_claim_off_the_workloads_or_metrics_run_is_a_usage_error_before_any_run(
        monkeypatch, tmp_path, capsys, claim):
    assert f"--claim {claim}:" in usage_error(monkeypatch, tmp_path, capsys, ["--claim", claim])


def test_a_claim_is_judged_on_its_metric_and_unclaimed_gains_on_wall_s(monkeypatch, tmp_path):
    # Only w's first_output_ms and v's wall_s gain; every other figure ties.
    gaining = {("w", "first_output_ms"), ("v", "wall_s")}

    def bench_run(checkout, workload, seed, seconds):
        change = checkout.name == "change"
        return {"metrics": {metric: {"value": 0.1 if change and (workload, metric) in gaining
                                     else 1.0} for metric in pair.METRICS},
                "failed": 0, "attempted": 1}

    monkeypatch.setattr(pair, "bench_run", bench_run)
    monkeypatch.setattr(pair, "git_head", lambda checkout: None)
    out = tmp_path / "out.json"
    for claim, metric, met, won, unclaimed in (
            ("w/first_output_ms", "first_output_ms", True, "10/10", ["v"]),
            ("w", "wall_s", False, "0/10", ["v"]),
            ("w/wall_s", "wall_s", False, "0/10", ["v"]),
            ("v/first_output_ms", "first_output_ms", False, "0/10", [])):
        assert pair.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                          "--pairs", "10", "--workload", "w", "--workload", "v", "--claim", claim,
                          "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["claim"]["workload"] == claim.partition("/")[0]
        assert report["claim"]["metric"] == metric
        assert report["claim"]["met"] is met and report["claim"]["pairs_won"] == won
        assert report["unclaimed_gains"] == unclaimed
        assert report["workloads"]["w"]["wall_s_pairs_won_by_change"] == "0/10"
        assert report["workloads"]["v"]["wall_s_pairs_won_by_change"] == "10/10"


def test_each_side_keeps_its_own_operation_counts(monkeypatch, tmp_path):
    calls = []

    def bench_run(checkout, workload, seed, seconds):
        side = "change" if checkout.name == "change" else "parent"
        calls.append((side, seed))
        return runs([0.1 if side == "change" else 1.0], failed=3 * (side == "change"),
                    attempted=50)[0]

    monkeypatch.setattr(pair, "bench_run", bench_run)
    monkeypatch.setattr(pair, "git_head", lambda checkout: None)
    out = tmp_path / "out.json"
    assert pair.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                      "--pairs", "10", "--seconds", "1", "--workload", "w", "--claim", "w",
                      "--out", str(out)]) == 0
    assert calls[:4] == [("parent", 3), ("change", 3), ("change", 104729), ("parent", 104729)]
    report = json.loads(out.read_text())
    entry = report["workloads"]["w"]
    assert entry["failed"] == {"parent": 0, "change": 30}
    assert entry["attempted"] == {"parent": 500, "change": 500}
    assert entry["wall_s_pairs_won_by_change"] == "10/10"
    # Every pair won by far, yet the change failed more operations, so the claim is not met.
    assert report["claim"]["met"] is False and report["unclaimed_gains"] == []


def source_tree(root: Path) -> Path:
    """A checkout with no git: two source files, one in a subpackage, and one file outside `src`."""
    for name, text in (("src/pkg/__init__.py", "x = 1\n"), ("src/pkg/sub/mod.py", "y = 2\n"),
                       ("README.md", "notes\n")):
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


def test_equal_source_trees_hash_alike_and_a_one_byte_edit_does_not(tmp_path):
    parent, change = source_tree(tmp_path / "parent"), source_tree(tmp_path / "change")
    assert pair.src_digest(parent) == pair.src_digest(change)
    (change / "README.md").write_text("other notes\n")  # outside `src`
    assert pair.src_digest(parent) == pair.src_digest(change)
    (change / "src/pkg/sub/mod.py").write_text("y = 3\n")
    assert pair.src_digest(parent) != pair.src_digest(change)


def test_the_report_names_both_source_digests_without_git(monkeypatch, tmp_path):
    parent, change = source_tree(tmp_path / "parent"), source_tree(tmp_path / "change")
    (change / "src/pkg/__init__.py").write_text("x = 2\n")
    monkeypatch.setattr(pair, "bench_run", lambda *args: runs([1.0])[0])
    monkeypatch.setattr(pair, "git_head", lambda checkout: None)
    out = tmp_path / "out.json"
    assert pair.main(["--parent", str(parent), "--change", str(change), "--pairs", "2",
                      "--workload", "w", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["parent_commit"] is None
    assert report["src_sha256"] == {"parent": pair.src_digest(parent),
                                    "change": pair.src_digest(change)}
    assert report["src_sha256"]["parent"] != report["src_sha256"]["change"]


def test_nproc_counts_the_cpus_the_runs_may_use(monkeypatch, tmp_path):
    # bench/run.py records the affinity count; the machine's count can be larger.
    monkeypatch.setattr(pair.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(pair.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(pair, "bench_run", lambda *args: runs([1.0])[0])
    monkeypatch.setattr(pair, "git_head", lambda checkout: None)
    out = tmp_path / "out.json"
    assert pair.main(["--parent", ".", "--change", ".", "--pairs", "2", "--workload", "w",
                      "--out", str(out)]) == 0
    assert json.loads(out.read_text())["nproc"] == 2


def test_a_failed_run_names_itself_and_its_stderr_and_writes_no_report(monkeypatch, tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    result = json.dumps(runs([1.0])[0])

    def run(argv, cwd, capture_output, text, check):
        seed = argv[argv.index("--seed") + 1]
        if cwd == change and seed == "104729":
            stderr = "".join(f"line {number}\n" for number in range(30)) + "ValueError: boom\n"
            done = pair.subprocess.CompletedProcess(argv, 3, "", stderr)
        else:
            done = pair.subprocess.CompletedProcess(argv, 0, f"# people\n{result}\n", "")
        if check:
            done.check_returncode()
        return done

    monkeypatch.setattr(pair.subprocess, "run", run)
    monkeypatch.setattr(pair, "git_head", lambda checkout: None)
    out = tmp_path / "out.json"
    assert pair.main(["--parent", str(parent), "--change", str(change), "--pairs", "4",
                      "--workload", "w", "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "pair: change w seed 104729: bench/run.py exited 3; its stderr ends:" in err
    assert err.rstrip().endswith("ValueError: boom")
    tail = err[err.index("its stderr ends:"):]
    assert "line 29" in tail and "line 10" not in tail  # the last STDERR_TAIL lines only
    assert "Traceback" not in err


def test_a_median_worse_than_the_parents_iqr_is_listed_and_printed(monkeypatch, tmp_path, capsys):
    # Per workload and metric, the change's runs are the parent's shifted by `step`:
    # only a shift past the parent's IQR (0.45 here) is worse; a gain never is.
    steps = {("a", "wall_s"): 0.46, ("a", "setup_s"): 0.44, ("b", "first_output_ms"): 1.0,
             ("b", "wall_s"): -1.0}
    walls = {}

    def bench_run(checkout, workload, seed, seconds):
        side = checkout.name
        index = walls.setdefault((workload, side), [0])
        wall = PARENT[index[0]]
        index[0] += 1
        return {"metrics": {metric: {"value": wall + (side == "change") * steps.get((workload, metric), 0)}
                            for metric in pair.METRICS}, "failed": 0, "attempted": 1}

    monkeypatch.setattr(pair, "bench_run", bench_run)
    monkeypatch.setattr(pair, "git_head", lambda checkout: None)
    out = tmp_path / "out.json"
    assert pair.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                      "--pairs", "10", "--workload", "a", "--workload", "b", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert [(entry["workload"], entry["metric"]) for entry in report["worse"]] == [
        ("a", "wall_s"), ("b", "first_output_ms")]
    assert report["worse"][0] == {"workload": "a", "metric": "wall_s", "parent_median": 1.45,
                                  "change_median": 1.91, "parent_iqr": 0.45}
    err = capsys.readouterr().err
    assert "pair: worse: a wall_s median 1.45 -> 1.91, parent IQR 0.45" in err
    assert "pair: worse: b first_output_ms median 1.45 -> 2.45, parent IQR 0.45" in err
    assert "setup_s" not in err and report["unclaimed_gains"] == ["b"]


def test_a_rise_within_the_floor_is_not_worse():
    # BENCH_30.json listed enum-ties setup_s at 0.0096 -> 0.0097 s on a parent IQR of 0.0001 s.
    parent = {"median": 0.0096, "q1": 0.0095, "q3": 0.0096}
    assert not pair.is_worse(parent, {"median": 0.0097})
    assert pair.is_worse(parent, {"median": round(0.0096 * 1.1, 4)})


def test_an_a_a_run_lists_nothing_worse(monkeypatch, tmp_path):
    monkeypatch.setattr(pair, "bench_run", lambda checkout, workload, seed, seconds: runs([1.0])[0])
    monkeypatch.setattr(pair, "git_head", lambda checkout: None)
    out = tmp_path / "out.json"
    assert pair.main(["--parent", ".", "--change", ".", "--pairs", "2", "--workload", "w",
                      "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["worse"] == [] and report["worse_floor"] == pair.WORSE_FLOOR == 0.02
