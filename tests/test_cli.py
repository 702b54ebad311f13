import argparse
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from itertools import islice
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import flowenum.cli
import flowenum.treebounds
from flowenum.cli import DEFAULT_ENUMERATION_LIMIT, run
from flowenum.core import Arc, Flow, Network, check_feasible, flow_cost, frame_of, validate_network
from flowenum.dimacs import serialize_dimacs
from flowenum.enumeration import _flows_after, iter_optimal_flows
from flowenum.errors import DimensionMismatchError, InvariantError
from flowenum.solver import _solve
from flowenum.treebounds import _certified_costs, _tree_solution, zero_cost_nontree_set

from helpers import random_feasible_network, random_grid_network


def invoke(argv):
    out = io.StringIO()
    err = io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    lines = [json.loads(line) for line in out.getvalue().splitlines()]
    return code, lines, err.getvalue()


def write_instance(tmp_path, net, name="instance.min"):
    path = tmp_path / name
    path.write_text(serialize_dimacs(net), encoding="utf-8")
    return str(path)


# One past the largest count that `itertools.islice` takes.
TOO_LARGE = str(sys.maxsize + 1)


def flows_and_summary(lines):
    assert lines, "expected at least a summary line"
    summary = lines[-1]
    assert "command" in summary
    flows = lines[:-1]
    assert all(set(flow) == {"cost", "flow"} for flow in flows)
    return flows, summary


class TestSolve:
    def test_chain3(self, tmp_path, chain3_network):
        code, lines, _ = invoke(["solve", write_instance(tmp_path, chain3_network)])
        assert code == 0
        flows, summary = flows_and_summary(lines)
        assert len(flows) == 1
        assert flows[0] == {"cost": 1, "flow": [1, 1, 0]}
        assert summary["count"] == 1
        assert summary["optimal_cost"] == 1
        assert summary["nodes"] == 3 and summary["arcs"] == 3

    def test_infeasible_exits_one(self, tmp_path):
        path = tmp_path / "bad.min"
        path.write_text("p min 2 1\nn 1 1\nn 2 -1\na 1 2 0 0 1\n", encoding="utf-8")
        code, lines, err = invoke(["solve", str(path)])
        assert code == 1
        assert lines[-1]["infeasible"] is True
        assert list(lines[-1]) == ["command", "nodes", "arcs", "elapsed_ms", "count", "infeasible"]


class TestEnumerate:
    def test_eleven_optima_emits_eleven(self, tmp_path, eleven_optima_network):
        code, lines, _ = invoke(["enumerate", write_instance(tmp_path, eleven_optima_network)])
        assert code == 0
        flows, summary = flows_and_summary(lines)
        assert len(flows) == 11
        assert summary["count"] == 11
        assert all(flow["cost"] == 0 for flow in flows)
        assert len({tuple(flow["flow"]) for flow in flows}) == 11
        assert summary["limit_reached"] is False

    def test_blocked_instance_emits_one(self, tmp_path, blocked_cycle_network):
        code, lines, _ = invoke(["enumerate", write_instance(tmp_path, blocked_cycle_network)])
        assert code == 0
        flows, summary = flows_and_summary(lines)
        assert len(flows) == 1 and summary["count"] == 1

    def test_limit_flag(self, tmp_path, eleven_optima_network):
        code, lines, _ = invoke(
            ["enumerate", write_instance(tmp_path, eleven_optima_network), "--limit", "4"]
        )
        assert code == 0
        flows, summary = flows_and_summary(lines)
        assert len(flows) == 4
        assert summary["limit_reached"] is True

    def test_limit_equal_to_the_count_is_not_reached(self, tmp_path, chain3_network):
        # chain3 (the README's demo.min) has exactly one optimum.
        path = write_instance(tmp_path, chain3_network)
        code, lines, _ = invoke(["enumerate", path, "--limit", "1"])
        assert code == 0
        flows, summary = flows_and_summary(lines)
        assert len(flows) == 1
        assert summary["limit_reached"] is False
        code, lines, _ = invoke(["bounds", path, "--exact", "--limit", "1"])
        assert code == 0
        assert lines[-1]["exact_count"] == 1
        assert lines[-1]["limit_reached"] is False

    def test_bounds_limit_below_the_count_is_reached(self, tmp_path, eleven_optima_network):
        code, lines, _ = invoke(
            ["bounds", write_instance(tmp_path, eleven_optima_network), "--exact", "--limit", "4"]
        )
        assert code == 0
        assert lines[-1]["exact_count"] == 4
        assert lines[-1]["limit_reached"] is True

    def test_nonpositive_limit_is_usage_error(self, tmp_path, chain3_network):
        path = write_instance(tmp_path, chain3_network)
        for argv in (["enumerate", path, "--limit", "0"],
                     ["enumerate", path, "--limit", "-3"],
                     ["enumerate", path, "--limit", "abc"],
                     ["enumerate", path, "--limit", TOO_LARGE],
                     ["bounds", path, "--exact", "--limit", "0"],
                     ["bounds", path, "--exact", "--limit", TOO_LARGE],
                     ["verify", path, "--limit", "-3"],
                     ["verify", path, "--limit", TOO_LARGE]):
            code, lines, err = invoke(argv)
            assert code == 2 and lines == []
            assert "positive integer" in err and str(sys.maxsize) in err


# sha256 of `kbest 10` stdout, elapsed_ms removed, on random_grid_network(
# random.Random(seed), 8, 8).  Recorded before the K-best searches were
# pruned; any change to K-best flow order or tie choice shows here.
KBEST_GOLDEN = {
    1: "6bc9aaaba1364afa4f7f5ede2572a4b3bc8319fde0cbcf07ad07d2f4ad2fadaf",
    2: "406f53b61b2f2f07b7ae60ee923a56c524ad0f4f3c652d49401c77caddedac5c",
    3: "8704fa1b52e93db3a051ceabc8a8f3978312af4b2eecc3114248927f18a5d3cb",
    4: "8d9f5cf92a5d2d7e7a9de99e0b68e8782fb6159eceaea84f03fa07cffec31bf5",
    5: "8256ac0ce3d74163d509fcbf1a17ff6748e9d1797779145eaaf3da545ee3f5fc",
}


# sha256 of `solve` and of `bounds --exact` stdout, elapsed_ms removed, on
# random_grid_network(random.Random(seed), 12, 12, both_ways=True).  Recorded
# while every augmentation still ran a full Dijkstra; any change to the
# solver's path or target choice shows here.
SOLVE_GOLDEN = {
    1: "e3be940dd3eb3b6d8092d3f24eb556f724dd9728936c25a780ce97e5d446cfd8",
    2: "50a7b032ca167c2c31b0b6919e598c1714eb775be852dc38f60d812fe6f9616d",
    3: "6462f246ed97e671c0de47896fcdb82579716a8abce1d9f0e4070987c8e2ba19",
}
BOUNDS_GOLDEN = {
    1: "2176d940257a2b6e9796e72370b6f672604e36a6a1a07e744c9de4e60bddde5c",
    2: "b3ac7adbc84f0e1fb937ec3e50c0400a9ec23e99229610c7499970c75b39f320",
    3: "2431859472ff8ef3e232b5d902eeff712b118c16d412974c0694b671a797417a",
}

# sha256 of `bounds` stdout, elapsed_ms removed, and the number of free
# cycles canceled before the first tree, on the zero-cost grids
# random_grid_network(random.Random(seed), 6, 6, min_cost=0, max_cost=0,
# both_ways=True).  Recorded while the free-cycle search had a DFS of its
# own; a change to which cycle is found first shows here.  These grids have
# too many optima for --exact.
FREE_CYCLE_GOLDEN = {
    1: ("39f239096d9f6a17530fe9e48ae086ed07518da051ee563693e132bd99109022", 5),
    2: ("eb23df173b9e0d7e97d7ff694ab57eebe8c350f6af1ddd385873108c953f62df", 1),
    3: ("8fb78b3c935e06da81e0ba8aa6227d74376ba963dce00a0a82509129cf780d23", 2),
}

# sha256 of `enumerate --limit 150` stdout, elapsed_ms removed, keyed by
# (family, seed), and of `kbest 10` on the zero-cost grids, where every offer
# is answered by another optimum.  "grid" is the FREE_CYCLE_GOLDEN grid;
# "parallel" is random_feasible_network(random.Random(seed), max_nodes=8,
# max_arcs=30, max_cost=0), whose many parallel arcs reach the proper-cycle
# search's pass over two-arc cycles.  Recorded while each search still built
# a residual graph of objects; any change to the enumeration order shows here.
ENUMERATE_GOLDEN = {
    ("grid", 1): "a3b306e52e9027bb611131482233683f0149343a439e7cdff1c2b9b53aac9012",
    ("grid", 2): "429f2ce7362fed9aa461a446907755d8f170fc5b8359f92f582c339a20c1ea7c",
    ("grid", 3): "dcd8ff21aaa7ee60fc2baeae43bf3902eb4bffc7d8137bdd3ef27dea2a9f6e50",
    ("parallel", 1): "17d3fd6e47592ddc68e7c5f9e561f4e0e5e0ea8cd787355004ab8a8ffcb483e5",
    ("parallel", 2): "3d55a2e3a3da7986863ede30f176585ab80f691abd199fa1428790fa6df0ac6e",
    ("parallel", 5): "0f3fa4c8dd1e0ee0e2c938be5dc91b6e16675b010802bebb15fcd5a04c626596",
}
TIED_KBEST_GOLDEN = {
    1: "d0212cdfb7f78e357eb681230e18b2997320a16418576f8440724498d1caa134",
    2: "45ef714b8cddd27b0aba501832634f975f46989177914b05e137e6b1bf2f0816",
    3: "5b604acf22f8d78eaa0e747a75d3670d80d8d9a988172bc9677c86342f72d36c",
}


def zero_cost_grid(seed):
    return random_grid_network(random.Random(seed), 6, 6, min_cost=0, max_cost=0, both_ways=True)


def stdout_digest(tmp_path, net, words):
    """sha256 of the command's stdout on net, with elapsed_ms removed."""
    code, lines, _ = invoke([words[0], write_instance(tmp_path, net), *words[1:]])
    assert code == 0
    lines[-1].pop("elapsed_ms")
    text = "\n".join(json.dumps(line) for line in lines)
    return hashlib.sha256(text.encode()).hexdigest()


class TestPinnedOutput:
    @pytest.mark.parametrize("seed", sorted(SOLVE_GOLDEN))
    def test_solve_on_two_way_grids_is_pinned(self, tmp_path, seed):
        net = random_grid_network(random.Random(seed), 12, 12, both_ways=True)
        assert stdout_digest(tmp_path, net, ["solve"]) == SOLVE_GOLDEN[seed]

    @pytest.mark.parametrize("seed", sorted(BOUNDS_GOLDEN))
    def test_bounds_on_two_way_grids_is_pinned(self, tmp_path, seed):
        net = random_grid_network(random.Random(seed), 12, 12, both_ways=True)
        assert stdout_digest(tmp_path, net, ["bounds", "--exact"]) == BOUNDS_GOLDEN[seed]

    @pytest.mark.parametrize("seed", sorted(FREE_CYCLE_GOLDEN))
    def test_bounds_after_free_cycles_is_pinned(self, tmp_path, monkeypatch, seed):
        found = []
        find = flowenum.treebounds._find_free_cycle

        def counted(*args):
            walk = find(*args)
            if walk is not None:
                found.append(walk)
            return walk

        monkeypatch.setattr(flowenum.treebounds, "_find_free_cycle", counted)
        net = zero_cost_grid(seed)
        digest, canceled = FREE_CYCLE_GOLDEN[seed]
        assert stdout_digest(tmp_path, net, ["bounds"]) == digest
        assert len(found) == canceled

    @pytest.mark.parametrize("family, seed", sorted(ENUMERATE_GOLDEN))
    def test_enumeration_order_is_pinned(self, tmp_path, family, seed):
        if family == "grid":
            net = zero_cost_grid(seed)
        else:
            net, _ = random_feasible_network(random.Random(seed), max_nodes=8, max_arcs=30, max_cost=0)
        words = ["enumerate", "--limit", "150"]
        assert stdout_digest(tmp_path, net, words) == ENUMERATE_GOLDEN[family, seed]

    @pytest.mark.parametrize("seed", sorted(TIED_KBEST_GOLDEN))
    def test_kbest_on_zero_cost_grids_is_pinned(self, tmp_path, seed):
        net = zero_cost_grid(seed)
        assert stdout_digest(tmp_path, net, ["kbest", "10"]) == TIED_KBEST_GOLDEN[seed]


class TestKBest:
    @pytest.mark.parametrize("seed", sorted(KBEST_GOLDEN))
    def test_flow_order_on_grids_is_pinned(self, tmp_path, seed):
        net = random_grid_network(random.Random(seed), 8, 8)
        assert stdout_digest(tmp_path, net, ["kbest", "10"]) == KBEST_GOLDEN[seed]

    def test_chain3_two_best(self, tmp_path, chain3_network):
        code, lines, _ = invoke(["kbest", write_instance(tmp_path, chain3_network), "2"])
        assert code == 0
        flows, summary = flows_and_summary(lines)
        assert [flow["cost"] for flow in flows] == [1, 2]
        assert summary["count"] == 2 and summary["requested"] == 2

    def test_bad_k_is_usage_error(self, tmp_path, chain3_network):
        for k in ("0", TOO_LARGE):
            code, lines, err = invoke(["kbest", write_instance(tmp_path, chain3_network), k])
            assert code == 2 and lines == []
            assert "positive integer" in err


class TestBounds:
    def test_blocked_instance(self, tmp_path, blocked_cycle_network):
        code, lines, _ = invoke(
            ["bounds", write_instance(tmp_path, blocked_cycle_network), "--exact"]
        )
        assert code == 0
        summary = lines[-1]
        assert summary["upper_bound"] == 11
        assert summary["lower_bound"] == 1
        assert summary["lower_bound_min_reading"] == 0
        assert summary["exact_count"] == 1

    def test_eleven_optima(self, tmp_path, eleven_optima_network):
        code, lines, _ = invoke(
            ["bounds", write_instance(tmp_path, eleven_optima_network), "--exact"]
        )
        assert code == 0
        summary = lines[-1]
        assert summary["upper_bound"] == 11
        assert summary["lower_bound"] == 10
        assert summary["lower_bound_min_reading"] == 1
        assert summary["exact_count"] == 11
        assert summary["feasible_upper_bound"] == 44

    def test_limit_without_exact_is_usage_error(self, tmp_path):
        # Only --exact counts flows, so a limit without it would be ignored.
        path = tmp_path / "cycle.min"
        path.write_text("p min 3 3\na 1 2 0 1 0\na 2 3 0 1 0\na 3 1 0 1 0\n", encoding="utf-8")
        code, lines, err = invoke(["bounds", str(path), "--limit", "1"])
        assert code == 2 and lines == []
        assert err.startswith("usage: flowenum bounds")
        assert "flowenum bounds: error: --limit needs --exact" in err

    def test_exact_without_limit_stops_at_the_default(self, tmp_path, monkeypatch, eleven_optima_network):
        path = write_instance(tmp_path, eleven_optima_network)
        monkeypatch.setattr(flowenum.cli, "DEFAULT_ENUMERATION_LIMIT", 4)
        code, lines, _ = invoke(["bounds", path, "--exact"])
        assert code == 0
        assert lines[-1]["exact_count"] == 4 and lines[-1]["limit_reached"] is True

    def test_each_cycle_capacity_is_read_once(self, tmp_path, monkeypatch, eleven_optima_network):
        # The tree arcs are (2, 3, 5, 6), so arcs 0, 1 and 4 close the induced cycles.
        read = []
        capacities = flowenum.cli._capacities
        monkeypatch.setattr(flowenum.cli, "_capacities", lambda ts, frame, values, arcs:
                            read.append(list(arcs)) or capacities(ts, frame, values, arcs))
        code, lines, _ = invoke(["bounds", write_instance(tmp_path, eleven_optima_network)])
        assert code == 0 and lines[-1]["feasible_lower_bound"] == 10
        assert read == [[0, 1, 4]]

    def test_exact_count_solves_once(self, tmp_path, monkeypatch, eleven_optima_network):
        import flowenum.enumeration
        import flowenum.solver

        calls = []
        solve = flowenum.solver._solve

        def counted(net):
            calls.append(net)
            return solve(net)

        monkeypatch.setattr(flowenum.solver, "_solve", counted)
        monkeypatch.setattr(flowenum.enumeration, "_solve", counted)
        monkeypatch.setattr(flowenum.cli, "_solve", counted)
        path = write_instance(tmp_path, eleven_optima_network)
        for argv in (["bounds", path, "--exact"], ["bounds", path]):
            calls.clear()
            code, _, _ = invoke(argv)
            assert code == 0
            assert len(calls) == 1

    def test_pivot_cap_exits_three(self, tmp_path, monkeypatch, eleven_optima_network):
        # Bland's pivots can pass the cap on a valid instance, as on large grids.
        monkeypatch.setattr(flowenum.treebounds, "_PIVOT_CAP", 0)
        out, err = io.StringIO(), io.StringIO()
        code = run(["bounds", write_instance(tmp_path, eleven_optima_network)], stdout=out, stderr=err)
        assert code == 3 and out.getvalue() == ""
        assert err.getvalue() == "flowenum: tree pivoting passed its budget of 0 pivots\n"

    def test_a_potential_that_does_not_certify_the_optimum_stops_before_counting(
            self, tmp_path, monkeypatch, eleven_optima_network):
        # Arc 0 (cost 20) sits at its lower bound 0 of span 1 in every optimum, priced above
        # zero; raising its head's potential past that price turns the sign while the arc stays.
        tree_solution = flowenum.cli._tree_solution

        def shifted(net, frame, flow):
            tree_flow, ts = tree_solution(net, frame, flow)
            potentials = list(ts.potentials)
            assert flow.values[0] == 0 and ts.reduced_cost(0) > 0
            potentials[net.arcs[0].dst] += ts.reduced_cost(0) + 1
            return tree_flow, replace(ts, potentials=tuple(potentials))

        counted = []
        monkeypatch.setattr(flowenum.cli, "_tree_solution", shifted)
        monkeypatch.setattr(flowenum.cli, "_flows_after", lambda *args: counted.append(args) or iter(()))
        with pytest.raises(InvariantError, match="do not certify the flow optimal on arc 0"):
            run(["bounds", write_instance(tmp_path, eleven_optima_network), "--exact"],
                stdout=io.StringIO(), stderr=io.StringIO())
        assert counted == []

    def test_exact_count_runs_no_bellman_ford_and_checks_each_id_once(
            self, tmp_path, monkeypatch, eleven_optima_network):
        import flowenum.enumeration
        import flowenum.kbest
        import flowenum.solver

        calls = Counter()

        def counted(module, name):
            function = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return function(*args)
            monkeypatch.setattr(module, name, wrapper)

        for module in (flowenum.solver, flowenum.enumeration, flowenum.kbest):
            counted(module, "_potentials")
        counted(flowenum.treebounds, "_nontree_ids")
        nets = [eleven_optima_network, zero_cost_grid(1),
                random_grid_network(random.Random(3), 12, 12, min_cost=-50, max_cost=200, both_ways=True)]
        for net in nets:
            calls.clear()
            code, lines, _ = invoke(["bounds", write_instance(tmp_path, net), "--exact", "--limit", "50"])
            assert code == 0
            assert calls == {"_nontree_ids": 1}
            calls.clear()
            assert list(islice(iter_optimal_flows(net), 50))
            assert calls == {"_potentials": 1}


class TestTreeFace:
    """`bounds --exact` counts on the face its tree's potentials pin; `enumerate` on Bellman-Ford's."""

    @staticmethod
    def instances(grid_seeds=range(8)):
        # Low-cost two-way grids, with up to 5,888 optima, and small random networks with ties.
        for seed in grid_seeds:
            yield random_grid_network(random.Random(seed), 4, 4, min_cost=-1, max_cost=1, max_span=2,
                                      both_ways=True)
        yield random_grid_network(random.Random(4), 4, 4, min_cost=0, max_cost=1, both_ways=True)
        for seed in range(40):
            yield random_feasible_network(random.Random(seed), max_nodes=7, max_arcs=14, max_cost=1)[0]

    def test_both_faces_hold_the_optimal_flows_once_each(self):
        sizes = []
        for net in self.instances():
            frame, flow = _solve(net)
            _, ts = _tree_solution(net, frame, flow)
            reduced = _certified_costs(ts, frame, flow.values)
            nontree = sorted(ts.lower_set | ts.upper_set)
            assert tuple(arc for arc in nontree if not reduced[arc]) == zero_cost_nontree_set(ts)
            on_tree_face = [flow.values, *(other.values for other in _flows_after(frame, flow.values, reduced))]
            on_bellman_ford_face = [other.values for other in iter_optimal_flows(net)]
            assert len(set(on_tree_face)) == len(on_tree_face) == len(on_bellman_ford_face)
            assert set(on_tree_face) == set(on_bellman_ford_face)
            sizes.append(len(on_tree_face))
        assert max(sizes) > 5000 and sum(size > 1 for size in sizes) > 20

    def test_exact_count_is_the_enumerated_count(self, tmp_path):
        for net in self.instances(grid_seeds=range(4)):  # up to 2,272 optima
            path = write_instance(tmp_path, net)
            code, enumerated, _ = invoke(["enumerate", path])
            assert code == 0
            code, bounds, _ = invoke(["bounds", path, "--exact"])
            assert code == 0
            assert bounds[-1]["exact_count"] == enumerated[-1]["count"] == len(enumerated) - 1
            assert bounds[-1]["limit_reached"] is enumerated[-1]["limit_reached"] is False


class TestOracle:
    def test_feasible_mode(self, tmp_path, chain3_network):
        code, lines, _ = invoke(
            ["oracle", write_instance(tmp_path, chain3_network), "--mode", "feasible"]
        )
        assert code == 0
        flows, summary = flows_and_summary(lines)
        assert summary["count"] == 2 and len(flows) == 2

    def test_optimal_mode(self, tmp_path, eleven_optima_network):
        code, lines, _ = invoke(
            ["oracle", write_instance(tmp_path, eleven_optima_network), "--mode", "optimal"]
        )
        assert code == 0
        _, summary = flows_and_summary(lines)
        assert summary["count"] == 11

    @pytest.mark.parametrize("mode", [["feasible"], ["optimal"], ["kbest", "--k", "2"]])
    def test_infeasible_instance_exits_one(self, tmp_path, mode):
        # Every mode lists at least one flow of a feasible instance; this one has none.
        path = tmp_path / "infeasible.min"
        path.write_text("p min 2 1\nn 1 1\nn 2 -1\na 1 2 0 0 1\n", encoding="utf-8")
        code, lines, err = invoke(["oracle", str(path), "--mode", *mode])
        assert code == 1 and err == "flowenum: the instance admits no feasible flow\n"
        assert len(lines) == 1 and lines[0]["command"] == "oracle"
        assert lines[0]["count"] == 0 and lines[0]["infeasible"] is True

    def test_kbest_mode_needs_k(self, tmp_path, chain3_network):
        path = write_instance(tmp_path, chain3_network)
        code, _, err = invoke(["oracle", path, "--mode", "kbest"])
        assert code == 2 and err.startswith("usage: flowenum oracle")
        # The same parser serves the next call, and the failed one left nothing in it.
        code, lines, _ = invoke(["oracle", path, "--mode", "kbest", "--k", "2"])
        assert code == 0
        flows, _ = flows_and_summary(lines)
        assert [flow["cost"] for flow in flows] == [1, 2]

    def test_missing_k_reports_the_oracle_usage(self, tmp_path, chain3_network):
        code, lines, err = invoke(["oracle", write_instance(tmp_path, chain3_network), "--mode", "kbest"])
        assert code == 2 and lines == []
        assert err.startswith("usage: flowenum oracle")
        assert "flowenum oracle: error: --mode kbest needs --k" in err

    @pytest.mark.parametrize("mode", ["feasible", "optimal"])
    def test_k_without_kbest_mode_is_usage_error(self, tmp_path, mode):
        # A 3-arc cycle has three feasible flows, all optimal: --k 1 must not list them.
        path = tmp_path / "cycle.min"
        path.write_text("p min 3 3\na 1 2 0 1 0\na 2 3 0 1 0\na 3 1 0 1 0\n", encoding="utf-8")
        code, lines, err = invoke(["oracle", str(path), "--mode", mode, "--k", "1"])
        assert code == 2 and lines == []
        assert err.startswith("usage: flowenum oracle")
        assert "flowenum oracle: error: --k needs --mode kbest" in err

    def test_nonpositive_budget_is_usage_error(self, tmp_path, chain3_network):
        path = write_instance(tmp_path, chain3_network)
        for argv in (["oracle", path, "--mode", "feasible", "--max-states", "0"],
                     ["oracle", path, "--mode", "optimal", "--max-flows", "-1"],
                     ["oracle", path, "--mode", "kbest", "--k", "0"],
                     ["oracle", path, "--mode", "kbest", "--k", TOO_LARGE],
                     ["oracle", path, "--mode", "feasible", "--max-states", TOO_LARGE],
                     ["verify", path, "--max-states", "0"],
                     ["verify", path, "--max-flows", TOO_LARGE]):
            code, lines, err = invoke(argv)
            assert code == 2 and lines == []
            assert "positive integer" in err

    def test_budget_exceeded_exits_three(self, tmp_path, eleven_optima_network):
        code, _, err = invoke(
            ["oracle", write_instance(tmp_path, eleven_optima_network), "--mode", "feasible",
             "--max-states", "3"]
        )
        assert code == 3 and err

    def test_long_chain_is_enumerated(self, tmp_path):
        # One fixed arc per link: the oracle's search is 1,500 arcs deep,
        # past the interpreter's default recursion limit.
        links = 1500
        lines = [f"p min {links + 1} {links}", "n 1 1", f"n {links + 1} -1"]
        lines += [f"a {node} {node + 1} 1 1 0" for node in range(1, links + 1)]
        path = tmp_path / "chain.min"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, lines, err = invoke(["oracle", str(path), "--mode", "feasible"])
        assert code == 0 and err == ""
        flows, summary = flows_and_summary(lines)
        assert flows == [{"cost": 0, "flow": [1] * links}]
        assert summary["count"] == 1


class TestVerify:
    def test_eleven_optima_matches(self, tmp_path, eleven_optima_network):
        code, lines, _ = invoke(["verify", write_instance(tmp_path, eleven_optima_network)])
        assert code == 0
        summary = lines[-1]
        assert summary["match"] is True
        assert summary["enumerated"] == summary["reference"] == 11
        assert summary["limit_reached"] is False

    def test_limit_below_the_count_still_matches(self, tmp_path, eleven_optima_network):
        path = write_instance(tmp_path, eleven_optima_network)
        code, lines, _ = invoke(["verify", path, "--limit", "2"])
        assert code == 0
        summary = lines[-1]
        assert summary["match"] is True and summary["limit_reached"] is True
        assert (summary["count"], summary["enumerated"], summary["reference"]) == (2, 2, 11)
        code, lines, _ = invoke(["verify", path, "--limit", "11"])
        assert code == 0 and lines[-1]["limit_reached"] is False

    @pytest.mark.parametrize("limit", ["2", "11", "20"])
    def test_repeated_flow_fails(self, tmp_path, monkeypatch, eleven_optima_network, limit):
        real = flowenum.cli.iter_optimal_flows

        def repeating(net):
            flows = real(net)
            first = next(flows)
            yield first
            yield first
            yield from flows

        monkeypatch.setattr(flowenum.cli, "iter_optimal_flows", repeating)
        code, lines, _ = invoke(["verify", write_instance(tmp_path, eleven_optima_network), "--limit", limit])
        assert code == 1
        assert lines[-1]["match"] is False


# Every count flag, with the instance path spliced in at index 1 and the
# count appended.
COUNT_FLAGS = (
    ["enumerate", "--limit"],
    ["bounds", "--exact", "--limit"],
    ["verify", "--limit"],
    ["kbest"],
    ["oracle", "--mode", "kbest", "--k"],
    ["oracle", "--mode", "feasible", "--max-states"],
    ["verify", "--max-flows"],
)


class TestCountFlags:
    @pytest.mark.parametrize("words", COUNT_FLAGS, ids=" ".join)
    def test_counts_run_up_to_maxsize(self, tmp_path, chain3_network, words):
        path = write_instance(tmp_path, chain3_network)
        code, lines, err = invoke([words[0], path, *words[1:], str(sys.maxsize)])
        assert code == 0 and err == ""
        assert lines[-1]["command"] == words[0]

    # DIMACS fields are [+-]?[0-9]+; bare int() also takes all but the last of these.
    @pytest.mark.parametrize("count", ["1_0", "\u0663", "\uff12", " 2", "2 ", "9" * 5000],
                             ids=["underscore", "arabic-indic", "fullwidth", "space-before",
                                  "space-after", "past-int-digit-limit"])
    @pytest.mark.parametrize("words", COUNT_FLAGS, ids=" ".join)
    def test_counts_are_ascii_digits_only(self, tmp_path, chain3_network, words, count):
        path = write_instance(tmp_path, chain3_network)
        code, lines, err = invoke([words[0], path, *words[1:], count])
        assert code == 2 and lines == []
        assert "positive integer" in err and str(sys.maxsize) in err

    def test_a_sign_and_leading_zeros_are_digits_too(self, tmp_path, chain3_network):
        code, lines, _ = invoke(["kbest", write_instance(tmp_path, chain3_network), "+02"])
        assert code == 0 and lines[-1]["requested"] == 2


class TestParserReuse:
    """One parser serves every run() in a process, and no call changes what the next one parses."""

    def test_a_second_run_builds_no_parser(self, tmp_path, monkeypatch, chain3_network):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        flowenum.cli._build_parser.cache_clear()
        path = write_instance(tmp_path, chain3_network)
        assert invoke(["solve", path])[0] == 0
        first = len(built)
        assert invoke(["enumerate", path])[0] == 0
        assert first > 0 and len(built) == first

    def test_neither_a_usage_error_nor_a_limit_carries_over(self, tmp_path, eleven_optima_network):
        path = write_instance(tmp_path, eleven_optima_network)
        code, lines, err = invoke(["enumerate", path, "--limit", "0"])
        assert code == 2 and lines == [] and "positive integer" in err
        code, lines, _ = invoke(["enumerate", path, "--limit", "1"])
        assert code == 0 and lines[-1]["limit"] == 1
        code, lines, err = invoke(["enumerate", path])
        assert code == 0 and err == ""
        assert lines[-1]["limit"] == DEFAULT_ENUMERATION_LIMIT and lines[-1]["count"] == 11


class TestHelp:
    @pytest.mark.parametrize("words, usage", [(["--help"], "usage: flowenum [-h]"),
                                              (["kbest", "--help"], "usage: flowenum kbest [-h]")])
    def test_help_goes_to_the_given_stdout(self, capsys, words, usage):
        out, err = io.StringIO(), io.StringIO()
        assert run(words, stdout=out, stderr=err) == 0
        assert out.getvalue().startswith(usage)
        assert err.getvalue() == ""
        assert capsys.readouterr() == ("", "")


class TestMain:
    @pytest.mark.parametrize("words", [["enumerate", "--limit", "1000"], ["kbest", "1000"]])
    def test_reader_that_leaves_early_ends_the_run_quietly(self, tmp_path, words):
        # Several pipe buffers of output, so the writer blocks before the reader leaves.
        path = write_instance(tmp_path, zero_cost_grid(1))
        env = {**os.environ, "PYTHONPATH": str(Path(flowenum.cli.__file__).resolve().parents[1])}
        proc = subprocess.Popen([sys.executable, "-m", "flowenum", words[0], path, *words[1:]],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert json.loads(proc.stdout.readline())["cost"] == 0
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""
        proc.stderr.close()

    def test_interrupt_exits_130(self, tmp_path, monkeypatch, capsys, chain3_network):
        def interrupted(net):
            raise KeyboardInterrupt

        monkeypatch.setattr(flowenum.cli, "solve_min_cost_flow", interrupted)
        monkeypatch.setattr(sys, "argv", ["flowenum", "solve", write_instance(tmp_path, chain3_network)])
        try:
            with pytest.raises(SystemExit) as exit_:
                flowenum.cli.main()
        except KeyboardInterrupt:  # would otherwise end the test session
            pytest.fail("main() let KeyboardInterrupt through")
        assert exit_.value.code == 130
        assert capsys.readouterr() == ("", "flowenum: interrupted\n")


class TestStream:
    def test_costs_match_flow_cost(self):
        rng = random.Random(21)
        for _ in range(40):
            net, flow = random_feasible_network(rng, max_nodes=6, max_arcs=10)
            out = io.StringIO()
            assert flowenum.cli._stream(out, net, [flow, flow]) == (2, flow_cost(net, flow))
            assert json.loads(out.getvalue().splitlines()[0])["cost"] == flow_cost(net, flow)

    @pytest.mark.parametrize("arcs, flows", [
        ([], [()]),
        ([(0, 1, -5), (1, 0, -7)], [(2, 2), (0, 0), (1, 1)]),
        ([(0, 1, 3 ** 41), (1, 0, -(2 ** 70))], [(2 ** 64, 2 ** 64), (2 ** 64 + 1, 2 ** 64 + 1)]),
        ([(0, 1, 0), (1, 0, -7), (0, 1, 0), (1, 0, 5)], [(3, 1, 4, 2), (1, 5, 9, 2), (0, 0, 6, 0)]),
        ([(0, 1, 0), (1, 0, 0), (0, 1, 0)], [(2, 2, 0), (1, 3, 2)]),
    ])
    def test_each_flow_line_is_one_write_of_the_json_bytes(self, arcs, flows):
        # Zero arcs, negative costs, values and costs past 2**63, and values that repeat
        # within and across lines, so the decimal strings are looked up again.  Costs are
        # summed over the nonzero-cost arcs alone: zero costs between nonzero ones, where a
        # mask one arc off gives another cost, and a network whose every arc costs 0.
        net = Network(2, [Arc(src, dst, 0, 2 ** 65, cost) for src, dst, cost in arcs], [0, 0])
        writes = []
        out = SimpleNamespace(write=writes.append)
        flows = [Flow(values) for values in flows]
        count, _ = flowenum.cli._stream(out, net, flows)
        assert count == len(writes) == len(flows)
        for text, flow in zip(writes, flows):
            assert text == json.dumps({"cost": flow_cost(net, flow), "flow": list(flow.values)}) + "\n"

    @pytest.mark.parametrize("values", [(1, 1), (1, 1, 0, 0)])
    def test_flow_of_the_wrong_length_raises(self, chain3_network, values):
        out = io.StringIO()
        flows = [Flow((1, 1, 0)), Flow(values)]
        with pytest.raises(DimensionMismatchError):
            flowenum.cli._stream(out, chain3_network, flows)
        assert len(out.getvalue().splitlines()) == 1


# Each command's words after the instance path, and how many times one run on
# a valid instance calls validate_network, frame_of and check_feasible.
CHECKS_PER_RUN = (
    (["solve"], (1, 1, 1)),
    (["enumerate"], (1, 1, 1)),
    (["kbest", "5"], (1, 1, 1)),
    (["bounds"], (1, 1, 1)),
    (["bounds", "--exact"], (1, 1, 1)),
    (["oracle", "--mode", "optimal"], (1, 0, 0)),
    (["verify"], (1, 1, 1)),
)


class TestErrorPaths:
    def test_missing_file(self):
        code, _, err = invoke(["solve", "/nonexistent/path.min"])
        assert code == 2 and err

    def test_byte_order_mark_is_read_past(self, tmp_path, chain3_network):
        plain = write_instance(tmp_path, chain3_network)
        marked = tmp_path / "marked.min"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(plain).read_bytes())
        runs = [invoke(["solve", path]) for path in (plain, str(marked))]
        for _, lines, _ in runs:
            lines[-1].pop("elapsed_ms")
        assert runs[0] == runs[1] and runs[0][0] == 0

    def test_parse_error(self, tmp_path):
        path = tmp_path / "broken.min"
        path.write_text("p min 2 1\na 1 9 0 1 0\n", encoding="utf-8")
        code, _, err = invoke(["solve", str(path)])
        assert code == 2 and "node id" in err

    @pytest.mark.parametrize("text", [
        "p min 2 1\nn 1 1\na 1 2 0 1 0\n",              # balances sum to 1
        "p min 3 1\nn 1 1\nn 2 -1\na 1 2 0 1 0\n",      # node 3 touches no arc
    ], ids=["unbalanced", "disconnected"])
    @pytest.mark.parametrize("words", [words for words, _ in CHECKS_PER_RUN], ids=" ".join)
    def test_every_command_rejects_a_bad_instance(self, tmp_path, words, text):
        # The library's own check rejects it, oracle's in the CLI, before any output.
        path = tmp_path / "bad.min"
        path.write_text(text, encoding="utf-8")
        code, lines, err = invoke([words[0], str(path), *words[1:]])
        assert code == 2 and lines == []
        assert err.startswith(f"flowenum: {path}: ")

    @pytest.mark.parametrize("words, counts", CHECKS_PER_RUN,
                             ids=[" ".join(words) for words, _ in CHECKS_PER_RUN])
    def test_each_run_checks_its_input_once(self, tmp_path, eleven_optima_network, words, counts):
        # Calls are counted by code object, so a call through any binding of the name shows.
        codes = {function.__code__: index for index, function in
                 enumerate((validate_network, frame_of, check_feasible))}
        calls = [0, 0, 0]

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in codes:
                calls[codes[frame.f_code]] += 1

        path = write_instance(tmp_path, eleven_optima_network)
        sys.setprofile(profile)
        try:
            code, _, _ = invoke([words[0], path, *words[1:]])
        finally:
            sys.setprofile(None)
        assert code == 0 and tuple(calls) == counts

    @pytest.mark.parametrize("arcs", [0, 10**15])
    def test_huge_node_count_is_a_parse_error(self, tmp_path, arcs):
        # A header alone; 10**15 balances cannot be allocated and 10**20 is past
        # `sys.maxsize`, so either fails at once.
        for nodes in (10**15, 10**20):
            path = tmp_path / "huge.min"
            path.write_text(f"p min {nodes} {arcs}\n", encoding="utf-8")
            code, lines, err = invoke(["solve", str(path)])
            assert code == 2 and lines == []
            assert err.startswith("flowenum: ") and f"line 1: {nodes} nodes do not fit" in err

    def test_undecodable_file(self, tmp_path):
        path = tmp_path / "binary.min"
        path.write_bytes(b"p min 2 1\n\xff\xfe\n")
        code, lines, err = invoke(["solve", str(path)])
        assert code == 2 and lines == []
        assert "cannot read" in err

    def test_internal_value_error_is_not_a_usage_error(self, tmp_path, monkeypatch, chain3_network):
        def broken(net):
            raise ValueError("a bug, not bad input")

        monkeypatch.setattr(flowenum.cli, "solve_min_cost_flow", broken)
        with pytest.raises(ValueError, match="a bug"):
            run(["solve", write_instance(tmp_path, chain3_network)],
                stdout=io.StringIO(), stderr=io.StringIO())

    def test_unknown_command(self):
        code, _, _ = invoke(["frobnicate", "x"])
        assert code == 2

    def test_every_line_is_json(self, tmp_path, eleven_optima_network):
        out = io.StringIO()
        code = run(["enumerate", write_instance(tmp_path, eleven_optima_network)], stdout=out)
        assert code == 0
        for line in out.getvalue().splitlines():
            json.loads(line)


# Every command the property drives, with the instance path spliced in at
# index 1; verify's limit and budget keep corrupted capacities cheap.
FUZZED_COMMANDS = (
    ["solve"],
    ["enumerate", "--limit", "5"],
    ["kbest", "3"],
    ["bounds", "--exact", "--limit", "5"],
    ["verify", "--limit", "50", "--max-states", "20000"],
)

# Byte edits: digits grow or change numbers, the rest break records and
# encodings.  At most three edits keep any declared count below 10**4.
EDIT_BYTES = b"09- \na_\xff"


@st.composite
def instance_bytes(draw):
    """A small seeded network in DIMACS form, sometimes shifted or corrupted."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    net, _ = random_feasible_network(rng, max_nodes=5, max_arcs=7, max_span=2)
    if draw(st.booleans()):
        # Still balanced, but one unit of supply moves, so it may be infeasible.
        balances = list(net.balances)
        balances[0] += 1
        balances[-1] -= 1
        net = replace(net, balances=tuple(balances))
    data = bytearray(serialize_dimacs(net).encode("ascii"))
    edits = draw(st.integers(1, 3)) if draw(st.booleans()) else 0
    for _ in range(edits):
        at = draw(st.integers(0, len(data)))
        byte = draw(st.sampled_from(EDIT_BYTES))
        kind = draw(st.sampled_from(("insert", "delete", "replace")))
        if kind == "insert" or at == len(data):
            data.insert(at, byte)
        elif kind == "delete":
            del data[at]
        else:
            data[at] = byte
    return bytes(data)


class TestRunProperty:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=instance_bytes())
    def test_exit_codes_and_stdout_stay_well_formed(self, tmp_path, data):
        path = tmp_path / "fuzzed.min"
        path.write_bytes(data)
        for words in FUZZED_COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            code = run([words[0], str(path), *words[1:]], stdout=out, stderr=err)
            assert code in (0, 1, 2, 3), (words, code, err.getvalue())
            lines = [json.loads(line) for line in out.getvalue().splitlines()]
            if code == 0:
                assert lines[-1]["command"] == words[0]
