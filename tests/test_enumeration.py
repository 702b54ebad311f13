import dataclasses
import importlib
import pkgutil
import random
from collections import Counter
from itertools import islice

import pytest

import flowenum
from flowenum.bruteforce import enumerate_all_optimal_bruteforce
from flowenum.core import Arc, Flow, Network, check_feasible, flow_cost, frame_of
from flowenum.dfs import find_another_feasible_flow
from flowenum.enumeration import EnumerationStats, _split, iter_optimal_flows, optimal_face
from flowenum.errors import (
    DisconnectedError,
    InfeasibleError,
    InvariantError,
    UnbalancedSupplyError,
)
from flowenum.kbest import iter_k_best_flows
from flowenum.solver import compute_reduced_costs, solve_min_cost_flow

from helpers import face_network as face_of
from helpers import (
    IdenticalFlowsError,
    linked_cycles,
    make_network,
    node_potentials,
    partition_solution_space,
    random_feasible_network,
    random_grid_network,
    reference_optimal_flows,
    split_on_flows,
)


def reduced_costs_of(net, flow):
    return compute_reduced_costs(net, node_potentials(net, flow))


def bounds_of(net, arc_id):
    return net.arcs[arc_id].lower, net.arcs[arc_id].upper


class TestOptimalFace:
    def test_eleven_optima_pins_the_expensive_arcs(self, eleven_optima_network, eleven_optima_flow):
        net, values = eleven_optima_network, eleven_optima_flow.values
        face = optimal_face(frame_of(net), values, reduced_costs_of(net, eleven_optima_flow))
        assert (face.lower[0], face.upper[0]) == (face.lower[1], face.upper[1]) == (0, 0)
        for arc_id in range(2, 7):
            assert (face.lower[arc_id], face.upper[arc_id]) == bounds_of(net, arc_id)

    def test_all_zero_reduced_costs_change_nothing(self, twocycle_network):
        frame = frame_of(twocycle_network)
        assert optimal_face(frame, (0, 0), (0, 0)) == frame

    def test_saturated_costly_arc_is_pinned_at_its_value(self):
        net = make_network(2, [(0, 1, 0, 1, 5)], (1, -1))
        face = optimal_face(frame_of(net), (1,), (5,))
        assert (face.lower, face.upper) == ([1], [1])


class TestFindAnotherOptimalFlow:
    def test_eleven_optima(self, eleven_optima_network, eleven_optima_flow):
        other = find_another_feasible_flow(
            face_of(eleven_optima_network, eleven_optima_flow), eleven_optima_flow
        )
        assert other == Flow((0, 0, 0, 5, 1, 11, 3))
        assert flow_cost(eleven_optima_network, other) == 0

    def test_blocked_instance_is_unique(self, blocked_cycle_network, blocked_cycle_flow):
        assert find_another_feasible_flow(
            face_of(blocked_cycle_network, blocked_cycle_flow), blocked_cycle_flow
        ) is None

    def test_forced_network_is_unique(self, forced_network):
        flow = Flow((2, 2))
        assert find_another_feasible_flow(face_of(forced_network, flow), flow) is None


class TestPartition:
    def test_eleven_optima_branch_bounds(self, eleven_optima_network, eleven_optima_flow):
        other = Flow((0, 0, 0, 5, 1, 11, 3))
        keep, move = partition_solution_space(eleven_optima_network, eleven_optima_flow, other)
        assert bounds_of(eleven_optima_network, 4) == (0, 10)
        assert bounds_of(keep, 4) == (0, 0)
        assert bounds_of(move, 4) == (1, 10)

    def test_mirrored_case(self):
        net = make_network(2, [(0, 1, 0, 5, 0)], (0, 0))
        keep, move = partition_solution_space(net, Flow((3,)), Flow((1,)))
        assert bounds_of(keep, 0) == (3, 5)
        assert bounds_of(move, 0) == (0, 2)

    def test_identical_flows_raise(self, twocycle_network):
        with pytest.raises(IdenticalFlowsError):
            partition_solution_space(twocycle_network, Flow((1, 2)), Flow((1, 2)))

    def test_single_difference_partitions_cleanly(self, twocycle_network):
        low, high = Flow((0, 0)), Flow((2, 2))
        keep, move = partition_solution_space(twocycle_network, low, high)
        assert check_feasible(keep, low) and not check_feasible(keep, high)
        assert check_feasible(move, high) and not check_feasible(move, low)

    def test_split_on_random_cycles_matches_the_flow_comparison(self):
        # The cycle's lowest id names the first arc where the flows differ, and its
        # parity the side: an even id raises the witness's value there, an odd one lowers it.
        rng = random.Random(25)
        for _ in range(500):
            arcs = rng.randint(1, 12)
            lower = [rng.randint(-2, 2) for _ in range(arcs)]
            upper = [lo + rng.randint(1, 4) for lo in lower]
            witness = [rng.randint(lo, hi) for lo, hi in zip(lower, upper)]
            cycle = [2 * arc + (witness[arc] == upper[arc]
                                or (witness[arc] > lower[arc] and rng.random() < 0.5))
                     for arc in rng.sample(range(arcs), rng.randint(1, arcs))]
            other = list(witness)
            for index in cycle:
                other[index >> 1] += -1 if index & 1 else 1
            assert _split(witness, cycle, lower, upper) == split_on_flows(witness, other,
                                                                          lower, upper)

    def test_only_the_split_arc_changes(self, eleven_optima_network, eleven_optima_flow):
        other = Flow((0, 0, 0, 5, 1, 11, 3))
        for half in partition_solution_space(eleven_optima_network, eleven_optima_flow, other):
            assert half.balances == eleven_optima_network.balances
            for arc_id, (mine, base) in enumerate(zip(half.arcs, eleven_optima_network.arcs)):
                assert (mine is base) == (arc_id != 4)


class TestEnumerateAllOptimal:
    def test_eleven_optima_has_eleven(self, eleven_optima_network):
        flows = list(iter_optimal_flows(eleven_optima_network))
        assert len(flows) == 11
        assert all(flow_cost(eleven_optima_network, flow) == 0 for flow in flows)
        assert len({flow.values for flow in flows}) == 11

    def test_blocked_instance_has_one(self, blocked_cycle_network, blocked_cycle_flow):
        assert list(iter_optimal_flows(blocked_cycle_network)) == [blocked_cycle_flow]

    def test_unique_flow_network(self, forced_network):
        assert list(iter_optimal_flows(forced_network)) == [solve_min_cost_flow(forced_network)]

    def test_initial_flow_comes_first(self, eleven_optima_network):
        flows = list(iter_optimal_flows(eleven_optima_network))
        assert flows[0] == solve_min_cost_flow(eleven_optima_network)

    def test_limit_stops_early(self, eleven_optima_network):
        assert len(list(islice(iter_optimal_flows(eleven_optima_network), 5))) == 5
        assert list(islice(iter_optimal_flows(eleven_optima_network), 0)) == []

    def test_infeasible_network_raises(self):
        net = make_network(2, [(0, 1, 0, 0, 1)], (1, -1))
        with pytest.raises(InfeasibleError):
            list(iter_optimal_flows(net))

    def test_invalid_networks_raise(self):
        with pytest.raises(UnbalancedSupplyError):
            list(iter_optimal_flows(make_network(2, [(0, 1, 0, 1, 0)], (1, 0))))
        with pytest.raises(DisconnectedError):
            list(iter_optimal_flows(make_network(2, [], (1, -1))))

    def test_emission_is_deterministic(self, eleven_optima_network):
        first = [flow.values for flow in iter_optimal_flows(eleven_optima_network)]
        second = [flow.values for flow in iter_optimal_flows(eleven_optima_network)]
        assert first == second

    def test_matches_oracle_with_call_budget(self):
        rng = random.Random(987)
        for _ in range(120):
            net, _ = random_feasible_network(rng)
            stats = EnumerationStats()
            flows = list(iter_optimal_flows(net, stats=stats))
            mine = {flow.values for flow in flows}
            assert len(mine) == len(flows)
            reference = {flow.values for flow in enumerate_all_optimal_bruteforce(net)}
            assert mine == reference
            assert stats.another_flow_calls <= 3 * len(flows)
            best = flow_cost(net, flows[0])
            assert all(flow_cost(net, flow) == best for flow in flows)


class TestFrameSearch:
    """The in-place frame against the search that kept one network per region."""

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("max_cost", [0, 1])
    def test_flow_order_matches_the_network_per_region_search(self, seed, max_cost):
        grid = random_grid_network(random.Random(seed), 6, 6, min_cost=0, max_cost=max_cost,
                                   both_ways=True)
        mine = list(islice(iter_optimal_flows(grid), 400))
        assert mine == list(islice(reference_optimal_flows(grid), 400))
        assert len(mine) > 1

    @pytest.mark.parametrize("seed, k, span", [(1, 4, 3), (2, 3, 4), (3, 5, 2)])
    def test_flow_order_matches_on_chained_cycles(self, seed, k, span):
        net, *_ = linked_cycles(random.Random(seed), k, span)
        flows = list(iter_optimal_flows(net))
        assert len(flows) == (span + 1) ** k
        assert flows == list(reference_optimal_flows(net))

    def test_no_network_copies_or_feasibility_scans_after_the_first_flow(self, monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        # Modules that imported a name hold their own binding; patch each.
        modules = [importlib.import_module(f"flowenum.{info.name}")
                   for info in pkgutil.iter_modules(flowenum.__path__) if info.name != "__main__"]
        for module in [dataclasses, *modules]:
            for name in ("check_feasible", "replace", "frame_of"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        for cls in (Network, Arc):
            monkeypatch.setattr(cls, "__post_init__", counted(cls.__name__, cls.__post_init__))

        tied = random_grid_network(random.Random(2), 6, 6, min_cost=0, max_cost=0, both_ways=True)
        # Low costs give K-best both ties and cheapest cycles.
        costed = random_grid_network(random.Random(2), 6, 6, min_cost=0, max_cost=2,
                                     both_ways=True)
        stats = EnumerationStats()
        for flows, count in ((iter_optimal_flows(tied, stats), 300),
                             (iter_k_best_flows(costed, 61), 60)):
            next(flows)
            calls.clear()
            assert len(list(islice(flows, count))) == count
            # The search reads the solver's frame; no region costs a
            # feasibility check, a copy or a frame of its own.
            assert calls == {}
        assert stats.another_flow_calls > 300

    # Regions searched for the first 400 flows, recorded while every search still
    # built its out-lists and forest afresh: reusing a keep half's parent state
    # must neither add nor skip a region.
    @pytest.mark.parametrize("max_cost, seed, regions",
                             [(0, 0, 743), (0, 1, 739), (0, 2, 743),
                              (1, 0, 783), (1, 1, 783), (1, 2, 791)])
    def test_regions_searched_are_pinned(self, max_cost, seed, regions):
        grid = random_grid_network(random.Random(seed), 6, 6, min_cost=0, max_cost=max_cost,
                                   both_ways=True)
        stats = EnumerationStats()
        assert len(list(islice(iter_optimal_flows(grid, stats), 400))) == 400
        assert stats.another_flow_calls == regions

    def test_stats_count_every_region(self, eleven_optima_network):
        for net in (eleven_optima_network, linked_cycles(random.Random(5), 3, 3)[0]):
            stats = EnumerationStats()
            flows = list(iter_optimal_flows(net, stats))
            # The root plus two halves per flow found in a region.
            assert stats.another_flow_calls == 2 * len(flows) - 1

    def test_open_cycle_is_an_invariant_error(self, monkeypatch, eleven_optima_network):
        # Arc 2's forward id alone leaves a node it never comes back to.
        monkeypatch.setattr(flowenum.dfs, "_proper_cycle", lambda *_: [4])
        with pytest.raises(InvariantError, match="does not close"):
            list(iter_optimal_flows(eleven_optima_network))

    def test_witness_outside_its_region_is_an_invariant_error(self, monkeypatch,
                                                              eleven_optima_network):
        # A split that gives the witness's half to the other flow instead.
        real_split = flowenum.enumeration._split

        def swapped(*args):
            arc, keep_here, move_there = real_split(*args)
            return arc, move_there, keep_here

        monkeypatch.setattr(flowenum.enumeration, "_split", swapped)
        with pytest.raises(InvariantError, match="leaves its region"):
            list(iter_optimal_flows(eleven_optima_network))
