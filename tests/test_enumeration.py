import random
from itertools import islice

import pytest

from flowenum.bruteforce import enumerate_all_optimal_bruteforce
from flowenum.core import Flow, check_feasible, flow_cost
from flowenum.dfs import find_another_feasible_flow
from flowenum.enumeration import (
    EnumerationStats,
    iter_optimal_flows,
    optimal_face,
    partition_solution_space,
)
from flowenum.errors import (
    DisconnectedError,
    IdenticalFlowsError,
    InfeasibleError,
    UnbalancedSupplyError,
)
from flowenum.solver import compute_node_potentials, compute_reduced_costs, solve_min_cost_flow

from helpers import make_network, random_feasible_network


def reduced_costs_of(net, flow):
    return compute_reduced_costs(net, compute_node_potentials(net, flow))


def face_of(net, flow):
    return optimal_face(net, flow, reduced_costs_of(net, flow))


def bounds_of(net, arc_id):
    return net.arcs[arc_id].lower, net.arcs[arc_id].upper


class TestOptimalFace:
    def test_eleven_optima_pins_the_expensive_arcs(self, eleven_optima_network, eleven_optima_flow):
        face = face_of(eleven_optima_network, eleven_optima_flow)
        assert bounds_of(face, 0) == bounds_of(face, 1) == (0, 0)
        assert face.balances == eleven_optima_network.balances
        for arc_id in range(2, 7):
            assert face.arcs[arc_id] is eleven_optima_network.arcs[arc_id]

    def test_all_zero_reduced_costs_change_nothing(self, twocycle_network):
        face = optimal_face(twocycle_network, Flow((0, 0)), (0, 0))
        assert face == twocycle_network
        assert all(mine is base for mine, base in zip(face.arcs, twocycle_network.arcs))

    def test_saturated_costly_arc_is_pinned_at_its_value(self):
        net = make_network(2, [(0, 1, 0, 1, 5)], (1, -1))
        face = optimal_face(net, Flow((1,)), (5,))
        assert bounds_of(face, 0) == (1, 1)
        assert face.balances == (1, -1)


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
