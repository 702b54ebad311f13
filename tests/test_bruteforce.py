import random

import pytest

from flowenum.bruteforce import (
    EnumerationBudget,
    enumerate_all_feasible_bruteforce,
    enumerate_all_optimal_bruteforce,
    k_best_bruteforce,
)
from flowenum.core import Flow, flow_cost
from flowenum.errors import BudgetExceededError

from helpers import make_network, random_feasible_network


class TestFeasibleEnumeration:
    def test_forced_network_is_a_singleton(self, forced_network):
        assert enumerate_all_feasible_bruteforce(forced_network) == [Flow((2, 2))]

    def test_chain3_has_two_routings(self, chain3_network):
        flows = enumerate_all_feasible_bruteforce(chain3_network)
        assert {flow.values for flow in flows} == {(1, 1, 0), (0, 0, 1)}

    def test_eleven_optima_feasible_and_optimal_counts(self, eleven_optima_network):
        feasible = enumerate_all_feasible_bruteforce(eleven_optima_network)
        assert len(feasible) >= 11
        zero_cost = [flow for flow in feasible if flow_cost(eleven_optima_network, flow) == 0]
        assert len(zero_cost) == 11

    def test_lexicographic_order(self, eleven_optima_network):
        flows = enumerate_all_feasible_bruteforce(eleven_optima_network)
        values = [flow.values for flow in flows]
        assert values == sorted(values)

    def test_infeasible_network_is_empty(self):
        net = make_network(2, [(0, 1, 0, 0, 1)], (1, -1))
        assert enumerate_all_feasible_bruteforce(net) == []

    def test_empty_arc_network(self):
        net = make_network(1, [], (0,))
        assert enumerate_all_feasible_bruteforce(net) == [Flow(())]


class TestOptimalEnumeration:
    def test_infeasible_network_is_empty(self):
        net = make_network(2, [(0, 1, 0, 0, 1)], (1, -1))
        assert enumerate_all_optimal_bruteforce(net) == []

    def test_eleven_optima_has_eleven(self, eleven_optima_network):
        assert len(enumerate_all_optimal_bruteforce(eleven_optima_network)) == 11

    def test_blocked_instance_has_one(self, blocked_cycle_network, blocked_cycle_flow):
        assert enumerate_all_optimal_bruteforce(blocked_cycle_network) == [blocked_cycle_flow]

    def test_zero_cost_circulation_counts_lambda_values(self, twocycle_network):
        flows = enumerate_all_optimal_bruteforce(twocycle_network)
        assert {flow.values for flow in flows} == {(0, 0), (1, 1), (2, 2)}

    def test_optimal_is_feasible_filtered_at_min_cost(self):
        rng = random.Random(135)
        for _ in range(40):
            net, _ = random_feasible_network(rng, max_nodes=5, max_arcs=7)
            feasible = enumerate_all_feasible_bruteforce(net)
            best = min(flow_cost(net, flow) for flow in feasible)
            expected = [flow for flow in feasible if flow_cost(net, flow) == best]
            assert enumerate_all_optimal_bruteforce(net) == expected


class TestKBestReference:
    def test_chain3_prefix(self, chain3_network):
        flows = k_best_bruteforce(chain3_network, 2)
        assert [flow_cost(chain3_network, flow) for flow in flows] == [1, 2]

    def test_k_larger_than_everything_returns_all_sorted(self, chain3_network):
        flows = k_best_bruteforce(chain3_network, 50)
        assert len(flows) == 2
        costs = [flow_cost(chain3_network, flow) for flow in flows]
        assert costs == sorted(costs)

    def test_k_one_matches_the_minimum(self, eleven_optima_network):
        flows = k_best_bruteforce(eleven_optima_network, 1)
        assert flow_cost(eleven_optima_network, flows[0]) == 0


class TestBudget:
    def test_state_budget_trips(self, eleven_optima_network):
        with pytest.raises(BudgetExceededError):
            enumerate_all_feasible_bruteforce(eleven_optima_network, EnumerationBudget(max_states=5))

    def test_flow_budget_trips(self, eleven_optima_network):
        with pytest.raises(BudgetExceededError):
            enumerate_all_feasible_bruteforce(eleven_optima_network, EnumerationBudget(max_flows=3))

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            EnumerationBudget(max_states=0)

    def test_determinism(self, eleven_optima_network):
        first = enumerate_all_feasible_bruteforce(eleven_optima_network)
        second = enumerate_all_feasible_bruteforce(eleven_optima_network)
        assert first == second
