import random

import pytest

from flowenum.core import Flow, build_residual, check_feasible, flow_cost
from flowenum.errors import InfeasibleError, NegativeCycleError
from flowenum.solver import (
    compute_node_potentials,
    compute_reduced_costs,
    solve_min_cost_flow,
)

from helpers import make_network, random_feasible_network


def residual_weights(rg, reduced_costs):
    """Per residual arc: the origin's reduced cost, negated on backward arcs."""
    return [reduced_costs[res.origin_arc] * (1 if res.forward else -1) for res in rg.arcs]


class TestSolve:
    def test_eleven_optima(self, eleven_optima_network, eleven_optima_flow):
        flow = solve_min_cost_flow(eleven_optima_network)
        assert flow_cost(eleven_optima_network, flow) == 0
        assert flow == eleven_optima_flow

    def test_zero_balances_nonnegative_costs_give_zero_flow(self):
        net = make_network(3, [(0, 1, 0, 5, 2), (1, 2, 0, 5, 0), (2, 0, 0, 5, 1)], (0, 0, 0))
        assert solve_min_cost_flow(net) == Flow((0, 0, 0))

    def test_chain3(self, chain3_network):
        flow = solve_min_cost_flow(chain3_network)
        assert flow == Flow((1, 1, 0))
        assert flow_cost(chain3_network, flow) == 1

    def test_infeasible(self):
        net = make_network(2, [(0, 1, 0, 0, 1)], (1, -1))
        with pytest.raises(InfeasibleError):
            solve_min_cost_flow(net)

    def test_negative_cost_cycle_saturates(self):
        net = make_network(2, [(0, 1, 0, 2, -5), (1, 0, 0, 3, 1)], (0, 0))
        flow = solve_min_cost_flow(net)
        assert flow == Flow((2, 2))
        assert flow_cost(net, flow) == -8

    def test_lower_bounds_respected(self):
        net = make_network(3, [(0, 1, 2, 4, 1), (1, 2, 0, 4, 1), (0, 2, 0, 4, 1)], (3, 0, -3))
        flow = solve_min_cost_flow(net)
        assert check_feasible(net, flow)
        assert flow.values[0] >= 2

    def test_oracle_equivalence_on_random_instances(self):
        from flowenum.bruteforce import enumerate_all_feasible_bruteforce

        rng = random.Random(31337)
        for _ in range(80):
            net, _ = random_feasible_network(rng)
            flow = solve_min_cost_flow(net)
            assert check_feasible(net, flow)
            best = min(flow_cost(net, f) for f in enumerate_all_feasible_bruteforce(net))
            assert flow_cost(net, flow) == best


class TestPotentials:
    def test_root_potential_is_zero(self, eleven_optima_network, eleven_optima_flow):
        potential = compute_node_potentials(eleven_optima_network, eleven_optima_flow)
        assert isinstance(potential, tuple) and len(potential) == 5
        assert potential[0] == 0

    def test_eleven_optima_reduced_costs(self, eleven_optima_network, eleven_optima_flow):
        potential = compute_node_potentials(eleven_optima_network, eleven_optima_flow)
        assert compute_reduced_costs(eleven_optima_network, potential) == (20, 50, 0, 0, 0, 0, 0)

    def test_identity_potential_keeps_costs(self, eleven_optima_network):
        assert compute_reduced_costs(eleven_optima_network, (0,) * 5) == (20, 50, 0, 0, 0, 0, 0)

    def test_unreachable_node_gets_artificial_distance(self, blocked_cycle_network, blocked_cycle_flow):
        potential = compute_node_potentials(blocked_cycle_network, blocked_cycle_flow)
        reduced = compute_reduced_costs(blocked_cycle_network, potential)
        rg = build_residual(blocked_cycle_network, blocked_cycle_flow)
        assert all(weight >= 0 for weight in residual_weights(rg, reduced))

    def test_non_optimal_flow_raises(self, chain3_network):
        with pytest.raises(NegativeCycleError):
            compute_node_potentials(chain3_network, Flow((0, 0, 1)))

    def test_certificate_and_antisymmetry_on_random_instances(self):
        rng = random.Random(2024)
        for _ in range(80):
            net, _ = random_feasible_network(rng)
            flow = solve_min_cost_flow(net)
            potential = compute_node_potentials(net, flow)
            reduced = compute_reduced_costs(net, potential)
            rg = build_residual(net, flow)
            weights = residual_weights(rg, reduced)
            assert all(weight >= 0 for weight in weights)
            by_key = {(res.origin_arc, res.forward): w for res, w in zip(rg.arcs, weights)}
            for (origin, forward), weight in by_key.items():
                partner = by_key.get((origin, not forward))
                if partner is not None:
                    assert partner == -weight


class TestAgainstNetworkx:
    def test_optimal_cost_matches_network_simplex(self):
        # Instances far past the oracle's reach, checked against an
        # independent solver; lower bounds are substituted away for it.
        nx = pytest.importorskip("networkx")
        rng = random.Random(4242)
        for _ in range(40):
            net, _ = random_feasible_network(rng, min_nodes=50, max_nodes=200, max_arcs=600,
                                             max_span=6, max_cost=40)
            graph = nx.MultiDiGraph()
            demand = [-balance for balance in net.balances]
            offset = 0
            for index, arc in enumerate(net.arcs):
                demand[arc.src] += arc.lower
                demand[arc.dst] -= arc.lower
                offset += arc.lower * arc.cost
                graph.add_edge(arc.src, arc.dst, key=index, capacity=arc.span, weight=arc.cost)
            for node, value in enumerate(demand):
                graph.add_node(node, demand=value)
            reference, _ = nx.network_simplex(graph)
            assert flow_cost(net, solve_min_cost_flow(net)) == reference + offset
