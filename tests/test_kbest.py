import random

import pytest

from flowenum.bruteforce import enumerate_all_feasible_bruteforce, k_best_bruteforce
from flowenum.core import Flow, ResidualArc, ResidualGraph, build_residual, flow_cost
from flowenum.errors import NegativeReducedCostError
from flowenum.kbest import (
    INF,
    candidate_arc_set,
    distance_table,
    find_second_best_flow,
    iter_k_best_flows,
    shortest_path_arcs,
)
from flowenum.solver import solve_min_cost_flow

from helpers import make_network, random_feasible_network


def graph_of(arc_specs, node_count):
    arcs = tuple(ResidualArc(src, dst, 1, cost, index, True)
                 for index, (src, dst, cost) in enumerate(arc_specs))
    out_lists = [[] for _ in range(node_count)]
    for index, res in enumerate(arcs):
        out_lists[res.src].append(index)
    return ResidualGraph(node_count, arcs, tuple(tuple(lst) for lst in out_lists))


class TestDistanceTable:
    def test_diagonal_is_zero(self):
        rg = graph_of([(0, 1, 5)], 3)
        table = distance_table(rg, (5,))
        assert all(table.dist[i][i] == 0 for i in range(3))

    def test_single_arc(self):
        rg = graph_of([(0, 1, 5)], 2)
        table = distance_table(rg, (5,))
        assert table.dist[0][1] == 5
        assert table.dist[1][0] == INF

    def test_zero_cost_detour_beats_direct_arc(self):
        rg = graph_of([(0, 1, 0), (1, 2, 0), (0, 2, 1)], 3)
        table = distance_table(rg, (0, 0, 1))
        assert table.dist[0][2] == 0
        assert shortest_path_arcs(table, rg, 0, 2) == [0, 1]

    def test_negative_cost_rejected(self):
        rg = graph_of([(0, 1, -1)], 2)
        with pytest.raises(NegativeReducedCostError):
            distance_table(rg, (-1,))

    def test_unreachable_path_is_none(self):
        rg = graph_of([(0, 1, 5)], 2)
        table = distance_table(rg, (5,))
        assert shortest_path_arcs(table, rg, 1, 0) is None


class TestCandidateArcSet:
    def test_interior_arc_contributes_nothing(self):
        net = make_network(2, [(0, 1, 0, 4, 1)], (2, -2))
        flow = Flow((2,))
        rg = build_residual(net, flow)
        assert candidate_arc_set(net, flow, rg) == ()

    def test_eleven_optima_members(self, eleven_optima_network, eleven_optima_flow):
        rg = build_residual(eleven_optima_network, eleven_optima_flow)
        chosen = candidate_arc_set(eleven_optima_network, eleven_optima_flow, rg)
        picked = {(rg.arcs[i].src, rg.arcs[i].dst, rg.arcs[i].forward) for i in chosen}
        assert (2, 3, True) in picked      # (c,d) forward: c->d sits at its lower bound
        assert (3, 1, False) in picked     # (d,b) backward: b->d sits at its upper bound

    def test_no_antiparallel_partner_in_residual_graph(self):
        rng = random.Random(5150)
        for _ in range(60):
            net, flow = random_feasible_network(rng)
            rg = build_residual(net, flow)
            live = {(res.origin_arc, res.forward) for res in rg.arcs}
            for index in candidate_arc_set(net, flow, rg):
                res = rg.arcs[index]
                assert (res.origin_arc, not res.forward) not in live


class TestFindSecondBest:
    def test_chain3_prefers_the_direct_route(self, chain3_network):
        best = solve_min_cost_flow(chain3_network)
        second = find_second_best_flow(chain3_network, best)
        assert second == Flow((0, 0, 1))
        assert flow_cost(chain3_network, second) == 2

    def test_ties_are_served_before_the_distance_table(self, eleven_optima_network, eleven_optima_flow):
        second = find_second_best_flow(eleven_optima_network, eleven_optima_flow)
        assert second is not None and second != eleven_optima_flow
        assert flow_cost(eleven_optima_network, second) == 0

    def test_unique_flow_network_has_none(self, forced_network):
        assert find_second_best_flow(forced_network, Flow((2, 2))) is None

    def test_matches_bruteforce_second_cost(self):
        rng = random.Random(616)
        for _ in range(80):
            net, _ = random_feasible_network(rng)
            ranked = k_best_bruteforce(net, 2)
            best = solve_min_cost_flow(net)
            second = find_second_best_flow(net, best)
            if len(ranked) < 2:
                assert second is None
            else:
                assert second is not None
                assert flow_cost(net, second) == flow_cost(net, ranked[1])


class TestKBest:
    def test_chain3_costs(self, chain3_network):
        flows = list(iter_k_best_flows(chain3_network, 2))
        assert [flow_cost(chain3_network, flow) for flow in flows] == [1, 2]

    def test_k_equals_one_is_the_solver_flow(self, chain3_network):
        assert list(iter_k_best_flows(chain3_network, 1)) == [solve_min_cost_flow(chain3_network)]

    def test_eleven_optima_eleven_ties(self, eleven_optima_network):
        flows = list(iter_k_best_flows(eleven_optima_network, 11))
        assert len(flows) == 11
        assert all(flow_cost(eleven_optima_network, flow) == 0 for flow in flows)
        assert len({flow.values for flow in flows}) == 11

    def test_eleven_optima_has_no_twelfth_flow(self, eleven_optima_network):
        # Node a holds balance 0 with no in-arcs, so the 11 optima are also
        # the only feasible flows; asking for more must stop at eleven.
        flows = list(iter_k_best_flows(eleven_optima_network, 12))
        assert len(flows) == 11
        assert [flow_cost(eleven_optima_network, flow) for flow in flows] == [0] * 11

    def test_stops_when_flows_run_out(self, forced_network):
        assert list(iter_k_best_flows(forced_network, 5)) == [solve_min_cost_flow(forced_network)]

    def test_invalid_k(self, chain3_network):
        with pytest.raises(ValueError):
            list(iter_k_best_flows(chain3_network, 0))

    def test_prefix_matches_bruteforce(self):
        rng = random.Random(321)
        for _ in range(60):
            net, _ = random_feasible_network(rng)
            feasible = enumerate_all_feasible_bruteforce(net)
            k = min(8, len(feasible))
            mine = list(iter_k_best_flows(net, k))
            reference = k_best_bruteforce(net, k)
            mine_costs = [flow_cost(net, flow) for flow in mine]
            assert mine_costs == [flow_cost(net, flow) for flow in reference]
            assert mine_costs == sorted(mine_costs)
            assert len({flow.values for flow in mine}) == len(mine)
