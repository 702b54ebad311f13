import random
from dataclasses import replace

import pytest

from flowenum.bruteforce import enumerate_all_feasible_bruteforce, k_best_bruteforce
from flowenum.core import Flow, check_feasible, flow_cost
from flowenum.errors import InfeasibleError, InvariantError
from flowenum.kbest import find_second_best_flow, iter_k_best_flows
from flowenum.solver import _dijkstra, _incidence, solve_min_cost_flow

from helpers import make_network, random_feasible_network, random_grid_network


def dijkstra_from(net, flow, potential, source):
    """The solver's residual Dijkstra, set up the way find_second_best_flow sets it up."""
    span = [arc.span for arc in net.arcs]
    extra = [value - arc.lower for arc, value in zip(net.arcs, flow.values)]
    out_arcs, in_arcs = _incidence(net)
    return _dijkstra(net, span, extra, potential, out_arcs, in_arcs, source)


class TestResidualDijkstra:
    def test_source_distance_is_zero(self):
        net = make_network(3, [(0, 1, 0, 1, 5)], (0, 0, 0))
        for source in range(3):
            dist, pred = dijkstra_from(net, Flow((0,)), (0, 0, 0), source)
            assert dist[source] == 0 and pred[source] is None

    def test_single_arc(self):
        net = make_network(2, [(0, 1, 0, 1, 5)], (0, 0))
        dist, pred = dijkstra_from(net, Flow((0,)), (0, 0), 0)
        assert dist == [0, 5]
        assert pred[1] == (0, True)

    def test_unreachable_node_is_none(self):
        net = make_network(2, [(0, 1, 0, 1, 5)], (0, 0))
        dist, pred = dijkstra_from(net, Flow((0,)), (0, 0), 1)
        assert dist == [None, 0]
        assert pred == [None, None]

    def test_negative_reduced_cost_raises(self):
        net = make_network(2, [(0, 1, 0, 1, -1)], (0, 0))
        with pytest.raises(InvariantError):
            dijkstra_from(net, Flow((0,)), (0, 0), 0)


class TestFindSecondBest:
    def test_chain3_prefers_the_direct_route(self, chain3_network):
        best = solve_min_cost_flow(chain3_network)
        second = find_second_best_flow(chain3_network, best)
        assert second == Flow((0, 0, 1))
        assert flow_cost(chain3_network, second) == 2

    def test_ties_are_served_before_the_cheapest_cycle(self, eleven_optima_network, eleven_optima_flow):
        second = find_second_best_flow(eleven_optima_network, eleven_optima_flow)
        assert second is not None and second != eleven_optima_flow
        assert flow_cost(eleven_optima_network, second) == 0

    def test_unique_flow_network_has_none(self, forced_network):
        assert find_second_best_flow(forced_network, Flow((2, 2))) is None

    def test_interior_arc_gives_no_cycle(self):
        # Strictly inside its bounds, the arc has residual arcs both ways,
        # and a cycle of the two would use it in both directions.
        net = make_network(2, [(0, 1, 0, 4, 1)], (2, -2))
        assert find_second_best_flow(net, Flow((2,))) is None

    def test_cheapest_cycle_takes_zero_cost_detour(self):
        # The optimum uses arc 0 (0->2); undoing it, the way back from 0 to
        # 2 costs 0 in reduced costs through 0->1->2 and 1 along arc 1.
        net = make_network(
            3,
            [(0, 2, 0, 1, 1), (0, 2, 0, 1, 3), (0, 1, 0, 1, 1), (1, 2, 0, 1, 1)],
            (1, 0, -1),
        )
        best = solve_min_cost_flow(net)
        assert best == Flow((1, 0, 0, 0))
        second = find_second_best_flow(net, best)
        assert second == Flow((0, 0, 1, 1))
        assert flow_cost(net, second) == 2

    def test_step_is_one_unit_around_a_proper_cycle(self):
        rng = random.Random(5150)
        moved = 0
        for _ in range(120):
            net, _ = random_feasible_network(rng)
            best = solve_min_cost_flow(net)
            second = find_second_best_flow(net, best)
            if second is None or flow_cost(net, second) == flow_cost(net, best):
                continue
            moved += 1
            assert check_feasible(net, second)
            changes = [b - a for a, b in zip(best.values, second.values)]
            assert set(changes) <= {-1, 0, 1} and any(changes)
        assert moved > 20

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


def single_arc_restrictions(net, best):
    """Every flow other than `best` lies in one of these networks."""
    for index, arc in enumerate(net.arcs):
        value = best.values[index]
        halves = []
        if value > arc.lower:
            halves.append(replace(arc, upper=value - 1))
        if value < arc.upper:
            halves.append(replace(arc, lower=value + 1))
        for half in halves:
            yield replace(net, arcs=net.arcs[:index] + (half,) + net.arcs[index + 1:])


class TestSecondBestOnGrids:
    def test_matches_the_cheapest_single_arc_restriction(self):
        # Grids far too large for the oracle: the second-best cost must be
        # the cheapest optimum over the networks that exclude `best`.
        rng = random.Random(7)
        for side in [6] * 17 + [7, 7, 8]:
            net = random_grid_network(rng, side, side)
            best = solve_min_cost_flow(net)
            reference = None
            for restricted in single_arc_restrictions(net, best):
                try:
                    cost = flow_cost(restricted, solve_min_cost_flow(restricted))
                except InfeasibleError:
                    continue
                reference = cost if reference is None else min(reference, cost)
            second = find_second_best_flow(net, best)
            if reference is None:
                assert second is None
            else:
                assert check_feasible(net, second)
                assert flow_cost(net, second) == reference
