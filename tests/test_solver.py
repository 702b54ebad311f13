import random
from collections import Counter

import pytest

import flowenum.solver
from flowenum.core import (
    Flow,
    build_residual,
    check_feasible,
    flow_cost,
    frame_of,
    residual_room,
    validate_network,
)
from flowenum.errors import InfeasibleError, InfeasibleFlowError, InvariantError, NegativeCycleError
from flowenum.solver import _dijkstra, compute_node_potentials, compute_reduced_costs, solve_min_cost_flow

from helpers import make_network, random_feasible_network, random_grid_network, round_based_potentials


def residual_weights(rg, reduced_costs):
    """Per residual arc: the origin's reduced cost, negated on backward arcs."""
    return [reduced_costs[res.origin_arc] * (1 if res.forward else -1) for res in rg.arcs]


def full_search_solve(net):
    """Reference: successive shortest paths with a full Dijkstra per augmentation."""
    validate_network(net)
    n = net.node_count
    arcs = net.arcs
    # room[2a] is the capacity left on arc a, room[2a + 1] its flow above lower.
    room = [spare for arc in arcs for spare in (arc.span, 0)]
    imbalance = list(net.balances)
    for arc in arcs:
        imbalance[arc.src] -= arc.lower
        imbalance[arc.dst] += arc.lower
    for index, arc in enumerate(arcs):
        if arc.cost < 0:
            room[2 * index], room[2 * index + 1] = 0, arc.span
            imbalance[arc.src] -= arc.span
            imbalance[arc.dst] += arc.span
    frame = frame_of(net)
    head, cost, incident = frame.head, frame.cost, frame.incident
    potential = [0] * n
    source = 0
    while True:
        while source < n and imbalance[source] <= 0:
            source += 1
        if source == n:
            break
        dist, pred = [None] * n, [None] * n
        for _ in _dijkstra(head, cost, room, potential, incident, source, dist, pred):
            pass
        target = None
        for node in range(n):
            if imbalance[node] < 0 and dist[node] is not None:
                if target is None or dist[node] < dist[target]:
                    target = node
        if target is None:
            raise InfeasibleError("supply cannot reach demand in the residual graph")
        reach = dist[target]
        for node in range(n):
            here = dist[node]
            potential[node] += reach if here is None or here > reach else here
        amount = min(imbalance[source], -imbalance[target])
        node = target
        while node != source:
            amount = min(amount, room[pred[node]])
            node = head[pred[node] ^ 1]
        node = target
        while node != source:
            room[pred[node]] -= amount
            room[pred[node] ^ 1] += amount
            node = head[pred[node] ^ 1]
        imbalance[source] -= amount
        imbalance[target] += amount
    result = Flow(tuple(arc.lower + room[2 * index + 1] for index, arc in enumerate(arcs)))
    if not check_feasible(net, result):
        raise InvariantError("successive shortest paths ended on an infeasible flow")
    return result


def watch_searches(monkeypatch):
    """Wrap the solver's Dijkstra; log each search against a full run from the same state.

    Per search: the source, the potentials and imbalances it started from,
    the full run's dist, pred and settling order, and each node read with its
    entries when yielded.  The Dijkstra never sees the network, so the wrapped
    `validate_network` hands it over for the imbalances.
    """
    log = []
    solving = []

    def validated(net):
        solving[:] = [net]
        validate_network(net)

    def watched(head, cost, room, potential, incident, source, dist, pred):
        net = solving[0]
        full_dist, full_pred = [None] * net.node_count, [None] * net.node_count
        full_order = list(_dijkstra(head, cost, room, potential, incident, source, full_dist,
                                    full_pred))
        imbalance = list(net.balances)
        for index, arc in enumerate(net.arcs):
            imbalance[arc.src] -= arc.lower + room[2 * index + 1]
            imbalance[arc.dst] += arc.lower + room[2 * index + 1]
        search = {"source": source, "potential": list(potential), "imbalance": imbalance,
                  "full_dist": full_dist, "full_pred": full_pred, "full_order": full_order,
                  "read": []}
        log.append(search)
        for node in _dijkstra(head, cost, room, potential, incident, source, dist, pred):
            search["read"].append((node, dist[node], pred[node]))
            yield node

    monkeypatch.setattr(flowenum.solver, "validate_network", validated)
    monkeypatch.setattr(flowenum.solver, "_dijkstra", watched)
    return log


def two_way_grid(seed, size=12, **kwargs):
    return random_grid_network(random.Random(seed), size, size, both_ways=True, **kwargs)


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


class TestStoppedSearch:
    """Each augmentation's Dijkstra stops once the nearest deficits are settled."""

    def test_settled_nodes_match_the_full_search(self, monkeypatch):
        reaches, stops = self.settled_against_the_full_search(monkeypatch, {})
        assert any(reaches) and stops["lowest", True] and stops["past"]

    def test_zero_cost_searches_stop_at_the_lowest_deficit(self, monkeypatch):
        # Every node lies within reach 0, and the stop at the lowest deficit is what
        # keeps a search from reading them all.
        reaches, stops = self.settled_against_the_full_search(monkeypatch,
                                                              {"min_cost": 0, "max_cost": 0})
        assert not any(reaches) and stops["lowest", True] > len(reaches) // 2

    @staticmethod
    def settled_against_the_full_search(monkeypatch, costs):
        """Check every search of solves on two-way grids against a full search from the
        same state; the reaches met, and how many searches stopped where.

        A search reads a prefix of the full search's order: the nodes within
        reach, and then one node past them if there is one, unless it stops as
        soon as the lowest-index deficit settles.  Only the settled nodes' potentials move,
        by dist - reach, which is 0 on any node left unread within reach."""
        searches = watch_searches(monkeypatch)
        reaches, stops = [], Counter()
        for seed in (1, 2, 3):
            searches.clear()
            solve_min_cost_flow(two_way_grid(seed, **costs))
            for search, after in zip(searches, searches[1:] + [None]):
                full_dist, imbalance = search["full_dist"], search["imbalance"]
                reach = min(d for node, d in enumerate(full_dist)
                            if d is not None and imbalance[node] < 0)
                within = {node for node, d in enumerate(full_dist) if d is not None and d <= reach}
                lowest = min(node for node, value in enumerate(imbalance) if value < 0)
                read = search["read"]
                assert [node for node, *_ in read] == search["full_order"][:len(read)]
                assert all((d, p) == (full_dist[node], search["full_pred"][node]) for node, d, p in read)
                settled = {node for node, d, _ in read if d <= reach}
                if read[-1][0] == lowest and full_dist[lowest] == reach:
                    assert len(settled) == len(read)
                    stops["lowest", settled < within] += 1
                else:
                    assert settled == within
                    assert read[-1][1] > reach or len(read) == len(search["full_order"])
                    stops["past"] += 1
                if after is not None:
                    assert after["potential"] == [
                        p + (full_dist[node] - reach if node in within else 0)
                        for node, p in enumerate(search["potential"])]
                reaches.append(reach)
        assert len(reaches) > 100
        return reaches, stops

    def test_tied_deficits_go_to_the_lower_index(self):
        # Nodes 1 and 2 are both one unit away from node 0, and node 2 is
        # pushed, and so popped, first.  Node 1 must take node 0's unit.
        net = make_network(
            4,
            [(0, 2, 0, 1, 1), (0, 1, 0, 1, 1), (3, 1, 0, 1, 5), (3, 2, 0, 1, 5)],
            (1, -1, -1, 1),
        )
        assert solve_min_cost_flow(net) == Flow((0, 1, 0, 1))
        assert full_search_solve(net) == Flow((0, 1, 0, 1))

    def test_searches_settle_fewer_nodes(self, monkeypatch):
        searches = watch_searches(monkeypatch)
        net = two_way_grid(5)
        solve_min_cost_flow(net)
        assert len(searches) > 50
        assert sum(len(search["read"]) for search in searches) < net.node_count * len(searches) // 4

    def test_second_augmentation_without_reachable_demand_is_infeasible(self, monkeypatch):
        # The first unit goes 0 -> 1; then no residual arc leaves node 0,
        # and node 2 (which only feeds node 0) keeps its demand.
        searches = watch_searches(monkeypatch)
        net = make_network(3, [(0, 1, 0, 1, 1), (2, 0, 0, 1, 1)], (2, -1, -1))
        with pytest.raises(InfeasibleError):
            solve_min_cost_flow(net)
        assert [search["source"] for search in searches] == [0, 0]

    def test_matches_the_full_search_reference(self):
        for seed in range(1, 7):
            net = two_way_grid(seed, size=8 if seed % 2 else 12)
            assert solve_min_cost_flow(net) == full_search_solve(net)
            # Zero costs put every node at reach 0, so each search stops at the lowest deficit.
            for both_ways in (True, False):
                net = random_grid_network(random.Random(seed), 6 + seed, 6, min_cost=0,
                                          max_cost=0, both_ways=both_ways)
                assert solve_min_cost_flow(net) == full_search_solve(net)
            net = random_grid_network(random.Random(seed), 10, 10)
            assert solve_min_cost_flow(net) == full_search_solve(net)
        rng = random.Random(606)
        for _ in range(200):
            net, _ = random_feasible_network(rng, max_nodes=12, max_arcs=30, max_span=5, max_cost=6)
            assert solve_min_cost_flow(net) == full_search_solve(net)


class TestIncidence:
    def test_out_arcs_forward_then_in_arcs_backward(self):
        # Per node: forward ids of its out-arcs, then backward ids of its
        # in-arcs, each in arc order, not ascending ids.  Dijkstra keeps the
        # first of equally short paths, so every tie-break depends on it.
        net = make_network(
            3,
            [(1, 0, 0, 1, 0), (0, 2, 0, 1, 0), (2, 0, 0, 1, 0), (0, 1, 0, 1, 0)],
            (0, 0, 0),
        )
        assert frame_of(net).incident == [[2, 6, 1, 5], [0, 7], [4, 3]]


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

    def test_infeasible_flow_raises(self, chain3_network):
        with pytest.raises(InfeasibleFlowError):
            compute_node_potentials(chain3_network, Flow((1, 0, 0)))

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

    def test_matches_the_round_based_reference(self):
        def reached_from_0(frame, values):
            room, seen, stack = residual_room(frame, values), {0}, [0]
            while stack:
                for index in frame.incident[stack.pop()]:
                    if room[index] and frame.head[index] not in seen:
                        seen.add(frame.head[index])
                        stack.append(frame.head[index])
            return len(seen)

        def outcome(potentials, frame, values):
            try:
                return potentials(frame, residual_room(frame, values))
            except NegativeCycleError:
                return "negative cycle"

        # Two fixed instances where node 0 reaches no node.  In the first, node 3, scanned
        # last from `big` = 18, drops node 1 to 13 after node 1 was scanned from `big`, so
        # node 1 is scanned again.  In the second, nodes 2 and 3 close a cycle of cost -1
        # that node 1 reaches and node 0 does not.
        fixed = [(make_network(4, [(1, 0, 0, 1, 2), (3, 2, 0, 1, -4), (2, 1, 0, 2, 3),
                                   (3, 1, 0, 1, -5)], (0, 0, -1, 1)), Flow((0, 1, 0, 0))),
                 (make_network(4, [(1, 0, 0, 1, 2), (1, 2, 0, 1, 0), (2, 3, 0, 1, -2),
                                   (3, 2, 0, 1, 1)], (0, 0, 0, 0)), Flow((0, 0, 0, 0)))]
        assert [(reached_from_0(frame_of(net), flow.values),
                 outcome(flowenum.solver._potentials, frame_of(net), flow.values))
                for net, flow in fixed] == [(1, (0, 13, 18, 18)), (1, "negative cycle")]
        rng = random.Random(2025)
        seen = Counter()
        instances = fixed + [random_feasible_network(rng, max_nodes=8, max_arcs=14) for _ in range(300)]
        instances += [(net, solve_min_cost_flow(net)) for net in
                      (random_grid_network(random.Random(seed), 5, 5) for seed in range(10))]
        for net, witness in instances:
            frame = frame_of(net)
            for flow in (witness, solve_min_cost_flow(net)):
                found = outcome(flowenum.solver._potentials, frame, flow.values)
                assert found == outcome(round_based_potentials, frame, flow.values)
                if found == "negative cycle":
                    seen["raised"] += 1
                else:
                    seen["unreached" if reached_from_0(frame, flow.values) < net.node_count
                         else "reached"] += 1
        assert seen["raised"] > 100 and seen["unreached"] > 200 and seen["reached"] > 100


def network_simplex_cost(nx, net):
    """networkx's optimal cost for net; lower bounds are substituted away for it."""
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
    return reference + offset


class TestAgainstNetworkx:
    def test_optimal_cost_matches_network_simplex(self):
        # Instances far past the oracle's reach, checked against an
        # independent solver.
        nx = pytest.importorskip("networkx")
        rng = random.Random(4242)
        for _ in range(40):
            net, _ = random_feasible_network(rng, min_nodes=50, max_nodes=200, max_arcs=600,
                                             max_span=6, max_cost=40)
            assert flow_cost(net, solve_min_cost_flow(net)) == network_simplex_cost(nx, net)

    def test_wide_span_grids_match_network_simplex(self):
        # Spans up to 10**6 make hundreds of augmentations, each stopped at
        # its nearest deficit; this is where the stopped searches save most.
        nx = pytest.importorskip("networkx")
        for seed in (1, 2, 3):
            net = two_way_grid(seed, size=20, max_span=10**6)
            assert flow_cost(net, solve_min_cost_flow(net)) == network_simplex_cost(nx, net)
