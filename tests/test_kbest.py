import hashlib
import random
from dataclasses import replace

import pytest

import flowenum.kbest
from flowenum.bruteforce import enumerate_all_feasible_bruteforce, k_best_bruteforce
from flowenum.core import Flow, check_feasible, flow_cost, frame_of, push_unit, residual_room
from flowenum.dfs import _forest, _proper_cycle, another_flow, find_another_feasible_flow
from flowenum.enumeration import optimal_face
from flowenum.errors import (
    InfeasibleError,
    InfeasibleFlowError,
    InvariantError,
    NegativeCycleError,
    UnbalancedSupplyError,
)
from flowenum.kbest import _nearest, find_second_best_flow, iter_k_best_flows
from flowenum.solver import _dijkstra, compute_node_potentials, compute_reduced_costs, solve_min_cost_flow

from helpers import (
    face_network,
    linked_cycles,
    make_network,
    random_feasible_network,
    random_grid_network,
    reference_k_best_flows,
)


def search(net, room, potential, source, dist, pred):
    """The solver's residual Dijkstra over the network's frame."""
    frame = frame_of(net)
    return _dijkstra(frame.head, frame.cost, room, potential, frame.incident, source, dist, pred)


def dijkstra_from(net, flow, potential, source):
    """A full run of the solver's residual Dijkstra, set up the way find_second_best_flow sets it up.

    Returns the yield order and the dist/pred entries each node had when it
    was yielded, plus the final dist and pred lists, each pred residual id
    `r` read as the pair (arc, forward) = (r >> 1, not r & 1).
    """
    def pair(index):
        return None if index is None else (index >> 1, not index & 1)

    dist, pred = [None] * net.node_count, [None] * net.node_count
    seen = [(node, dist[node], pair(pred[node]))
            for node in search(net, residual_room(frame_of(net), flow.values), potential, source,
                               dist, pred)]
    return seen, dist, [pair(index) for index in pred]


def watch_searches(monkeypatch):
    """Wrap kbest's search kernel; per search, log (source, nodes read, nodes a full run yields)."""
    log = []

    def watched(out, source, dist, pred):
        n = len(out)
        full = sum(1 for _ in _nearest(out, source, [None] * n, [None] * n))
        read = []
        log.append((source, read, full))
        for node in _nearest(out, source, dist, pred):
            read.append(node)
            yield node

    monkeypatch.setattr(flowenum.kbest, "_nearest", watched)
    return log


def unpruned_second_best(net, flow):
    """Reference: one full search per distinct head, first strictly cheapest arc in id order."""
    potential = compute_node_potentials(net, flow)
    reduced_costs = compute_reduced_costs(net, potential)
    tied = find_another_feasible_flow(face_network(net, flow), flow)
    if tied is not None:
        return tied
    arcs = net.arcs
    span = [arc.span for arc in arcs]
    extra = [value - arc.lower for arc, value in zip(arcs, flow.values)]
    frame = frame_of(net)
    room, heads = residual_room(frame, flow.values), frame.head
    searches = {}
    best_total = best = None
    for index, arc in enumerate(arcs):
        if span[index] == 0:
            continue
        if extra[index] == 0:
            head, tail, weight = arc.dst, arc.src, reduced_costs[index]
        elif extra[index] == span[index]:
            head, tail, weight = arc.src, arc.dst, -reduced_costs[index]
        else:
            continue
        if head not in searches:
            searches[head] = ([None] * net.node_count, [None] * net.node_count)
            for _ in search(net, room, potential, head, *searches[head]):
                pass
        back = searches[head][0][tail]
        if back is not None and (best_total is None or weight + back < best_total):
            best_total = weight + back
            best = (index, extra[index] == 0, head, tail)
    if best is None:
        return None
    index, forward, head, tail = best
    values = list(flow.values)
    values[index] += 1 if forward else -1
    pred = searches[head][1]
    node = tail
    while node != head:
        values[pred[node] >> 1] += -1 if pred[node] & 1 else 1
        node = heads[pred[node] ^ 1]
    return Flow(tuple(values))


def candidate_tails(net, flow):
    """Per head of an arc at a bound (a candidate cycle's start), the cycles' tails."""
    tails = {}
    for arc, value in zip(net.arcs, flow.values):
        if arc.span and value == arc.lower:
            tails.setdefault(arc.dst, set()).add(arc.src)
        elif arc.span and value == arc.upper:
            tails.setdefault(arc.src, set()).add(arc.dst)
    return tails


def chain_network(costs):
    """0 -> 1 -> ... with one unit of room on each arc and the given costs."""
    specs = [(node, node + 1, 0, 1, cost) for node, cost in enumerate(costs)]
    return make_network(len(costs) + 1, specs, (0,) * (len(costs) + 1))


# sha256 of repr((dist, pred)) for a full search from every node of the
# three grids in TestResidualDijkstra, computed with the search that
# returned dist and pred lists instead of yielding nodes.
FULL_SEARCH_DIGEST = "488a9d08fbcd21872682019d29a103aedbf94c21f29e1a6a471deaa44bba9d56"


def grid_searches():
    """Per grid: the network, its optimal flow and optimal potentials."""
    rng = random.Random(99)
    for side in (5, 6, 7):
        net = random_grid_network(rng, side, side)
        best = solve_min_cost_flow(net)
        yield net, best, compute_node_potentials(net, best)


class TestResidualDijkstra:
    def test_source_distance_is_zero(self):
        net = make_network(3, [(0, 1, 0, 1, 5)], (0, 0, 0))
        for source in range(3):
            seen, dist, pred = dijkstra_from(net, Flow((0,)), (0, 0, 0), source)
            assert seen[0] == (source, 0, None)
            assert dist[source] == 0 and pred[source] is None

    def test_single_arc(self):
        net = make_network(2, [(0, 1, 0, 1, 5)], (0, 0))
        seen, dist, pred = dijkstra_from(net, Flow((0,)), (0, 0), 0)
        assert seen == [(0, 0, None), (1, 5, (0, True))]
        assert dist == [0, 5]

    def test_unreachable_node_is_none(self):
        # It is never yielded, and never given even a tentative distance.
        net = make_network(2, [(0, 1, 0, 1, 5)], (0, 0))
        seen, dist, pred = dijkstra_from(net, Flow((0,)), (0, 0), 1)
        assert seen == [(1, 0, None)]
        assert dist == [None, 0]
        assert pred == [None, None]

    def test_negative_reduced_cost_raises(self):
        net = make_network(2, [(0, 1, 0, 1, -1)], (0, 0))
        with pytest.raises(InvariantError):
            dijkstra_from(net, Flow((0,)), (0, 0), 0)

    def test_nodes_are_yielded_nearest_first(self):
        net = chain_network([1, 1, 0, 1])
        seen, dist, _ = dijkstra_from(net, Flow((0,) * 4), (0,) * 5, 0)
        assert [node for node, *_ in seen] == [0, 1, 2, 3, 4]
        assert dist == [0, 1, 2, 2, 3]

    def test_settled_nodes_match_the_full_search(self):
        # Each node is yielded once, nearest first, with the entries the
        # full run ends with; the unreached ones are never yielded.
        checked = 0
        for net, best, potential in grid_searches():
            for source in range(net.node_count):
                seen, dist, pred = dijkstra_from(net, best, potential, source)
                assert sorted(node for node, *_ in seen) == [
                    node for node, d in enumerate(dist) if d is not None]
                assert [d for _, d, _ in seen] == sorted(d for _, d, _ in seen)
                assert all((d, p) == (dist[node], pred[node]) for node, d, p in seen)
                checked += len(seen)
        assert checked > 2000

    def test_full_searches_are_pinned(self):
        digest = hashlib.sha256()
        for net, best, potential in grid_searches():
            for source in range(net.node_count):
                _, dist, pred = dijkstra_from(net, best, potential, source)
                digest.update(repr((dist, pred)).encode())
        assert digest.hexdigest() == FULL_SEARCH_DIGEST


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

    def test_matches_the_unpruned_reference(self):
        rng = random.Random(2718)
        instances = [random_grid_network(rng, side, side) for side in (6, 6, 7, 7, 8, 8, 8, 8)]
        instances += [random_feasible_network(rng, max_nodes=8, max_arcs=14)[0] for _ in range(150)]
        moved = 0
        for net in instances:
            best = solve_min_cost_flow(net)
            second = find_second_best_flow(net, best)
            assert second == unpruned_second_best(net, best)
            if second is not None and flow_cost(net, second) > flow_cost(net, best):
                moved += 1
        assert moved > 60

    def test_tied_totals_go_to_the_smaller_arc_index(self):
        # Two separate swaps each cost one more than the optimum.  The swap
        # of arcs 2 and 3 is found first (head 1 has a zero-weight candidate),
        # but arc 0 of the other swap has the smaller index and must win.
        # That search's radius is exactly its tail's distance, so this also
        # checks that nodes tied at the radius are still settled.
        net = make_network(
            4,
            [(2, 3, 0, 1, 1), (2, 3, 0, 1, 2), (0, 1, 0, 1, 1), (0, 1, 0, 1, 2), (1, 2, 0, 0, 0)],
            (1, -1, 1, -1),
        )
        best = solve_min_cost_flow(net)
        assert best == Flow((1, 0, 1, 0, 0))
        second = find_second_best_flow(net, best)
        assert second == Flow((0, 1, 1, 0, 0))
        assert second == unpruned_second_best(net, best)

    def test_searches_are_pruned(self, monkeypatch):
        # Fewer searches than heads, and fewer nodes read than full searches
        # yield; some searches stop at their radius before all their tails.
        searches = watch_searches(monkeypatch)
        net = random_grid_network(random.Random(8), 8, 8)
        best = solve_min_cost_flow(net)
        second = find_second_best_flow(net, best)
        assert flow_cost(net, second) > flow_cost(net, best)
        tails = candidate_tails(net, best)
        assert 0 < len(searches) < len(tails)
        assert sum(len(read) for _, read, _ in searches) < sum(full for *_, full in searches)
        assert any(len(read) < full and not tails[head] <= set(read) for head, read, full in searches)

    def test_search_stops_once_its_tails_are_settled(self, monkeypatch):
        # The first search has no best cycle to bound it, so only its tails stop it.
        searches = watch_searches(monkeypatch)
        for seed in (2, 5, 8):
            searches.clear()
            net = random_grid_network(random.Random(seed), 8, 8)
            find_second_best_flow(net, solve_min_cost_flow(net))
            _, read, full = searches[0]
            assert len(read) < full

    def test_invariant_is_checked_where_no_search_goes(self, monkeypatch):
        # Arc 0 is used, arc 1 is the cheap alternative, and arc 2 leads to
        # a separate pair whose interior arc 3 gets a negative reduced cost
        # from the bad potentials.  The search from node 0 stops once node 1
        # is settled and never scans arc 3, and head 2 is too costly to search.
        net = make_network(
            4,
            [(0, 1, 0, 1, 1), (0, 1, 0, 1, 2), (1, 2, 0, 1, 50), (2, 3, 0, 2, 100)],
            (1, -1, 1, -1),
        )
        best = Flow((1, 0, 0, 1))
        assert best == solve_min_cost_flow(net)
        monkeypatch.setattr(flowenum.kbest, "_potentials", lambda frame, room: (0, 1, 0, 200))
        with pytest.raises(InvariantError):
            find_second_best_flow(net, best)

    def test_cycle_using_an_arc_both_ways_is_an_invariant_error(self, monkeypatch):
        # The cheapest cycle is arc 0 forward and arc 1 back.  Corrupting the
        # search from node 1 so that node 0 seems reached by arc 0's backward
        # id closes a cycle that uses arc 0 in both directions.
        net = make_network(2, [(0, 1, 0, 1, 1), (1, 0, 0, 1, 1)], (0, 0))
        assert find_second_best_flow(net, Flow((0, 0))) == Flow((1, 1))

        def corrupted(out, source, dist, pred):
            for node in _nearest(out, source, dist, pred):
                if (source, node) == (1, 0):
                    pred[0] = 1
                yield node

        monkeypatch.setattr(flowenum.kbest, "_nearest", corrupted)
        with pytest.raises(InvariantError, match="uses an arc twice"):
            find_second_best_flow(net, Flow((0, 0)))

    def test_infeasible_flow_raises(self, chain3_network):
        with pytest.raises(InfeasibleFlowError):
            find_second_best_flow(chain3_network, Flow((1, 1, 1)))
        with pytest.raises(InfeasibleFlowError):
            find_second_best_flow(chain3_network, Flow((-1, 0, 2)))

    def test_non_optimal_flow_raises(self, chain3_network):
        with pytest.raises(NegativeCycleError):
            find_second_best_flow(chain3_network, Flow((0, 0, 1)))

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


# Head searches and nodes read per `iter_k_best_flows(net, 10)` on
# random_grid_network(Random(seed), 8, 8), as counted when the offers still
# searched with the solver's Dijkstra: the kernel neither adds nor skips one.
SEARCH_COUNTS = {0: (557, 8504), 1: (485, 9475), 2: (513, 12005), 3: (656, 8334),
                 4: (590, 9937), 5: (451, 6323)}


def yielded(walk, dist, pred):
    """The nodes a search yields, each with its dist and pred entries then, and the final lists."""
    return [(node, dist[node], pred[node]) for node in walk], dist, pred


class TestOfferLists:
    """The lists one pass over the residual ids builds per offer, against the searches they replace."""

    def test_kernel_matches_the_solver_dijkstra_from_every_candidate_head(self, monkeypatch):
        lists = []
        monkeypatch.setattr(flowenum.kbest, "_nearest",
                            lambda out, *rest: lists.append(out) or _nearest(out, *rest))
        compared = 0
        for seed in range(6):
            lists.clear()
            net = random_grid_network(random.Random(seed), 8, 8)
            best = solve_min_cost_flow(net)
            find_second_best_flow(net, best)
            if not lists:  # a tie came first, so no cycle was searched
                continue
            room, potential = residual_room(frame_of(net), best.values), compute_node_potentials(net, best)
            for head in candidate_tails(net, best):
                mine, theirs = (([None] * net.node_count, [None] * net.node_count) for _ in range(2))
                assert (yielded(_nearest(lists[0], head, *mine), *mine)
                        == yielded(search(net, room, potential, head, *theirs), *theirs))
                compared += 1
        assert compared > 100

    def test_tie_search_matches_the_optimal_face_search(self):
        ties = sensitive = 0
        for seed in range(8):
            for min_cost, max_cost, both_ways in ((0, 0, True), (0, 1, False), (0, 1, True)):
                net = random_grid_network(random.Random(seed), 5, 5, min_cost=min_cost,
                                          max_cost=max_cost, both_ways=both_ways)
                best = solve_min_cost_flow(net)
                frame, potential = frame_of(net), compute_node_potentials(net, best)
                reduced_costs = compute_reduced_costs(net, potential)
                tied = another_flow(optimal_face(frame, best.values, reduced_costs), best.values)
                second = find_second_best_flow(net, best)
                if tied is None:
                    assert second is None or flow_cost(net, second) > flow_cost(net, best)
                    continue
                ties += 1
                assert second == tied
                # Count the grids where the face's out-lists in `incident` order
                # (forward ids before backward ones) lead the DFS to another tie.
                room = residual_room(frame, best.values)
                face = [[index for index in ids if room[index] and not reduced_costs[index >> 1]]
                        for ids in frame.incident]
                cycle = _proper_cycle(_forest(face, frame.head), frame.head, frame.origin)
                sensitive += push_unit(frame, best.values, cycle) != tied
        assert 15 < ties < 24 and sensitive > 3

    def test_each_offer_builds_its_residual_room_once(self, monkeypatch):
        offers, rooms = [], []
        second_best = flowenum.kbest._second_best
        monkeypatch.setattr(flowenum.kbest, "_second_best",
                            lambda *args: offers.append(args) or second_best(*args))
        for module in (flowenum.kbest, flowenum.solver):
            monkeypatch.setattr(module, "residual_room",
                                lambda *args: rooms.append(args) or residual_room(*args))
        list(iter_k_best_flows(random_grid_network(random.Random(3), 8, 8), 10))
        assert len(offers) > 10 and len(rooms) == len(offers)

    @pytest.mark.parametrize("seed", sorted(SEARCH_COUNTS))
    def test_search_counts_are_pinned(self, monkeypatch, seed):
        searches = watch_searches(monkeypatch)
        list(iter_k_best_flows(random_grid_network(random.Random(seed), 8, 8), 10))
        assert (len(searches), sum(len(read) for _, read, _ in searches)) == SEARCH_COUNTS[seed]


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
        # Floats and bools are turned away too: 2.5 would yield 3 flows, True 1.
        for k in (0, -1, 2.5, True, 2.0, "2"):
            with pytest.raises(ValueError, match="k must be positive and an int"):
                list(iter_k_best_flows(chain3_network, k))

    def test_k_is_checked_before_the_network(self):
        unbalanced = make_network(2, [(0, 1, 0, 1, 0)], (1, 0))
        with pytest.raises(ValueError, match="k must be positive"):
            list(iter_k_best_flows(unbalanced, 0))
        with pytest.raises(UnbalancedSupplyError):
            list(iter_k_best_flows(unbalanced, 1))

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


class TestRegionsOnOneFrame:
    """The regions on the instance's frame against the search that kept one network per region."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("max_cost", [0, 50])
    def test_flow_order_matches_the_network_per_region_search(self, seed, max_cost):
        rng = random.Random(seed)
        side = 6 + seed % 3
        grid = random_grid_network(rng, side, side, min_cost=-20 if max_cost else 0,
                                   max_cost=max_cost, both_ways=not max_cost)
        mine = list(iter_k_best_flows(grid, 40))
        assert mine == list(reference_k_best_flows(grid, 40))
        assert len(mine) == 40

    @pytest.mark.parametrize("seed, k, span", [(1, 4, 3), (2, 3, 4), (3, 5, 2)])
    def test_flow_order_matches_on_chained_cycles(self, seed, k, span):
        rng = random.Random(seed)
        net, *_ = linked_cycles(rng, k, span, [rng.randint(0, 3) for _ in range(k)])
        mine = list(iter_k_best_flows(net, 300))
        assert mine == list(reference_k_best_flows(net, 300))
        assert len(mine) == min(300, (span + 1) ** k)


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
