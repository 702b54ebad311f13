import hashlib
import heapq
import random
from dataclasses import replace

import pytest

import flowenum.kbest
from flowenum.bruteforce import enumerate_all_feasible_bruteforce, k_best_bruteforce
from flowenum.core import Flow, check_feasible, flow_cost, frame_of, push_unit, residual_room
from flowenum.dfs import _forest, _proper_cycle, _search, find_another_feasible_flow
from flowenum.enumeration import optimal_face
from flowenum.errors import (
    InfeasibleError,
    InfeasibleFlowError,
    InvariantError,
    NegativeCycleError,
    UnbalancedSupplyError,
)
from flowenum.kbest import find_second_best_flow, iter_k_best_flows
from flowenum.solver import _dijkstra, compute_reduced_costs, solve_min_cost_flow

import helpers
from helpers import (
    face_network,
    linked_cycles,
    make_network,
    node_potentials,
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


def watch_reads(monkeypatch, searches):
    """Log each K-best group search at the end of `searches()` as (start group, pops, scans).

    `pops` holds every `(distance, group)` label its heap pops, stale ones included
    (the region heap's entries are longer); a group is read when a label of it is
    popped.  `scans` holds each group whose links the search scans, in order: a group
    is settled when its links are scanned.
    """
    search_back = flowenum.kbest._search_back

    class Links(list):
        def __iter__(self):
            searches()[-1][2].append(self.group)
            return super().__iter__()

    def search(links, start, waiting, best):
        searches().append((start, [], []))
        watched = []
        for group, edges in enumerate(links):
            watched.append(Links(edges))
            watched[-1].group = group
        return search_back(watched, start, waiting, best)

    def pop(heap):
        label = heapq.heappop(heap)
        if len(label) == 2:
            searches()[-1][1].append(label)
        return label

    monkeypatch.setattr(flowenum.kbest, "_search_back", search)
    monkeypatch.setattr(flowenum.kbest, "heappop", pop)


def group_reach(frame, values):
    """Per start node, how many free-arc groups the residual ids with room reach from it:
    the groups a full, unpruned group search from there reads."""
    room, head = residual_room(frame, values), frame.head

    def reached(start, free):
        seen, stack = {start}, [start]
        while stack:
            for index in frame.incident[stack.pop()]:
                if room[index] and (room[index ^ 1] or not free) and head[index] not in seen:
                    seen.add(head[index])
                    stack.append(head[index])
        return seen

    group = {}
    for node in range(frame.node_count):
        if node not in group:
            group.update(dict.fromkeys(reached(node, True), node))
    return lambda start: len({group[node] for node in reached(start, False)})


def watch_searches(monkeypatch):
    """Wrap kbest's offers, group searches and path traces.

    Per offer, logs its group searches, each as (start group, groups read,
    groups a full search reads), and the start node of each trace.
    """
    offers = []
    second_best = flowenum.kbest._second_best

    def offer(region, values):
        searches, traces = [], []
        offers.append((searches, traces))
        found = second_best(region, values)
        reach = group_reach(region, values)
        searches[:] = [(start, list(dict.fromkeys(group for _, group in pops)), reach(start))
                       for start, pops, _ in searches]
        return found

    def traced(head, cost, room, potential, incident, start, dist, pred):
        offers[-1][1].append(start)
        return _dijkstra(head, cost, room, potential, incident, start, dist, pred)

    monkeypatch.setattr(flowenum.kbest, "_second_best", offer)
    watch_reads(monkeypatch, lambda: offers[-1][0])
    monkeypatch.setattr(flowenum.kbest, "_dijkstra", traced)
    return offers


def free_groups(net, flow):
    """Per node, the least node joined to it by free arcs (arcs strictly inside their bounds)."""
    group = list(range(net.node_count))
    for arc, value in zip(net.arcs, flow.values):
        if arc.lower < value < arc.upper:
            old, new = sorted((group[arc.src], group[arc.dst]))
            group = [old if label == new else label for label in group]
    return group


def unpruned_second_best(net, flow):
    """Reference: one full search per distinct head, first strictly cheapest arc in id order."""
    potential = node_potentials(net, flow)
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


def group_tails(net, flow):
    """`candidate_tails` between the free-arc groups of `free_groups`."""
    group, tails = free_groups(net, flow), {}
    for head, heads_tails in candidate_tails(net, flow).items():
        tails.setdefault(group[head], set()).update(group[tail] for tail in heads_tails)
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
        yield net, best, node_potentials(net, best)


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

    def test_nodes_are_yielded_closest_first(self):
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
        # Fewer group searches than head groups, and fewer groups read than full
        # searches yield; some searches stop at the best key before all their
        # tail groups settle.  Only the winner's path is traced, once.
        offers = watch_searches(monkeypatch)
        net = random_grid_network(random.Random(8), 8, 8)
        best = solve_min_cost_flow(net)
        second = find_second_best_flow(net, best)
        assert flow_cost(net, second) > flow_cost(net, best)
        [(searches, traces)] = offers
        group, tails = free_groups(net, best), group_tails(net, best)
        assert len(set(group)) < net.node_count
        assert 0 < len(searches) < len(tails)
        assert sum(len(read) for _, read, _ in searches) < sum(full for *_, full in searches)
        assert any(len(read) < full and not tails[group[start]] <= {group[node] for node in read}
                   for start, read, full in searches)
        assert len(traces) == 1

    def test_search_stops_once_its_tails_are_settled(self, monkeypatch):
        # Some search stops as soon as its last tail group settles, short of a full search.
        offers = watch_searches(monkeypatch)
        for seed in (2, 5, 8):
            offers.clear()
            net = random_grid_network(random.Random(seed), 8, 8)
            best = solve_min_cost_flow(net)
            find_second_best_flow(net, best)
            group, tails = free_groups(net, best), group_tails(net, best)
            [(searches, _)] = offers
            assert any(group[read[-1]] in tails[group[start]] and len(read) < full
                       and tails[group[start]] <= {group[node] for node in read}
                       for start, read, full in searches)

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

    @pytest.mark.parametrize("shift", [1, -1])
    def test_a_free_arc_of_nonzero_weight_raises_before_any_union(self, monkeypatch, shift):
        # Arc 2 lies strictly inside its bounds, so it is free and weighs 0 both ways.
        # Shifting the potential of its leaf end makes it weigh +-1 instead, and the
        # check of its ids must stop the offer before any group is formed or searched.
        net = make_network(3, [(0, 1, 0, 1, 1), (0, 1, 0, 1, 2), (1, 2, 0, 2, 3)], (1, 0, -1))
        best = solve_min_cost_flow(net)
        assert best == Flow((1, 0, 1))
        assert find_second_best_flow(net, best) == Flow((0, 1, 1))
        potential = list(node_potentials(net, best))
        potential[2] += shift
        calls = []
        monkeypatch.setattr(flowenum.kbest, "_potentials", lambda frame, room: potential)
        for name in ("_root", "_search_back", "_dijkstra"):
            monkeypatch.setattr(flowenum.kbest, name, lambda *args, name=name: calls.append(name))
        with pytest.raises(InvariantError, match="negative residual reduced cost on arc 2$"):
            find_second_best_flow(net, best)
        assert calls == []

    def test_cycle_using_an_arc_both_ways_is_an_invariant_error(self, monkeypatch):
        # The cheapest cycle is arc 0 forward and arc 1 back.  Corrupting the
        # search from node 1 so that node 0 seems reached by arc 0's backward
        # id closes a cycle that uses arc 0 in both directions.
        net = make_network(2, [(0, 1, 0, 1, 1), (1, 0, 0, 1, 1)], (0, 0))
        assert find_second_best_flow(net, Flow((0, 0))) == Flow((1, 1))

        def corrupted(*args):
            source, dist, pred = args[-3:]
            for node in _dijkstra(*args):
                if (source, node) == (1, 0):
                    pred[0] = 1
                yield node

        monkeypatch.setattr(flowenum.kbest, "_dijkstra", corrupted)
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


# Group searches and groups read per `iter_k_best_flows(net, 10)` on
# random_grid_network(Random(seed), 8, 8).  The per-node searches these replaced
# made (557, 8504), (485, 9475), (513, 12005), (656, 8334), (590, 9937) and
# (451, 6323): a group search crosses a zero-distance plateau in one step, stops
# at its cheapest waiting candidate and traces no path.  Before the searches
# pushed only labels that could still beat the best cycle, they read (509, 4890),
# (465, 5140), (484, 5532), (616, 4751), (527, 5560) and (419, 2790).
SEARCH_COUNTS = {0: (509, 4546), 1: (465, 4774), 2: (484, 5174), 3: (616, 4371),
                 4: (527, 5174), 5: (419, 2504)}


class TestOfferLists:
    """The lists one pass over the residual ids builds per offer, against the searches they replace."""

    def test_tie_search_matches_the_optimal_face_search(self):
        ties = sensitive = 0
        for seed in range(8):
            for min_cost, max_cost, both_ways in ((0, 0, True), (0, 1, False), (0, 1, True)):
                net = random_grid_network(random.Random(seed), 5, 5, min_cost=min_cost,
                                          max_cost=max_cost, both_ways=both_ways)
                best = solve_min_cost_flow(net)
                frame, potential = frame_of(net), node_potentials(net, best)
                reduced_costs = compute_reduced_costs(net, potential)
                tied = _search(optimal_face(frame, best.values, reduced_costs), best.values)[0]
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
                cycle = _proper_cycle(_forest(face, frame.head), frame.tail, frame.origin)
                sensitive += push_unit(frame, best.values, cycle) != tied
        assert 15 < ties < 24 and sensitive > 3

    def test_each_offer_builds_its_residual_room_once(self, monkeypatch):
        offers, rooms = [], []
        second_best = flowenum.kbest._second_best
        monkeypatch.setattr(flowenum.kbest, "_second_best",
                            lambda *args: offers.append(args) or second_best(*args))
        monkeypatch.setattr(flowenum.kbest, "residual_room",
                            lambda *args: rooms.append(args) or residual_room(*args))
        list(iter_k_best_flows(random_grid_network(random.Random(3), 8, 8), 10))
        assert len(offers) > 10 and len(rooms) == len(offers)

    @pytest.mark.parametrize("seed", sorted(SEARCH_COUNTS))
    def test_search_counts_are_pinned(self, monkeypatch, seed):
        offers = watch_searches(monkeypatch)
        list(iter_k_best_flows(random_grid_network(random.Random(seed), 8, 8), 10))
        searches = [search for searched, _ in offers for search in searched]
        assert (len(searches), sum(len(read) for _, read, _ in searches)) == SEARCH_COUNTS[seed]
        # One trace per offer that searched (each found a cycle here), none for the others.
        assert [len(traces) for _, traces in offers] == [min(1, len(found)) for found, _ in offers]


class TestGroupSearch:
    """Searches between free-arc groups on grids where free arcs join several nodes."""

    @staticmethod
    def check_every_region(monkeypatch, nets, k):
        """Check every region of K-best runs against one full per-node search per head,
        and each group search's settles; returns the counts of regions that moved to a
        costlier flow, of those with a free-arc group, and of stale labels popped."""
        second_best, searches, counts = helpers.find_second_best_flow, [], [0, 0, 0]

        def offer(region, region_best):
            group = free_groups(region, region_best)
            searches.clear()
            second = second_best(region, region_best)
            assert second == unpruned_second_best(region, region_best)
            if second is not None and flow_cost(region, second) > flow_cost(region, region_best):
                counts[0] += 1
                counts[1] += len(set(group)) < region.node_count
                # A search settles each group once, through one node of it, however many
                # stale labels of it it pops, and pops no label twice.
                for _, pops, scans in searches:
                    assert len({group[node] for node in scans}) == len(scans)
                    assert set(scans) <= {node for _, node in pops}
                    assert len(set(pops)) == len(pops)
                    counts[2] += len(pops) - len({node for _, node in pops})
            return second

        monkeypatch.setattr(helpers, "find_second_best_flow", offer)
        watch_reads(monkeypatch, lambda: searches)
        for net in nets:
            assert list(iter_k_best_flows(net, k)) == list(helpers.reference_k_best_flows(net, k))
        return counts

    def test_matches_the_unpruned_reference_in_every_region(self, monkeypatch):
        # Two-way grids with low costs and spans up to 3.
        nets = (random_grid_network(random.Random(seed), 3 + seed % 3, 3 + seed % 3, min_cost=0,
                                    max_cost=3, both_ways=True) for seed in range(50))
        moved, grouped, stale = self.check_every_region(monkeypatch, nets, 12)
        assert moved > 500 and grouped > 500 and stale > 0

    def test_matches_the_unpruned_reference_on_ranked_grids(self, monkeypatch):
        # One-way costed 8x8 grids with lower bounds 0-1, as `kbest-ranked` runs them.
        nets = (random_grid_network(random.Random(seed), 8, 8) for seed in range(4))
        moved, grouped, stale = self.check_every_region(monkeypatch, nets, 10)
        assert moved > 50 and grouped > 50 and stale > 0

    def test_costs_match_bruteforce_on_small_grids(self):
        ranked = 0
        for seed in range(40):
            rng = random.Random(seed)
            net = random_grid_network(rng, 2, 2 + seed % 2, min_cost=0, max_cost=3, max_span=2,
                                      both_ways=True)
            reference = k_best_bruteforce(net, 10)
            mine = list(iter_k_best_flows(net, 10))
            costs = [flow_cost(net, flow) for flow in mine]
            assert costs == [flow_cost(net, flow) for flow in reference]
            ranked += len(mine)
        assert ranked > 300


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
