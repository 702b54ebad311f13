import random
import re
from dataclasses import fields, replace

import pytest

from flowenum.bruteforce import enumerate_all_feasible_bruteforce
from flowenum.core import Flow, build_residual, check_feasible, flow_cost, frame_of
from flowenum.enumeration import iter_optimal_flows
from flowenum import treebounds
from flowenum.errors import (
    ArcInTreeError,
    BudgetExceededError,
    CycleEntirelyInTreeError,
    DimensionMismatchError,
    InfeasibleFlowError,
    InvariantError,
)
from flowenum.solver import solve_min_cost_flow
from flowenum.treebounds import (
    COUNT_CAP,
    TreeStructure,
    _induced_cycles,
    count_lower_bound,
    count_upper_bound,
    decompose_cycle,
    express_in_cycle_basis,
    feasible_count_bounds,
    incidence_sum_check,
    induced_cycle_capacities,
    to_tree_solution,
    zero_cost_nontree_set,
)

from helpers import (
    headroom,
    make_network,
    random_feasible_network,
    random_grid_network,
    random_residual_cycle,
    rescan_pivot_to_optimal,
)


def members_by_arc(cycle):
    return dict(cycle.members)


class TestToTreeSolution:
    def test_eleven_optima_reproduces_the_expected_tree(self, eleven_optima_network, eleven_optima_flow):
        tree_flow, ts = to_tree_solution(eleven_optima_network, eleven_optima_flow)
        assert tree_flow == eleven_optima_flow
        assert ts.tree_arcs == (2, 3, 5, 6)
        assert {0, 1, 4} <= set(ts.lower_set)

    def test_blocked_instance_reproduces_the_expected_tree(self, blocked_cycle_network, blocked_cycle_flow):
        tree_flow, ts = to_tree_solution(blocked_cycle_network, blocked_cycle_flow)
        assert tree_flow == blocked_cycle_flow
        assert ts.tree_arcs == (2, 3, 5, 6)

    def test_existing_tree_solution_keeps_its_flow(self, chain3_network):
        best = solve_min_cost_flow(chain3_network)
        tree_flow, _ = to_tree_solution(chain3_network, best)
        assert tree_flow == best

    def test_zero_cost_free_cycle_is_canceled_at_equal_cost(self):
        net = make_network(
            3, [(0, 1, 0, 2, 1), (1, 2, 0, 2, 1), (2, 0, 0, 2, -2)], (0, 0, 0)
        )
        circulating = Flow((1, 1, 1))
        tree_flow, ts = to_tree_solution(net, circulating)
        assert flow_cost(net, tree_flow) == flow_cost(net, circulating) == 0
        assert check_feasible(net, tree_flow)
        free = [a for a in range(3) if net.arcs[a].lower < tree_flow.values[a] < net.arcs[a].upper]
        assert set(free) <= set(ts.tree_arcs)

    def test_costly_free_cycle_is_canceled_downward(self):
        net = make_network(
            3, [(0, 1, 0, 2, 1), (1, 2, 0, 2, 1), (2, 0, 0, 2, 1)], (0, 0, 0)
        )
        tree_flow, _ = to_tree_solution(net, Flow((1, 1, 1)))
        assert flow_cost(net, tree_flow) < 3
        assert check_feasible(net, tree_flow)

    def test_optimal_structures_certify_optimality(self):
        rng = random.Random(61)
        for _ in range(80):
            net, _ = random_feasible_network(rng)
            best = solve_min_cost_flow(net)
            tree_flow, ts = to_tree_solution(net, best)
            assert flow_cost(net, tree_flow) == flow_cost(net, best)
            for arc_id in ts.tree_arcs:
                assert ts.reduced_cost(arc_id) == 0
            for arc_id in ts.lower_set:
                if net.arcs[arc_id].span:
                    assert ts.reduced_cost(arc_id) >= 0
            for arc_id in ts.upper_set:
                if net.arcs[arc_id].span:
                    assert ts.reduced_cost(arc_id) <= 0

    def test_infeasible_flow_raises(self, chain3_network):
        with pytest.raises(InfeasibleFlowError):
            to_tree_solution(chain3_network, Flow((1, 0, 0)))

    def test_pivot_cap_is_a_budget_error(self, monkeypatch, eleven_optima_network, eleven_optima_flow):
        # A valid input can reach the cap, so it is a budget, not a bug in this package.
        monkeypatch.setattr(treebounds, "_PIVOT_CAP", 0)
        with pytest.raises(BudgetExceededError, match="did not terminate") as caught:
            to_tree_solution(eleven_optima_network, eleven_optima_flow)
        assert not isinstance(caught.value, InvariantError)

    def test_unspanning_tree_is_an_invariant_error(self, monkeypatch, eleven_optima_network, eleven_optima_flow):
        initial_tree = treebounds._initial_tree
        monkeypatch.setattr(treebounds, "_initial_tree", lambda *args: initial_tree(*args)[1:])
        with pytest.raises(InvariantError, match="must span the network"):
            to_tree_solution(eleven_optima_network, eleven_optima_flow)

    def test_uncanceled_free_cycle_is_an_invariant_error(self, monkeypatch):
        net = make_network(
            3, [(0, 1, 0, 2, 1), (1, 2, 0, 2, 1), (2, 0, 0, 2, -2)], (0, 0, 0)
        )
        monkeypatch.setattr(treebounds, "_find_free_cycle", lambda *args: None)
        with pytest.raises(InvariantError, match="must form a forest"):
            to_tree_solution(net, Flow((1, 1, 1)))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_tables_match_a_fresh_rooting_at_node_zero(self, monkeypatch, seed):
        # Each pivot walks again only the part of the tree it cut off; the
        # tables must still be the rooting of the final tree at node 0,
        # found here by a breadth-first search.
        net = random_grid_network(random.Random(seed), 12, 12, both_ways=True)
        pivots = []
        hang = treebounds._hang

        def counted(adjacency, tables, node, parent=-1, via=-1, step=0):
            if via >= 0:
                pivots.append(via)
            return hang(adjacency, tables, node, parent, via, step)

        monkeypatch.setattr(treebounds, "_hang", counted)
        _, ts = to_tree_solution(net, solve_min_cost_flow(net))
        assert len(pivots) > 100
        assert len(ts.tree_arcs) == net.node_count - 1
        parent_node = [-1] * net.node_count
        parent_arc = [-1] * net.node_count
        depth = [0] * net.node_count
        potentials = [0] * net.node_count
        order = [0]
        for node in order:
            for arc_id in ts.tree_arcs:
                arc = net.arcs[arc_id]
                if node not in (arc.src, arc.dst) or arc_id == parent_arc[node]:
                    continue
                other = arc.dst if arc.src == node else arc.src
                parent_node[other], parent_arc[other] = node, arc_id
                depth[other] = depth[node] + 1
                potentials[other] = potentials[node] + (arc.cost if arc.src == node else -arc.cost)
                order.append(other)
        assert sorted(order) == list(range(net.node_count))
        assert ts.parent_node == tuple(parent_node)
        assert ts.parent_arc == tuple(parent_arc)
        assert ts.depth == tuple(depth)
        assert ts.potentials == tuple(potentials)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_pivots_walk_the_smaller_side_of_the_cut(self, monkeypatch, seed):
        # Each pivot walks the smaller side of the cut, found here by a
        # search over the new tree; under a root fixed at node 0 it would
        # walk the side without node 0, the part the leaving arc cut off.
        net = random_grid_network(random.Random(seed), 12, 12, both_ways=True)
        n = net.node_count
        walked, cut_off = [], []
        hang = treebounds._hang

        def counted(adjacency, tables, node, parent=-1, via=-1, step=0):
            if via < 0:
                return hang(adjacency, tables, node, parent, via, step)
            side, stack = {node}, [node]
            while stack:
                for other, arc_id, _ in adjacency[stack.pop()]:
                    if arc_id != via and other not in side:
                        side.add(other)
                        stack.append(other)
            order = hang(adjacency, tables, node, parent, via, step)
            walked.append(len(order))
            assert walked[-1] == len(side)
            cut_off.append(n - len(side) if 0 in side else len(side))
            return order

        monkeypatch.setattr(treebounds, "_hang", counted)
        to_tree_solution(net, solve_min_cost_flow(net))
        assert len(walked) > 100
        assert max(walked) <= n // 2
        assert sum(walked) < sum(cut_off)

    @pytest.mark.parametrize("optimal", [True, False], ids=["optimal", "not-optimal"])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_pivots_match_the_rescan_reference(self, monkeypatch, seed, optimal):
        # The flow that is optimal for the negated costs leaves many
        # violating arcs whose cycles have headroom, which the heap drops.
        net = random_grid_network(random.Random(seed), 12, 12, both_ways=True)
        negated = replace(net, arcs=tuple(replace(arc, cost=-arc.cost) for arc in net.arcs))
        flow = solve_min_cost_flow(net if optimal else negated)
        pivots, ts = pivots_matching_the_rescan(monkeypatch, net, flow)
        assert len(pivots) > 50
        violating = [a for a in ts.lower_set if net.arcs[a].span and ts.reduced_cost(a) < 0]
        assert bool(violating) != optimal

    def test_pivots_match_the_rescan_reference_on_small_instances(self, monkeypatch):
        # Witness flows, mostly not optimal, with fixed, parallel and
        # anti-parallel arcs.
        rng = random.Random(65)
        pivots = 0
        for _ in range(300):
            net, witness = random_feasible_network(rng, max_nodes=8, max_arcs=20)
            pivots += len(pivots_matching_the_rescan(monkeypatch, net, witness)[0])
        assert pivots > 300


def pivots_matching_the_rescan(monkeypatch, net, flow):
    """Entering arcs and structure of to_tree_solution, checked against the rescan reference.

    The heap must enter the same arcs, in the same order, as rescanning
    every arc from id 0 after each pivot, and so return the same flow and
    the same structure.
    """
    pivots, reference = [], []
    hang = treebounds._hang

    def counted(adjacency, tables, node, parent=-1, via=-1, step=0):
        if via >= 0:
            pivots.append(via)
        return hang(adjacency, tables, node, parent, via, step)

    with monkeypatch.context() as patch:
        patch.setattr(treebounds, "_hang", counted)
        tree_flow, ts = to_tree_solution(net, flow)
        patch.setattr(treebounds, "_pivot_to_optimal",
                      lambda frame, arcs, values, tree: rescan_pivot_to_optimal(net, values, tree, reference)[1])
        reference_flow, reference_ts = to_tree_solution(net, flow)
    assert pivots == reference
    assert tree_flow == reference_flow
    for field in fields(TreeStructure):
        assert getattr(ts, field.name) == getattr(reference_ts, field.name), field.name
    return pivots, ts


class TestInducedCycle:
    def test_eleven_optima_cycle_through_the_chord(self, eleven_optima_network, eleven_optima_flow):
        tree_flow, ts = to_tree_solution(eleven_optima_network, eleven_optima_flow)
        cycle = _induced_cycles(ts, [4])[0]
        assert members_by_arc(cycle) == {4: 1, 6: 1, 5: -1}
        assert cycle.cost(eleven_optima_network) == ts.reduced_cost(4) == 0
        assert induced_cycle_capacities(ts, tree_flow, [4]) == [10]

    def test_upper_set_arc_flips_the_orientation(self):
        net = make_network(2, [(0, 1, 0, 2, 2), (0, 1, 0, 1, 2)], (2, -2))
        tree_flow, ts = to_tree_solution(net, Flow((1, 1)))
        assert 1 in ts.upper_set
        cycle = _induced_cycles(ts, [1])[0]
        assert members_by_arc(cycle) == {1: -1, 0: 1}
        assert sorted(cycle.members) == [(0, 1), (1, -1)]
        assert cycle.cost(net) == -ts.reduced_cost(1) == 0

    def test_replicates_the_five_arc_showcase(self):
        # Non-tree arc e0 rides forward; e2, e4 follow, e1, e3 oppose.
        specs = [
            (3, 5, 0, 1, 0),   # e0: i -> j, at its lower bound
            (4, 5, 0, 2, 0),   # e1
            (4, 1, 0, 2, 0),   # e2
            (2, 1, 0, 2, 0),   # e3
            (2, 3, 0, 2, 0),   # e4
            (0, 1, 0, 2, 0),   # root spur
            (0, 6, 0, 2, 0),   # root spur
            (7, 5, 0, 2, 0),   # leaf spur
        ]
        flows = (0, 1, 1, 1, 1, 1, 1, 1)
        balances = [0] * 8
        for (src, dst, *_), value in zip(specs, flows):
            balances[src] += value
            balances[dst] -= value
        net = make_network(8, specs, balances)
        tree_flow, ts = to_tree_solution(net, Flow(flows))
        assert set(ts.tree_arcs) == {1, 2, 3, 4, 5, 6, 7}
        cycle = _induced_cycles(ts, [0])[0]
        assert members_by_arc(cycle) == {0: 1, 2: 1, 4: 1, 1: -1, 3: -1}

    def test_tree_arc_is_rejected(self, eleven_optima_network, eleven_optima_flow):
        _, ts = to_tree_solution(eleven_optima_network, eleven_optima_flow)
        with pytest.raises(ArcInTreeError):
            _induced_cycles(ts, [2])


def is_closed_walk(net, members):
    """Does each step start where the one before it ended, signs read relative to the first's?

    Members list the first arc, then the tree path from its head back to
    its tail.  When the first carries -1 every sign is flipped, so the
    steps chain in this order only once that flip is undone.
    """
    first = members[0][1]
    ends = []
    for arc_id, sign in members:
        arc = net.arcs[arc_id]
        ends.append((arc.src, arc.dst) if sign * first > 0 else (arc.dst, arc.src))
    return all(tail == ends[i - 1][1] for i, (tail, _) in enumerate(ends))


class TestMemberOrder:
    """Members are listed as a closed walk, not only as a signed arc set."""

    def check_structure(self, net, flow):
        _, ts = to_tree_solution(net, flow)
        nontree = sorted(ts.lower_set | ts.upper_set)
        for arc_id in nontree:
            members = _induced_cycles(ts, [arc_id])[0].members
            assert members[0] == (arc_id, 1 if arc_id in ts.lower_set else -1)
            assert is_closed_walk(net, members)
        return len(nontree)

    def check_free_cycle(self, net, free, ids):
        assert ids is not None
        walk = [(r >> 1, -1 if r & 1 else 1) for r in ids]  # residual ids as (arc, sign)
        assert is_closed_walk(net, walk)
        assert {arc_id for arc_id, _ in walk} <= set(free)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_grids(self, seed):
        rng = random.Random(seed)
        net = random_grid_network(rng, 12, 12, both_ways=True)
        assert self.check_structure(net, solve_min_cost_flow(net)) > 100
        # Values strictly inside the bounds of both arcs of a grid edge close free cycles.
        values = [arc.lower + rng.randint(0, arc.span) for arc in net.arcs]
        free = [a for a, arc in enumerate(net.arcs) if arc.lower < values[a] < arc.upper]
        frame = frame_of(net)
        arcs = frame.tail[::2], frame.head[::2], frame.cost[::2]  # per arc, as `_tree_solution` reads them
        found = treebounds._find_free_cycle(net.node_count, arcs, free)
        self.check_free_cycle(net, free, found)

    def test_small_instances(self, monkeypatch):
        # Witness flows leave free cycles, each checked as it is canceled.
        find, walks = treebounds._find_free_cycle, []

        def checked(node_count, arcs, free):
            walk = find(node_count, arcs, free)
            if walk is not None:
                self.check_free_cycle(net, free, walk)  # the instance the loop below is on
                walks.append(walk)
            return walk

        monkeypatch.setattr(treebounds, "_find_free_cycle", checked)
        rng = random.Random(67)
        cycles = 0
        for _ in range(300):
            net, witness = random_feasible_network(rng, max_nodes=8, max_arcs=20)
            cycles += self.check_structure(net, witness)
        assert cycles > 1000 and len(walks) > 50


class TestRejectedInputs:
    @pytest.mark.parametrize("length", [6, 8])
    def test_flow_of_another_length(self, eleven_optima_network, eleven_optima_flow, length):
        tree_flow, ts = to_tree_solution(eleven_optima_network, eleven_optima_flow)
        wrong = Flow((*tree_flow.values, 0)[:length])
        with pytest.raises(DimensionMismatchError):
            count_lower_bound(ts, zero_cost_nontree_set(ts), wrong)
        with pytest.raises(DimensionMismatchError):
            feasible_count_bounds(ts, wrong)
        with pytest.raises(DimensionMismatchError):
            induced_cycle_capacities(ts, wrong, [4])

    @pytest.mark.parametrize("bad", [7, -1])
    def test_arc_id_out_of_range(self, eleven_optima_network, eleven_optima_flow, bad):
        tree_flow, ts = to_tree_solution(eleven_optima_network, eleven_optima_flow)
        self.check_every_call_rejects(ts, tree_flow, bad, f"arc id {bad} is out of range")

    # 4.0 and True read as arcs 4 and 1: `count_upper_bound(ts, [True])` returned 2, and
    # the calls that index a list with 4.0 died with a bare TypeError.
    @pytest.mark.parametrize("bad", [4.0, True, "4"])
    def test_arc_id_not_an_int(self, eleven_optima_network, eleven_optima_flow, bad):
        tree_flow, ts = to_tree_solution(eleven_optima_network, eleven_optima_flow)
        self.check_every_call_rejects(ts, tree_flow, bad, re.escape(f"arc id {bad!r} is not an int"))

    @staticmethod
    def check_every_call_rejects(ts, tree_flow, bad, message):
        with pytest.raises(ValueError, match=message):
            _induced_cycles(ts, [bad])
        with pytest.raises(ValueError, match=message):
            count_lower_bound(ts, [bad], tree_flow)
        with pytest.raises(ValueError, match=message):
            count_upper_bound(ts, [bad])
        with pytest.raises(ValueError, match=message):
            induced_cycle_capacities(ts, tree_flow, [4, bad])
        # -1 used to read as a tree arc, and as arc 6 for its reduced cost.
        with pytest.raises(ValueError, match=message):
            ts.is_tree_arc(bad)
        with pytest.raises(ValueError, match=message):
            ts.reduced_cost(bad)
        # a->b, b->d, then the bad id; -1 would read as arc 6, d->e, which chains.
        with pytest.raises(ValueError, match=message):
            decompose_cycle(ts, [(0, 1), (3, 1), (bad, 1)])

    # Tree arcs are (2, 3, 5, 6) and the basis is (4,).
    @pytest.mark.parametrize("arcs", [[2], [4, 6], [6, 4]])
    def test_tree_arc_in_a_bound(self, eleven_optima_network, eleven_optima_flow, arcs):
        tree_flow, ts = to_tree_solution(eleven_optima_network, eleven_optima_flow)
        with pytest.raises(ArcInTreeError):
            count_upper_bound(ts, arcs)
        with pytest.raises(ArcInTreeError):
            count_lower_bound(ts, arcs, tree_flow)
        with pytest.raises(ArcInTreeError):
            induced_cycle_capacities(ts, tree_flow, arcs)

    @pytest.mark.parametrize("arcs", [[4, 4], [0, 4, 1, 4], [1, 1, 0]])
    def test_arc_id_listed_twice_in_a_bound(self, eleven_optima_network, eleven_optima_flow, arcs):
        # [4, 4] summed to 20 and so claimed at least 20 of the 11 optima.
        tree_flow, ts = to_tree_solution(eleven_optima_network, eleven_optima_flow)
        twice = next(arc for arc in arcs if arcs.count(arc) > 1)
        message = f"arc id {twice} is listed twice"
        with pytest.raises(ValueError, match=message):
            count_upper_bound(ts, arcs)
        with pytest.raises(ValueError, match=message):
            count_lower_bound(ts, arcs, tree_flow)
        with pytest.raises(ValueError, match=message):
            induced_cycle_capacities(ts, tree_flow, arcs)
        assert count_lower_bound(ts, [4], tree_flow) == 10
        assert count_upper_bound(ts, [4]) == 11

    # Both flows balance the nodes but leave the arcs' bounds; at (5, -3) the
    # bounds read (5, 3), a lower bound above the upper one, for 3 feasible flows.
    @pytest.mark.parametrize("values", [(5, -3), (-1, 3), (3, -1), (0, 3)])
    def test_flow_outside_the_arc_bounds(self, values):
        net = make_network(2, [(0, 1, 0, 2, 1), (0, 1, 0, 2, 1)], (2, -2))
        _, ts = to_tree_solution(net, solve_min_cost_flow(net))
        assert ts.lower_set == {1}
        with pytest.raises(InfeasibleFlowError):
            feasible_count_bounds(ts, Flow(values))
        with pytest.raises(InfeasibleFlowError):
            count_lower_bound(ts, [1], Flow(values))
        with pytest.raises(InfeasibleFlowError):
            induced_cycle_capacities(ts, Flow(values), [1])
        with pytest.raises(DimensionMismatchError):  # the length is checked first
            induced_cycle_capacities(ts, Flow((*values, 0)), [1])
        # Within the bounds but not balanced, each cycle still has a capacity.
        assert [induced_cycle_capacities(ts, Flow(inside), [1]) for inside in ((2, 2), (1, 0))] == [[0], [1]]

    # Each walk chains once every sign that is not positive reads as -1.
    @pytest.mark.parametrize("walk", [[(0, 5), (3, 9), (2, 0)], [(0, 1), (3, 1), (2, 0)],
                                      [(0, 1), (3, 2), (2, -1)]])
    def test_step_sign_other_than_one_or_minus_one(self, eleven_optima_network,
                                                   eleven_optima_flow, walk):
        _, ts = to_tree_solution(eleven_optima_network, eleven_optima_flow)
        with pytest.raises(ValueError, match="step sign -?[0-9]+ is not 1 or -1"):
            decompose_cycle(ts, walk)
        assert decompose_cycle(ts, [(arc, 1 if sign > 0 else -1) for arc, sign in walk])

    # 1.0, -1.0 and True compare equal to 1 or -1, as float and bool arc ids do to ints.
    @pytest.mark.parametrize("step, sign", [(0, 1.0), (2, -1.0), (1, True)])
    def test_step_sign_must_be_an_int(self, eleven_optima_network, eleven_optima_flow, step, sign):
        _, ts = to_tree_solution(eleven_optima_network, eleven_optima_flow)
        walk = [(0, 1), (3, 1), (2, -1)]
        assert decompose_cycle(ts, walk)
        walk[step] = (walk[step][0], sign)
        with pytest.raises(ValueError, match=f"step sign {sign} is not 1 or -1"):
            decompose_cycle(ts, walk)

class TestCycleCapacity:
    """The one capacity reader against the least headroom along each induced cycle."""

    def capacities(self, net, flow):
        # Every non-tree arc in one call, each entry checked on its own.
        tree_flow, ts = to_tree_solution(net, flow)
        nontree = sorted(ts.lower_set | ts.upper_set)
        found = dict(zip(nontree, induced_cycle_capacities(ts, tree_flow, nontree)))
        assert list(found) == nontree
        for arc_id in nontree:
            assert found[arc_id] == min(
                headroom(net, tree_flow.values, member, sign)
                for member, sign in _induced_cycles(ts, [arc_id])[0].members
            )
        for arc_id in ts.tree_arcs:
            with pytest.raises(ArcInTreeError):
                induced_cycle_capacities(ts, tree_flow, [arc_id])
        return ts, found

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_grids(self, seed):
        net = random_grid_network(random.Random(seed), 12, 12, both_ways=True)
        ts, found = self.capacities(net, solve_min_cost_flow(net))
        assert ts.lower_set and ts.upper_set
        assert 0 in found.values() and max(found.values()) > 0

    def test_small_instances(self):
        # Witness flows, mostly not optimal, with fixed, parallel and
        # anti-parallel arcs.
        rng = random.Random(66)
        upper = positive = 0
        for _ in range(300):
            net, witness = random_feasible_network(rng, max_nodes=8, max_arcs=20)
            ts, found = self.capacities(net, witness)
            upper += len(ts.upper_set)
            positive += sum(1 for room in found.values() if room)
        assert upper > 300 and positive > 300


class TestClimbs:
    """The climbs that list no ids against their list references over `_cycle`."""

    def check(self, net, flow):
        tree_flow, ts = to_tree_solution(net, flow)
        frame = frame_of(net)
        links = frame.tail[::2], frame.head[::2], ts.parent_node, ts.parent_arc, ts.depth
        room = treebounds.residual_room(frame, tree_flow.values)
        blocked = 0
        for arc_id in sorted(ts.lower_set | ts.upper_set):
            sign = 1 if arc_id in ts.lower_set else -1
            ids = treebounds._cycle(*links, arc_id, sign)
            assert treebounds._least_room(*links, room, arc_id, sign) == min(room[r] for r in ids)
            least = min((r >> 1 for r in ids if not room[r]), default=-1)
            assert treebounds._least_blocking(*links, room, arc_id, sign) == least
            blocked += sum(not room[r] for r in ids) > 1
        return blocked

    @pytest.mark.parametrize("optimal", [True, False], ids=["optimal", "not-optimal"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_grids(self, seed, optimal):
        net = random_grid_network(random.Random(seed), 12, 12, both_ways=True)
        negated = replace(net, arcs=tuple(replace(arc, cost=-arc.cost) for arc in net.arcs))
        assert self.check(net, solve_min_cost_flow(net if optimal else negated)) > 50

    def test_small_instances(self):
        # Witness flows, mostly not optimal, with fixed, parallel and
        # anti-parallel arcs.
        rng = random.Random(68)
        blocked = 0
        for _ in range(300):
            net, witness = random_feasible_network(rng, max_nodes=8, max_arcs=20)
            blocked += self.check(net, witness)
        assert blocked > 300


class TestZeroCostSet:
    def test_eleven_optima(self, eleven_optima_network, eleven_optima_flow):
        _, ts = to_tree_solution(eleven_optima_network, eleven_optima_flow)
        assert zero_cost_nontree_set(ts) == (4,)

    def test_all_nonzero(self, chain3_network):
        best = solve_min_cost_flow(chain3_network)
        _, ts = to_tree_solution(chain3_network, best)
        assert zero_cost_nontree_set(ts) == ()

    def test_all_zero_costs_keep_every_nontree_arc(self, twocycle_network):
        _, ts = to_tree_solution(twocycle_network, Flow((0, 0)))
        assert zero_cost_nontree_set(ts) == tuple(sorted(ts.lower_set | ts.upper_set))


class TestCountBounds:
    def test_eleven_optima_upper_bound_is_tight(self, eleven_optima_network, eleven_optima_flow):
        tree_flow, ts = to_tree_solution(eleven_optima_network, eleven_optima_flow)
        zero = zero_cost_nontree_set(ts)
        assert count_upper_bound(ts, zero) == 11
        assert count_lower_bound(ts, zero, tree_flow) == 10

    def test_blocked_instance_upper_bound_is_not_tight(self, blocked_cycle_network, blocked_cycle_flow):
        tree_flow, ts = to_tree_solution(blocked_cycle_network, blocked_cycle_flow)
        zero = zero_cost_nontree_set(ts)
        assert count_upper_bound(ts, zero) == 11
        assert count_lower_bound(ts, zero, tree_flow) == 1

    def test_empty_basis_gives_one(self, chain3_network):
        best = solve_min_cost_flow(chain3_network)
        tree_flow, ts = to_tree_solution(chain3_network, best)
        assert count_upper_bound(ts, ()) == 1
        assert count_lower_bound(ts, (), tree_flow) == 1

    def test_upper_bound_saturates(self):
        span = 2**40
        net = make_network(
            2,
            [(0, 1, 0, span, 0), (0, 1, 0, span, 0), (0, 1, 0, span, 0)],
            (0, 0),
        )
        tree_flow, ts = to_tree_solution(net, Flow((0, 0, 0)))
        zero = zero_cost_nontree_set(ts)
        assert len(zero) == 2
        assert count_upper_bound(ts, zero) == COUNT_CAP
        _, upper = feasible_count_bounds(ts, tree_flow)
        assert upper == COUNT_CAP

    def test_feasible_bounds(self, eleven_optima_network, eleven_optima_flow, forced_network):
        tree_flow, ts = to_tree_solution(eleven_optima_network, eleven_optima_flow)
        assert feasible_count_bounds(ts, tree_flow) == (10, 44)
        only = Flow((2, 2))
        tree_flow, ts = to_tree_solution(forced_network, only)
        assert feasible_count_bounds(ts, tree_flow) == (1, 1)

    def test_star_with_one_wide_chord(self):
        net = make_network(
            3, [(0, 1, 0, 1, 0), (0, 2, 0, 1, 0), (1, 2, 0, 4, 0)], (0, 0, 0)
        )
        tree_flow, ts = to_tree_solution(net, Flow((0, 0, 0)))
        lower, upper = feasible_count_bounds(ts, tree_flow)
        assert upper == 5
        assert lower == 1

    def test_sandwich_on_random_instances(self):
        rng = random.Random(62)
        for _ in range(60):
            net, _ = random_feasible_network(rng)
            flows = list(iter_optimal_flows(net))
            tree_flow, ts = to_tree_solution(net, solve_min_cost_flow(net))
            zero = zero_cost_nontree_set(ts)
            assert (
                count_lower_bound(ts, zero, tree_flow)
                <= len(flows)
                <= count_upper_bound(ts, zero)
            )
            lower, upper = feasible_count_bounds(ts, tree_flow)
            feasible = len(enumerate_all_feasible_bruteforce(net))
            assert lower <= feasible <= upper


def two_chord_instance():
    # Two chords over a five-arc tree; their induced cycles compose to the
    # outer square through both chords.
    specs = [
        (1, 0, 0, 2, 0),   # t1
        (1, 2, 0, 2, 0),   # t2
        (3, 4, 0, 2, 0),   # t3
        (3, 0, 0, 2, 0),   # t4
        (5, 4, 0, 2, 0),   # t5
        (2, 3, 0, 1, 0),   # a1 chord
        (5, 2, 0, 1, 0),   # a2 chord
    ]
    flows = (1, 1, 1, 1, 1, 0, 0)
    balances = [0] * 6
    for (src, dst, *_), value in zip(specs, flows):
        balances[src] += value
        balances[dst] -= value
    net = make_network(6, specs, balances)
    return net, Flow(flows)


class TestCycleComposition:
    def test_single_chord_cycle_is_its_own_decomposition(self, twocycle_network):
        tree_flow, ts = to_tree_solution(twocycle_network, Flow((0, 0)))
        walk = [(0, 1), (1, 1)]
        parts = decompose_cycle(ts, walk)
        assert len(parts) == 1
        assert {arc for arc, _ in parts[0].members} == {0, 1}

    def test_two_chord_square(self):
        net, flow = two_chord_instance()
        tree_flow, ts = to_tree_solution(net, flow)
        assert set(ts.tree_arcs) == {0, 1, 2, 3, 4}
        walk = [(5, 1), (2, 1), (4, -1), (6, 1)]
        parts = decompose_cycle(ts, walk)
        assert [part.arc for part in parts] == [5, 6]
        symmetric = set()
        for part in parts:
            symmetric ^= {arc for arc, _ in part.members}
        assert symmetric == {5, 2, 4, 6}

    def test_two_chord_square_incidence_sums(self):
        net, flow = two_chord_instance()
        tree_flow, ts = to_tree_solution(net, flow)
        rg = build_residual(net, tree_flow)
        lookup = {(res.origin_arc, res.forward): res for res in rg.arcs}
        cycle_arcs = (lookup[(5, True)], lookup[(2, True)], lookup[(4, False)], lookup[(6, True)])
        from flowenum.core import Cycle

        assert incidence_sum_check(ts, Cycle(cycle_arcs))

    def test_walk_inside_the_tree_is_rejected(self, eleven_optima_network, eleven_optima_flow):
        _, ts = to_tree_solution(eleven_optima_network, eleven_optima_flow)
        tree_arc = ts.tree_arcs[0]
        with pytest.raises(CycleEntirelyInTreeError):
            decompose_cycle(ts, [(tree_arc, 1), (tree_arc, -1)])

    @pytest.mark.parametrize("walk, error, message", [
        ([], CycleEntirelyInTreeError, "empty cycle"),
        ([(0, 1), (5, 1)], ValueError, "do not chain"),    # a->b, then c->e
        ([(0, 1), (3, 1)], ValueError, "is not closed"),   # a->b->d
        ([(4, 1), (4, -1)], ValueError, "listed twice"),   # one non-tree arc forward and back
    ])
    def test_malformed_walk_is_rejected(self, eleven_optima_network, eleven_optima_flow,
                                        walk, error, message):
        _, ts = to_tree_solution(eleven_optima_network, eleven_optima_flow)
        with pytest.raises(error, match=message):
            decompose_cycle(ts, walk)

    def test_random_cycles_pass_both_checks(self):
        rng = random.Random(63)
        done = 0
        while done < 150:
            net, witness = random_feasible_network(rng)
            tree_flow, ts = to_tree_solution(net, witness)
            rg = build_residual(net, tree_flow)
            cycle = random_residual_cycle(rng, rg)
            if cycle is None:
                continue
            done += 1
            assert incidence_sum_check(ts, cycle)
            if cycle.is_proper():
                walk = [(res.origin_arc, 1 if res.forward else -1) for res in cycle.arcs]
                try:
                    parts = decompose_cycle(ts, walk)
                except CycleEntirelyInTreeError:
                    continue
                symmetric = set()
                for part in parts:
                    symmetric ^= {arc for arc, _ in part.members}
                assert symmetric == {arc for arc, _ in walk}


class TestCycleBasis:
    def test_identical_flow_has_zero_coordinates(self, eleven_optima_network, eleven_optima_flow):
        tree_flow, ts = to_tree_solution(eleven_optima_network, eleven_optima_flow)
        coords = express_in_cycle_basis(ts, tree_flow, tree_flow)
        assert coords == {4: 0}

    def test_eleven_optima_coordinate_reads_off_the_chord(self, eleven_optima_network, eleven_optima_flow):
        tree_flow, ts = to_tree_solution(eleven_optima_network, eleven_optima_flow)
        for k in range(11):
            other = Flow((0, 0, 0, 5, k, 12 - k, 2 + k))
            assert check_feasible(eleven_optima_network, other)
            assert express_in_cycle_basis(ts, tree_flow, other) == {4: k}

    def test_non_optimal_flow_has_no_coordinates(self, chain3_network):
        best = solve_min_cost_flow(chain3_network)
        tree_flow, ts = to_tree_solution(chain3_network, best)
        assert express_in_cycle_basis(ts, tree_flow, Flow((0, 0, 1))) is None

    def test_flow_of_another_length_is_rejected(self, eleven_optima_network, eleven_optima_flow):
        tree_flow, ts = to_tree_solution(eleven_optima_network, eleven_optima_flow)
        with pytest.raises(DimensionMismatchError):
            express_in_cycle_basis(ts, tree_flow, Flow((0,) * 6))

    @pytest.mark.parametrize("k", [-1, 11])
    def test_coordinate_outside_the_span_is_none(self, eleven_optima_network, eleven_optima_flow, k):
        tree_flow, ts = to_tree_solution(eleven_optima_network, eleven_optima_flow)
        assert express_in_cycle_basis(ts, tree_flow, Flow((0, 0, 0, 5, k, 12 - k, 2 + k))) is None

    @pytest.mark.parametrize("values", [(3, -1), (-1, 3), (1, 0)])
    def test_infeasible_base_flow_is_rejected(self, values):
        # Three feasible flows, (2, 0), (1, 1) and (0, 2); the first two bases break a
        # bound and the last a balance.  (3, -1) read {1: 1} around (2, 0) at {1: 0}.
        net = make_network(2, [(0, 1, 0, 2, 1), (0, 1, 0, 2, 1)], (2, -2))
        tree_flow, ts = to_tree_solution(net, Flow((2, 0)))
        assert express_in_cycle_basis(ts, tree_flow, tree_flow) is not None
        with pytest.raises(InfeasibleFlowError):
            express_in_cycle_basis(ts, Flow(values), tree_flow)

    def test_expressible_infeasible_flow_has_no_coordinates(self, blocked_cycle_network,
                                                            blocked_cycle_flow):
        # One unit around the chord's cycle is within the chord's span, but
        # pushes a full arc of the cycle past its capacity.
        tree_flow, ts = to_tree_solution(blocked_cycle_network, blocked_cycle_flow)
        (chord,) = zero_cost_nontree_set(ts)
        values = list(tree_flow.values)
        for member, sign in _induced_cycles(ts, [chord])[0].members:
            values[member] += sign
        other = Flow(tuple(values))
        assert not check_feasible(blocked_cycle_network, other)
        assert express_in_cycle_basis(ts, tree_flow, other) is None

    def test_every_enumerated_optimum_reconstructs(self):
        rng = random.Random(64)
        for _ in range(60):
            net, _ = random_feasible_network(rng)
            flows = list(iter_optimal_flows(net))
            tree_flow, ts = to_tree_solution(net, flows[0])
            seen = set()
            for flow in flows:
                coords = express_in_cycle_basis(ts, tree_flow, flow)
                assert coords is not None
                for arc_id, value in coords.items():
                    assert 0 <= value <= net.arcs[arc_id].span
                key = tuple(sorted(coords.items()))
                assert key not in seen
                seen.add(key)
