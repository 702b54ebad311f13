import dataclasses
import pickle
import random
from types import SimpleNamespace

import pytest

from flowenum.core import (
    Arc,
    Cycle,
    Flow,
    Network,
    build_residual,
    check_feasible,
    cycle_cost,
    flow_cost,
    frame_of,
    push_unit,
    residual_room,
    validate_network,
)
from flowenum.errors import (
    BadBoundsError,
    DimensionMismatchError,
    DisconnectedError,
    InfeasibleFlowError,
    InfiniteCapacityError,
    NetworkValidationError,
    UnbalancedSupplyError,
)

from helpers import make_network, random_feasible_network, random_residual_cycle


def residual_pairs(rg):
    return {(res.src, res.dst, res.forward): (res.residual_capacity, res.cost) for res in rg.arcs}


class TestValidateNetwork:
    def test_zerocycle_instance_is_valid(self, zerocycle_network):
        validate_network(zerocycle_network)

    def test_single_node_no_arcs(self):
        validate_network(Network(1, (), (0,)))

    def test_two_nodes_no_arcs_disconnected(self):
        with pytest.raises(DisconnectedError):
            validate_network(Network(2, (), (1, -1)))

    def test_unbalanced_supply(self):
        net = make_network(2, [(0, 1, 0, 1, 0)], (1, 0))
        with pytest.raises(UnbalancedSupplyError):
            validate_network(net)

    def test_bad_bounds_rejected_at_arc_level(self):
        with pytest.raises(BadBoundsError):
            Arc(0, 1, 3, 1, 0)
        with pytest.raises(BadBoundsError):
            Arc(0, 1, -1, 1, 0)

    def test_self_loop_rejected(self):
        with pytest.raises(NetworkValidationError):
            Arc(2, 2, 0, 1, 0)

    def test_infinite_capacity_rejected(self):
        with pytest.raises(InfiniteCapacityError):
            Arc(0, 1, 0, float("inf"), 0)

    @pytest.mark.parametrize("spec", [
        (0, 1, 0, 2, 0.5),     # float cost; 1e300 and 1e300 + 1 would compare equal
        (0.0, 1, 0, 2, 1),     # float endpoint
        (True, 0, 0, 2, 1),    # bool endpoint
    ])
    def test_non_integer_ends_and_costs_rejected(self, spec):
        with pytest.raises(NetworkValidationError, match="must be integers"):
            Arc(*spec)

    @pytest.mark.parametrize("node_count, arcs, balances, message", [
        (0, (), (), "at least one node"),
        (2, (), (0,), "2 nodes but 1 balances"),
        (2, (Arc(0, 2, 0, 1, 0),), (0, 0), "endpoint out of range"),
        (2.0, (Arc(0, 1, 0, 1, 0),), (0, 0), "node_count must be an integer"),
        (True, (), (0,), "node_count must be an integer"),
        ("2", (Arc(0, 1, 0, 1, 0),), (0, 0), "node_count must be an integer"),
        (2, ((0, 1, 0, 1, 0),), (0, 0), "arcs must be Arc instances"),
        (2, (Arc(0, 1, 0, 1, 0),), (1.0, -1.0), "balances must be integers, got 1.0"),
        (2, (Arc(0, 1, 0, 1, 0),), (True, -1), "balances must be integers, got True"),
        # A look-alike would skip every check `Arc.__init__` makes, here its inverted bounds.
        (2, (SimpleNamespace(src=0, dst=1, lower=5, upper=1, cost=0),), (0, 0),
         "arcs must be Arc instances"),
    ])
    def test_malformed_network_rejected(self, node_count, arcs, balances, message):
        with pytest.raises(NetworkValidationError, match=message):
            Network(node_count, arcs, balances)

    def test_arc_keeps_its_dataclass_contract(self):
        assert [field.name for field in dataclasses.fields(Arc)] == [
            "src", "dst", "lower", "upper", "cost"]
        arc = Arc(0, 1, 0, 3, 5)
        with pytest.raises(BadBoundsError):
            dataclasses.replace(arc, lower=5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            arc.cost = 1
        assert arc == Arc(0, 1, 0, 3, 5) and hash(arc) == hash(Arc(0, 1, 0, 3, 5))
        assert pickle.loads(pickle.dumps(arc)) == arc
        for spec, error, message in [
            ((0, 1, 0, float("inf"), 0), InfiniteCapacityError,
             "capacities must be finite integers, got Arc(src=0, dst=1, lower=0, upper=inf, cost=0)"),
            ((0, 1, 0, 2, 0.5), NetworkValidationError,
             "arc ends and costs must be integers, got Arc(src=0, dst=1, lower=0, upper=2, cost=0.5)"),
            ((2, 2, 0, 1, 0), NetworkValidationError, "self-loop on node 2"),
            ((0, 1, 3, 1, 0), BadBoundsError, "arc (0,1) requires 0 <= lower <= upper, got [3,1]"),
        ]:
            with pytest.raises(error) as caught:
                Arc(*spec)
            assert type(caught.value) is error and str(caught.value) == message

    def test_non_integer_balance_rejected(self):
        with pytest.raises(NetworkValidationError, match="balances must be integers"):
            validate_network(Network(2, (Arc(0, 1, 0, 1, 0),), (1.0, -1.0)))


class TestFrame:
    def test_frame_matches_its_docstring(self):
        rng = random.Random(11)
        for _ in range(40):
            net, witness = random_feasible_network(rng, max_nodes=7, max_arcs=14)
            # Parallel and anti-parallel arcs, and a last node that no arc touches.
            arcs = net.arcs + (Arc(0, 1, 0, 2, 3), Arc(0, 1, 1, 1, -2), Arc(1, 0, 0, 1, 4))
            n = net.node_count + 1
            frame = frame_of(Network(n, arcs, net.balances + (0,)))
            ids = range(2 * len(arcs))
            assert frame.node_count == n
            assert frame.head == [arcs[r >> 1].src if r & 1 else arcs[r >> 1].dst for r in ids]
            assert frame.tail == [frame.head[r ^ 1] for r in ids]
            assert frame.origin == [r >> 1 for r in ids]
            assert frame.cost == [-arcs[r >> 1].cost if r & 1 else arcs[r >> 1].cost for r in ids]
            assert frame.incident == [
                [2 * a for a, arc in enumerate(arcs) if arc.src == v]
                + [2 * a + 1 for a, arc in enumerate(arcs) if arc.dst == v] for v in range(n)]
            assert frame.lower == [arc.lower for arc in arcs]
            assert frame.upper == [arc.upper for arc in arcs]
            values = witness.values + (1, 1, 0)
            assert residual_room(frame, values) == [
                spare for arc, value in zip(arcs, values)
                for spare in (arc.upper - value, value - arc.lower)]


class TestFeasibility:
    def test_zerocycle_flow_feasible(self, zerocycle_network, zerocycle_flow):
        assert check_feasible(zerocycle_network, zerocycle_flow)

    def test_capacity_violation(self, zerocycle_network):
        assert not check_feasible(zerocycle_network, Flow((0, 0, 3, 5, 2, 2, 2)))

    def test_balance_violation(self, zerocycle_network):
        assert not check_feasible(zerocycle_network, Flow((0, 0, 4, 5, 0, 2, 2)))

    def test_dimension_mismatch(self, zerocycle_network):
        with pytest.raises(DimensionMismatchError):
            check_feasible(zerocycle_network, Flow((0, 0)))

    @pytest.mark.parametrize("values", [
        (0.5, 0.5),     # a fractional circulation of a zero-cost 2-cycle
        (True, True),   # bools are ints to isinstance, not to the flow
        (1.0, 1.0),     # integral, but still a float
    ])
    def test_non_integer_values_rejected(self, values):
        with pytest.raises(InfeasibleFlowError, match="must be integers"):
            Flow(values)


class TestFlowCost:
    def test_zero_flow(self):
        net = make_network(2, [(0, 1, 0, 3, 7)], (0, 0))
        assert flow_cost(net, Flow((0,))) == 0

    def test_zerocycle_instance_cost(self, zerocycle_network, zerocycle_flow):
        assert flow_cost(zerocycle_network, zerocycle_flow) == 43

    def test_zero_cycle_augmentation_preserves_cost(self, zerocycle_network, zerocycle_augmented_flow):
        assert flow_cost(zerocycle_network, zerocycle_augmented_flow) == 43


class TestBuildResidual:
    def test_zerocycle_residual_labels(self, zerocycle_network, zerocycle_flow):
        pairs = residual_pairs(build_residual(zerocycle_network, zerocycle_flow))
        assert pairs[(2, 3, True)] == (1, 1)     # (c,d) forward
        assert pairs[(2, 4, True)] == (2, 2)     # (c,e) forward
        assert pairs[(4, 2, False)] == (2, -2)   # (e,c) backward
        assert pairs[(3, 4, True)] == (1, 1)     # (d,e) forward
        assert pairs[(4, 3, False)] == (2, -1)   # (e,d) backward

    def test_pinned_arc_contributes_nothing(self):
        net = make_network(2, [(0, 1, 2, 2, 5)], (2, -2))
        rg = build_residual(net, Flow((2,)))
        assert rg.arcs == ()

    def test_interior_arc_contributes_both_directions(self):
        net = make_network(2, [(0, 1, 0, 4, 5)], (2, -2))
        rg = build_residual(net, Flow((2,)))
        assert [(res.forward, res.residual_capacity, res.cost) for res in rg.arcs] == [
            (True, 2, 5),
            (False, 2, -5),
        ]

    def test_deterministic_order_by_origin_forward_first(self, zerocycle_network, zerocycle_flow):
        rg = build_residual(zerocycle_network, zerocycle_flow)
        keys = [(res.origin_arc, not res.forward) for res in rg.arcs]
        assert keys == sorted(keys)

    def test_rejects_infeasible_flow(self, zerocycle_network):
        with pytest.raises(InfeasibleFlowError):
            build_residual(zerocycle_network, Flow((0, 0, 0, 0, 0, 0, 0)))


def pushed(flow, cycle, amount):
    """The flow with `amount` units pushed around the cycle."""
    chi = cycle.incidence(len(flow.values))
    return Flow(tuple(value + amount * sign for value, sign in zip(flow.values, chi)))


def zero_cycle_of(zerocycle_network, zerocycle_flow):
    rg = build_residual(zerocycle_network, zerocycle_flow)
    wanted = [(2, 3, True), (3, 4, True), (4, 2, False)]
    lookup = {(res.src, res.dst, res.forward): res for res in rg.arcs}
    return Cycle(tuple(lookup[key] for key in wanted))


class TestCycles:
    def test_zerocycle_triangle_costs_zero(self, zerocycle_network, zerocycle_flow):
        assert cycle_cost(zero_cycle_of(zerocycle_network, zerocycle_flow)) == 0

    def test_antiparallel_pair_is_not_proper_and_costs_zero(self):
        net = make_network(2, [(0, 1, 0, 4, 5)], (2, -2))
        rg = build_residual(net, Flow((2,)))
        pair = Cycle((rg.arcs[0], rg.arcs[1]))
        assert cycle_cost(pair) == 0
        assert not pair.is_proper()
        assert pair.incidence(1) == (0,)

    def test_reversed_traversal_negates_cost(self):
        # Two anti-parallel interior arcs admit the cycle in both traversals.
        net = make_network(2, [(0, 1, 0, 4, 5), (1, 0, 0, 4, 3)], (0, 0))
        rg = build_residual(net, Flow((1, 1)))
        lookup = {(res.origin_arc, res.forward): res for res in rg.arcs}
        forward = Cycle((lookup[(0, True)], lookup[(1, True)]))
        backward = Cycle((lookup[(1, False)], lookup[(0, False)]))
        assert cycle_cost(forward) == 8
        assert cycle_cost(backward) == -8
        assert forward.is_proper() and backward.is_proper()

    def test_cycle_must_chain(self, zerocycle_network, zerocycle_flow):
        rg = build_residual(zerocycle_network, zerocycle_flow)
        with pytest.raises(ValueError):
            Cycle((rg.arcs[0], rg.arcs[1]))

    def test_empty_cycle_rejected(self):
        with pytest.raises(ValueError, match="at least one arc"):
            Cycle(())

    def test_reversed_cycle_undoes_the_push(self, zerocycle_network, zerocycle_flow):
        cycle = zero_cycle_of(zerocycle_network, zerocycle_flow)
        forward = pushed(zerocycle_flow, cycle, 1)
        rg = build_residual(zerocycle_network, forward)
        lookup = {(res.src, res.dst, res.forward): res for res in rg.arcs}
        reverse = Cycle((lookup[(3, 2, False)], lookup[(2, 4, True)], lookup[(4, 3, False)]))
        assert pushed(forward, reverse, 1) == zerocycle_flow


class TestAugment:
    def test_zerocycle_unit_augmentation(self, zerocycle_network, zerocycle_flow, zerocycle_augmented_flow):
        cycle = zero_cycle_of(zerocycle_network, zerocycle_flow)
        assert pushed(zerocycle_flow, cycle, 1) == zerocycle_augmented_flow

    def test_push_unit_along_residual_ids(self, zerocycle_network, zerocycle_flow,
                                          zerocycle_augmented_flow):
        # c->d forward (id 8), d->e forward (id 12), e->c as the reverse of c->e (id 11).
        pushed = push_unit(frame_of(zerocycle_network), zerocycle_flow.values, [8, 12, 11])
        assert pushed == zerocycle_augmented_flow


class TestRandomizedInvariants:
    def test_augmentation_cost_law_and_residual_reconstruction(self):
        rng = random.Random(4242)
        checked = 0
        while checked < 150:
            net, flow = random_feasible_network(rng)
            rg = build_residual(net, flow)
            cycle = random_residual_cycle(rng, rg)
            if cycle is None:
                continue
            checked += 1
            top = min(res.residual_capacity for res in cycle.arcs)
            for amount in (1, top):
                bumped = pushed(flow, cycle, amount)
                assert flow_cost(net, bumped) == flow_cost(net, flow) + amount * cycle_cost(cycle)
                assert check_feasible(net, bumped)
                rebuilt = build_residual(net, bumped)
                for res in rebuilt.arcs:
                    arc = net.arcs[res.origin_arc]
                    expected = (arc.upper - bumped.values[res.origin_arc]
                                if res.forward else bumped.values[res.origin_arc] - arc.lower)
                    assert res.residual_capacity == expected
            if cycle.is_proper():
                bumped = pushed(flow, cycle, 1)
                for arc_id, sign in enumerate(cycle.incidence(net.arc_count)):
                    if sign != 0:
                        assert bumped.values[arc_id] != flow.values[arc_id]
                assert bumped != flow

    def test_cost_telescoping_under_any_potential(self):
        rng = random.Random(515)
        checked = 0
        while checked < 100:
            net, flow = random_feasible_network(rng)
            rg = build_residual(net, flow)
            cycle = random_residual_cycle(rng, rg)
            if cycle is None:
                continue
            checked += 1
            potentials = [rng.randint(-10, 10) for _ in range(net.node_count)]
            reduced = sum(
                res.cost + potentials[res.src] - potentials[res.dst] for res in cycle.arcs
            )
            assert reduced == cycle_cost(cycle)
