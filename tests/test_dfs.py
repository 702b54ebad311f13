import hashlib
import importlib
import importlib.util
import io
import json
import pkgutil
import random
import sys
from collections import Counter, deque
from itertools import islice
from pathlib import Path

import pytest

import flowenum
from flowenum import iter_k_best_flows, iter_optimal_flows
from flowenum.cli import run

from flowenum.core import Flow, ResidualGraph, build_residual, check_feasible, flow_cost
from flowenum.dfs import (
    BACKWARD_LONG,
    BACKWARD_SHORT,
    CROSS,
    FORWARD,
    TREE,
    build_dfs_forest,
    find_another_feasible_flow,
    find_proper_cycle,
)
from flowenum.errors import InfeasibleFlowError, InvariantError

from helpers import (
    digraph_has_cycle,
    face_network,
    make_network,
    proper_cycle_exists_bruteforce,
    random_feasible_network,
    random_grid_network,
    reference_forest,
    sbalow_bruteforce,
    sweep_proper_cycle,
    synthetic_digraph,
    tree_root,
)


def ancestors(forest, node):
    """The node and every node above it, walking parent links."""
    found = []
    while node != -1:
        found.append(node)
        node = forest.parent_node[node]
    return found


def assert_forest_matches_reference(forest):
    """Every field, derived views included, as the storing reference has it; sizes by parent walks."""
    reference = reference_forest(forest.out, forest.head)
    for name, value in vars(reference).items():
        assert getattr(forest, name) == value, name
    size = [0] * len(forest.order)
    for node in range(len(size)):
        for above in ancestors(forest, node):
            size[above] += 1
    assert forest.size == size


def reachable(rg, start):
    """The nodes a breadth-first search reaches from `start` over the residual graph's arcs."""
    seen, queue = {start}, deque([start])
    while queue:
        for index in rg.out_arcs[queue.popleft()]:
            if rg.arcs[index].dst not in seen:
                seen.add(rg.arcs[index].dst)
                queue.append(rg.arcs[index].dst)
    return seen


def classes_by_endpoints(rg, forest):
    return {(res.src, res.dst): cls for res, cls in zip(rg.arcs, forest.arc_class)}


class TestClassification:
    def test_dfs_demo_forest(self, dfs_demo_network, dfs_demo_flow):
        rg = build_residual(dfs_demo_network, dfs_demo_flow)
        forest = build_dfs_forest(rg)
        classes = classes_by_endpoints(rg, forest)
        a, b, c, d, e = range(5)
        assert classes[(a, c)] == TREE
        assert classes[(c, d)] == TREE
        assert classes[(d, b)] == TREE
        assert classes[(d, e)] == TREE
        assert classes[(e, c)] == BACKWARD_LONG
        assert classes[(e, d)] == BACKWARD_SHORT
        assert classes[(d, a)] == BACKWARD_LONG
        assert classes[(a, d)] == FORWARD
        assert classes[(c, e)] == FORWARD

    def test_no_arcs_gives_singleton_forest(self):
        rg = ResidualGraph(4, (), ((), (), (), ()))
        forest = build_dfs_forest(rg)
        assert sorted(forest.order) == [1, 2, 3, 4]
        assert list(forest.sbalow) == list(forest.order)
        assert all(parent == -1 for parent in forest.parent_node)

    def test_path_graph_is_all_tree(self):
        net = make_network(3, [(0, 1, 0, 1, 0), (1, 2, 0, 1, 0)], (0, 0, 0))
        rg = build_residual(net, Flow((0, 0)))
        forest = build_dfs_forest(rg)
        assert set(forest.arc_class) == {TREE}

    def test_partition_and_cross_direction_on_random_digraphs(self):
        rng = random.Random(7)
        crossings = Counter()  # (any cross id within a tree, any into an earlier tree)
        for _ in range(150):
            rg = synthetic_digraph(rng, max_nodes=15)
            forest = build_dfs_forest(rg)
            counts = {TREE: 0, FORWARD: 0, BACKWARD_SHORT: 0, BACKWARD_LONG: 0, CROSS: 0}
            for index, res in enumerate(rg.arcs):
                cls = forest.arc_class[index]
                counts[cls] += 1
                if cls == CROSS:
                    assert forest.order[res.src] > forest.order[res.dst]
                if cls in (BACKWARD_SHORT, BACKWARD_LONG):
                    assert res.dst in ancestors(forest, res.src)
                if cls == BACKWARD_SHORT:
                    assert forest.parent_node[res.src] == res.dst
                if cls == FORWARD:
                    assert res.src in ancestors(forest, res.dst)
            assert sum(counts.values()) == len(rg.arcs)
            assert sorted(forest.order) == list(range(1, rg.node_count + 1))
            ids = {cls: [i for i, c in enumerate(forest.arc_class) if c == cls] for cls in counts}
            assert sorted(forest.forward) == ids[FORWARD]
            within = [i for i in ids[CROSS]
                      if tree_root(forest, rg.arcs[i].src) == tree_root(forest, rg.arcs[i].dst)]
            assert sorted(forest.cross) == within
            # A cross arc into an earlier tree closes no cycle: its head cannot reach its tail.
            for index in set(ids[CROSS]) - set(within):
                assert rg.arcs[index].src not in reachable(rg, rg.arcs[index].dst)
            crossings[bool(within), len(within) < len(ids[CROSS])] += 1
            assert forest.long_back == max(ids[BACKWARD_LONG], default=-1)
        assert crossings[True, True] > 10


class TestForestMatchesTheStoringReference:
    def test_synthetic_digraphs(self):
        rng = random.Random(15)
        for _ in range(600):
            assert_forest_matches_reference(build_dfs_forest(synthetic_digraph(rng, max_nodes=20)))

    def test_residual_graph_with_unsearched_ids(self, dfs_demo_network, dfs_demo_flow):
        # Ids past the residual graph's arcs and ids on no out-list read class 0 in both views.
        rg = build_residual(dfs_demo_network, dfs_demo_flow)
        out = [list(ids) for ids in rg.out_arcs]
        head = [res.dst for res in rg.arcs] + [0, 1]
        dropped = out[0].pop()
        forest = flowenum.dfs._forest(out, head)
        assert_forest_matches_reference(forest)
        assert forest.arc_class[dropped] == forest.arc_class[-1] == forest.arc_class[-2] == 0


class TestSbalow:
    def test_root_is_own_dfs_number(self, dfs_demo_network, dfs_demo_flow):
        forest = build_dfs_forest(build_residual(dfs_demo_network, dfs_demo_flow))
        root = forest.order.index(1)
        assert forest.sbalow[root] == 1

    def test_two_step_chain_reaches_the_root(self):
        # Both interior arcs leave short backward arcs pointing at the parent.
        net = make_network(3, [(0, 1, 0, 2, 0), (1, 2, 0, 2, 0)], (1, 0, -1))
        rg = build_residual(net, Flow((1, 1)))
        forest = build_dfs_forest(rg)
        assert forest.sbalow == [1, 1, 1]

    def test_long_backward_arc_does_not_help(self):
        # Arc 2->0 jumps to the grandparent: no short backward arcs anywhere.
        net = make_network(3, [(0, 1, 0, 1, 0), (1, 2, 0, 1, 0), (2, 0, 0, 1, 0)], (0, 0, 0))
        rg = build_residual(net, Flow((0, 0, 0)))
        forest = build_dfs_forest(rg)
        assert forest.sbalow == forest.order

    def test_matches_bruteforce_on_random_digraphs(self):
        rng = random.Random(8)
        for _ in range(200):
            rg = synthetic_digraph(rng, max_nodes=20)
            forest = build_dfs_forest(rg)
            assert sbalow_bruteforce(rg, forest) == list(forest.sbalow)


class TestLca:
    def test_dfs_demo_queries(self, dfs_demo_network, dfs_demo_flow):
        forest = build_dfs_forest(build_residual(dfs_demo_network, dfs_demo_flow))
        a, b, c, d, e = range(5)
        assert flowenum.dfs._lca(forest, b, e) == d
        assert flowenum.dfs._lca(forest, e, e) == e
        assert flowenum.dfs._lca(forest, e, d) == d
        assert flowenum.dfs._lca(forest, b, c) == c

    def test_matches_parent_walk_on_random_digraphs(self):
        rng = random.Random(9)
        for _ in range(60):
            rg = synthetic_digraph(rng, max_nodes=14)
            forest = build_dfs_forest(rg)
            for _ in range(20):
                x = rng.randrange(rg.node_count)
                y = rng.randrange(rg.node_count)
                if tree_root(forest, x) != tree_root(forest, y):
                    continue
                above_x = set(ancestors(forest, x))
                node = y
                while node not in above_x:
                    node = forest.parent_node[node]
                assert flowenum.dfs._lca(forest, x, y) == node


class TestFindProperCycle:
    def test_dfs_demo_returns_the_backward_triangle(self, dfs_demo_network, dfs_demo_flow):
        rg = build_residual(dfs_demo_network, dfs_demo_flow)
        cycle = find_proper_cycle(rg)
        assert cycle is not None and cycle.is_proper()
        assert {(res.src, res.dst) for res in cycle.arcs} == {(2, 3), (3, 4), (4, 2)}

    def test_directed_path_has_no_cycle(self):
        net = make_network(3, [(0, 1, 0, 1, 0), (1, 2, 0, 1, 0)], (1, 0, -1))
        assert find_proper_cycle(build_residual(net, Flow((1, 1)))) is None

    def test_single_antiparallel_pair_is_rejected(self):
        net = make_network(2, [(0, 1, 0, 4, 5)], (2, -2))
        assert find_proper_cycle(build_residual(net, Flow((2,)))) is None

    def test_parallel_arcs_make_a_proper_two_cycle(self):
        net = make_network(2, [(0, 1, 0, 2, 0), (0, 1, 0, 2, 0)], (2, -2))
        cycle = find_proper_cycle(build_residual(net, Flow((1, 1))))
        assert cycle is not None and cycle.is_proper()
        assert len(cycle.arcs) == 2

    def test_antiparallel_origins_make_a_proper_two_cycle(self, twocycle_network):
        cycle = find_proper_cycle(build_residual(twocycle_network, Flow((0, 0))))
        assert cycle is not None and cycle.is_proper()
        origins = {res.origin_arc for res in cycle.arcs}
        assert origins == {0, 1}

    def test_completeness_against_bruteforce(self):
        rng = random.Random(10)
        for _ in range(250):
            net, flow = random_feasible_network(rng, max_nodes=6, max_arcs=9)
            rg = build_residual(net, flow)
            cycle = find_proper_cycle(rg)
            exists = proper_cycle_exists_bruteforce(rg)
            if cycle is None:
                assert not exists
            else:
                assert exists and cycle.is_proper()

    def test_synthetic_digraphs_reduce_to_plain_cycle_detection(self):
        rng = random.Random(11)
        for _ in range(200):
            rg = synthetic_digraph(rng, max_nodes=25)
            cycle = find_proper_cycle(rg)
            assert (cycle is not None) == digraph_has_cycle(rg)


class TestScanMatchesTheSweepReference:
    """The candidate scan returns the cycle the three full sweeps returned."""

    def test_synthetic_digraphs(self):
        rng = random.Random(14)
        starts = Counter()
        for _ in range(600):
            rg = synthetic_digraph(rng, max_nodes=12)
            forest = build_dfs_forest(rg)
            tail = [res.src for res in rg.arcs]
            origin = [res.origin_arc for res in rg.arcs]
            cycle = flowenum.dfs._proper_cycle(forest, tail, origin)
            assert cycle == sweep_proper_cycle(forest, tail, origin)
            starts[None if cycle is None else forest.arc_class[cycle[0]]] += 1
        assert all(starts[cls] >= 4 for cls in (None, TREE, FORWARD, BACKWARD_LONG, CROSS))

    def test_every_region_of_zero_cost_grids(self, monkeypatch):
        scan = flowenum.dfs._proper_cycle
        regions = []

        def checked(forest, tail, origin):
            cycle = scan(forest, tail, origin)
            assert cycle == sweep_proper_cycle(forest, tail, origin)
            regions.append(cycle is not None)
            return cycle

        monkeypatch.setattr(flowenum.dfs, "_proper_cycle", checked)
        for seed in range(3):
            grid = random_grid_network(random.Random(seed), 6, 6, min_cost=0, max_cost=0,
                                       both_ways=True)
            assert len(list(islice(iter_optimal_flows(grid), 150))) == 150
        assert len(regions) > 600 and 0 < regions.count(False) < len(regions)


class TestKeepChildReuse:
    """A keep half's patched forest, out-lists included, equals a fresh one, and so do its
    cycle and flow; every forest, fresh or patched, equals the storing reference's."""

    def test_every_keep_child_of_grids(self, monkeypatch):
        search, scan = flowenum.dfs._search, flowenum.dfs._proper_cycle
        paths = Counter()

        def checked(frame, values, reuse=None):
            if reuse is None:
                found = search(frame, values)
                assert_forest_matches_reference(found[2])
                return found
            fresh = search(frame, values)
            forest, index = reuse
            tail, head = frame.tail[index], forest.head[index]
            kind = forest.arc_class[index]
            if kind == BACKWARD_SHORT:
                # True when the tail loses its last short backward arc, so SBAlow is recomputed.
                kind = (kind, forest.short_back_arcs[tail] == [index])
            elif kind == TREE:
                # True when the id after it on the out-list enters the same node: a twin.
                out = forest.out[tail]
                after = out[out.index(index) + 1:]
                kind = (kind, bool(after) and forest.head[after[0]] == head)
            elif kind == CROSS:
                # True when it enters its own tree, False when an earlier one.
                kind = (kind, tree_root(forest, head) == tree_root(forest, tail))
            paths[kind] += 1
            found = search(frame, values, reuse)
            assert found[2] == fresh[2]
            assert found[2].arc_class[index] == 0
            assert_forest_matches_reference(found[2])
            assert scan(found[2], frame.tail, frame.origin) == scan(fresh[2], frame.tail,
                                                                    frame.origin)
            assert found[:2] == fresh[:2]
            return found

        monkeypatch.setattr(flowenum.enumeration, "_search", checked)
        for max_cost in (0, 1):
            for seed in range(3):
                grid = random_grid_network(random.Random(seed), 6, 6, min_cost=0,
                                           max_cost=max_cost, both_ways=True)
                reused = sum(paths.values())
                assert len(list(islice(iter_optimal_flows(grid), 400))) == 400
                # Every flow after the first opens a keep half, and each is searched but
                # the last one's: the generator stops at the 400th flow.
                assert sum(paths.values()) - reused == 398
        assert paths[TREE, True] and paths[TREE, False] and paths[BACKWARD_LONG]
        assert paths[BACKWARD_SHORT, True] and paths[BACKWARD_SHORT, False]
        assert paths[CROSS, True]
        # The dropped id lies on the cycle just pushed, and a cross arc into an earlier
        # tree lies on none; `test_every_id_of_random_digraphs` drops those.
        assert not paths[CROSS, False]

    def test_every_id_of_random_digraphs(self):
        # Dropping any id, whatever its class, gives the forest a new DFS builds.
        rng = random.Random(25)
        paths = Counter()
        for _ in range(300):
            rg = synthetic_digraph(rng, max_nodes=8)
            head, tail = [res.dst for res in rg.arcs], [res.src for res in rg.arcs]
            for index in range(len(rg.arcs)):
                forest = flowenum.dfs._forest([list(ids) for ids in rg.out_arcs], head)
                kind = forest.arc_class[index]
                if kind == CROSS:
                    kind = (kind, tree_root(forest, head[index]) == tree_root(forest, tail[index]))
                out = [[i for i in ids if i != index] for ids in rg.out_arcs]
                dropped = flowenum.dfs._drop(forest, index, tail)
                assert dropped == flowenum.dfs._forest(out, head)
                assert_forest_matches_reference(dropped)
                paths[kind, dropped is forest] += 1
        assert all(paths[kind, True] for kind in
                   (TREE, FORWARD, BACKWARD_SHORT, (CROSS, True), (CROSS, False)))
        assert paths[TREE, False] and paths[BACKWARD_LONG, False]


class TestForestWork:
    """Forests built and keep children patched.  A keep child that drops a tree arc with a
    twin next on its out-list patches its parent's forest; each such child builds one
    forest fewer than when every tree-arc drop rebuilt (734/9, 558/181, 552/191 for the
    grids, 3,350/598 for the benchmark)."""

    @pytest.fixture
    def work(self, monkeypatch):
        work = Counter()
        forest, drop = flowenum.dfs._forest, flowenum.dfs._drop

        def counted_forest(*args):
            work["built"] += 1
            return forest(*args)

        def counted_drop(parent, *args):
            patched = drop(parent, *args)
            work["patched"] += patched is parent
            return patched

        monkeypatch.setattr(flowenum.dfs, "_forest", counted_forest)
        monkeypatch.setattr(flowenum.dfs, "_drop", counted_drop)
        return work

    @pytest.mark.parametrize("seed, built, patched", [(0, 497, 246), (1, 397, 342), (2, 442, 301)])
    def test_zero_cost_grids(self, work, seed, built, patched):
        grid = random_grid_network(random.Random(seed), 6, 6, min_cost=0, max_cost=0,
                                   both_ways=True)
        assert len(list(islice(iter_optimal_flows(grid), 400))) == 400
        assert work == {"built": built, "patched": patched}

    def test_benchmark_enum_ties_seed_3(self, work, tmp_path, monkeypatch):
        # The 16 instances and the command of `bench/run.py --workload enum-ties --seed 3`.
        spec = importlib.util.spec_from_file_location(
            "bench_gen", Path(__file__).resolve().parents[1] / "bench" / "gen.py")
        gen = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, gen)  # its dataclasses look themselves up
        spec.loader.exec_module(gen)
        family = gen.GridFamily(6, 6, both_ways=True, cost=(0, 0), lower=(0, 0), span=(1, 2))
        rng = random.Random("enum-ties/3")
        for number in range(16):
            path = tmp_path / f"{number}.min"
            path.write_text(family.build(rng).dimacs())
            assert run(["enumerate", str(path), "--limit", "150"], stdout=io.StringIO()) == 0
        assert work == {"built": 2890, "patched": 1058}


class TestFindAnotherFeasibleFlow:
    def test_zerocycle_replay(self, zerocycle_network, zerocycle_flow, zerocycle_augmented_flow):
        other = find_another_feasible_flow(zerocycle_network, zerocycle_flow)
        assert other == zerocycle_augmented_flow
        assert flow_cost(zerocycle_network, other) == flow_cost(zerocycle_network, zerocycle_flow)

    def test_forced_network_has_no_other_flow(self, forced_network):
        only = Flow((2, 2))
        assert find_another_feasible_flow(forced_network, only) is None

    def test_reduced_blocked_instance_has_no_other_flow(self, blocked_cycle_network, blocked_cycle_flow):
        face = face_network(blocked_cycle_network, blocked_cycle_flow)
        assert find_another_feasible_flow(face, blocked_cycle_flow) is None

    def test_infeasible_input_rejected(self, zerocycle_network):
        with pytest.raises(InfeasibleFlowError):
            find_another_feasible_flow(zerocycle_network, Flow((0, 0, 0, 0, 0, 0, 0)))

    def test_none_means_unique_on_random_instances(self):
        from flowenum.bruteforce import enumerate_all_feasible_bruteforce

        rng = random.Random(12)
        for _ in range(150):
            net, flow = random_feasible_network(rng, max_nodes=5, max_arcs=8)
            other = find_another_feasible_flow(net, flow)
            count = len(enumerate_all_feasible_bruteforce(net))
            if other is None:
                assert count == 1
            else:
                assert count >= 2
                assert other != flow
                assert check_feasible(net, other)

    def test_cycle_past_a_bound_is_an_invariant_error(self, monkeypatch, zerocycle_network,
                                                      zerocycle_flow):
        # b->d forward, d->a backward, a->b forward uses each arc once, but
        # b->d already carries its upper bound of five units.
        monkeypatch.setattr(flowenum.dfs, "_proper_cycle", lambda *_: [6, 5, 0])
        with pytest.raises(InvariantError, match="arc 3 past its bounds"):
            find_another_feasible_flow(zerocycle_network, zerocycle_flow)

    @pytest.mark.parametrize("cycle", [[8, 9], [8, 12, 11] * 2])
    def test_cycle_reusing_an_arc_is_an_invariant_error(self, monkeypatch, zerocycle_network,
                                                        zerocycle_flow, cycle):
        # c->d both ways stays within its bounds; the zero cycle twice would
        # also cross c->d's upper bound, but reuse is caught first.
        monkeypatch.setattr(flowenum.dfs, "_proper_cycle", lambda *_: cycle)
        with pytest.raises(InvariantError, match="uses an arc twice"):
            find_another_feasible_flow(zerocycle_network, zerocycle_flow)

    def test_matches_the_cycle_of_the_residual_graph(self):
        rng = random.Random(13)
        found = 0
        for _ in range(600):
            net, flow = random_feasible_network(rng, max_nodes=7, max_arcs=21, max_cost=0)
            other = find_another_feasible_flow(net, flow)
            cycle = find_proper_cycle(build_residual(net, flow))
            if cycle is None:
                assert other is None
                continue
            found += 1
            chi = cycle.incidence(net.arc_count)
            assert other == Flow(tuple(value + sign for value, sign in zip(flow.values, chi)))
        assert found > 300


# sha256 of the JSON list of flow values yielded, recorded while every
# search still built a residual graph of objects.  On the eleven-optima
# network both generators yield its eleven flows, the only feasible ones.
HOT_PATH_GOLDEN = {
    "eleven": "2f94e16387fec6e33c49d78a7e11b492d0087f2fd15cd6dd2758daa236b5fe7c",
    "grid-enumerate": "f73886cfebbe5d31e2175d489c697da195ffca954d7ac57af4b2a0fd59b23e53",
    "grid-kbest": "ed9f983f340671a77af31f749e2080bdd5e79fa7ec8355a855103fc970e33a7f",
}


def test_enumeration_and_kbest_build_no_residual_objects(monkeypatch, eleven_optima_network):
    def forbidden(*args, **kwargs):
        raise AssertionError("residual objects built on the enumeration path")

    for info in pkgutil.iter_modules(flowenum.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"flowenum.{info.name}")
        for name in ("build_residual", "ResidualArc", "Cycle"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)

    def digest(flows):
        return hashlib.sha256(json.dumps([list(f.values) for f in flows]).encode()).hexdigest()

    grid = random_grid_network(random.Random(1), 6, 6, min_cost=0, max_cost=0, both_ways=True)
    assert digest(iter_optimal_flows(eleven_optima_network)) == HOT_PATH_GOLDEN["eleven"]
    assert digest(iter_k_best_flows(eleven_optima_network, 15)) == HOT_PATH_GOLDEN["eleven"]
    assert digest(islice(iter_optimal_flows(grid), 150)) == HOT_PATH_GOLDEN["grid-enumerate"]
    assert digest(iter_k_best_flows(grid, 10)) == HOT_PATH_GOLDEN["grid-kbest"]


def test_cross_ids_skip_the_lca_climb_when_sbalow_decides(monkeypatch):
    # The 150 optima of the HOT_PATH_GOLDEN grid.  A cross id whose head's SBAlow is the
    # head's own number fails the SBAlow test at every proper ancestor of the head, so the
    # scan climbs to no LCA for it: 231 climbs, against 1,212 when every cross id climbed.
    # A forward id's tail is its head's ancestor, so `_lca` returns it without climbing;
    # only the calls whose first node is no ancestor of the second are counted.
    lca, calls = flowenum.dfs._lca, []

    def counted(forest, a, b):
        order, size = forest.order, forest.size
        if not order[a] <= order[b] < order[a] + size[a]:
            calls.append((a, b))
        return lca(forest, a, b)

    monkeypatch.setattr(flowenum.dfs, "_lca", counted)
    grid = random_grid_network(random.Random(1), 6, 6, min_cost=0, max_cost=0, both_ways=True)
    assert len(list(islice(iter_optimal_flows(grid), 150))) == 150
    assert len(calls) == 231
