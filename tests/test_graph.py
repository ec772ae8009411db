"""Graph construction, validation, counting, and enumeration."""

import tracemalloc

import numpy as np
import pytest

from pathpca import (
    Dag,
    GraphStructureError,
    build_group_graph,
    build_layer_graph,
    count_paths,
    enumerate_paths,
    is_st_path,
    make_path,
    project,
    validate,
)

from helpers import random_dag, reference_plan, reference_store


def diamond():
    # S=0 -> {1,2} -> T=3, all four vertices bound to variables 0..3
    return Dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)], 0, 3)


class TestDagBasics:
    def test_identity_binding_by_default(self):
        d = diamond()
        assert d.dim == 4
        assert d.binding.tolist() == [0, 1, 2, 3]

    def test_edges_deduplicated_and_sorted(self):
        d = Dag(4, [(1, 3), (0, 1), (0, 1), (0, 2), (2, 3)], 0, 3)
        assert d.edges().tolist() == [[0, 1], [0, 2], [1, 3], [2, 3]]
        assert d.edge_count == 4

    def test_neighbor_queries(self):
        d = diamond()
        assert d.out_neighbors(0).tolist() == [1, 2]
        e = d.edges()
        assert e[e[:, 1] == 3, 0].tolist() == [1, 2]
        assert d.out_neighbors(3).tolist() == []
        assert d.has_edge(0, 2)
        assert not d.has_edge(2, 0)

    def test_arrays_are_frozen(self):
        d = diamond()
        with pytest.raises((ValueError, RuntimeError)):
            d.binding[0] = 2
        with pytest.raises((ValueError, RuntimeError)):
            d.out_neighbors(0)[0] = 3
        e = d.edges()
        e[0, 0] = 9  # edges() hands out a copy
        assert d.edges()[0, 0] == 0

    def test_partial_binding_via_dict(self):
        d = Dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)], 0, 3, binding={1: 0, 2: 1})
        assert d.dim == 2
        assert d.binding.tolist() == [-1, 0, 1, -1]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            Dag(0, [], 0, 0)
        with pytest.raises(ValueError):
            Dag(3, [(0, 5)], 0, 2)  # endpoint out of range
        with pytest.raises(ValueError):
            Dag(3, [(0, 1), (1, 2)], 5, 2)  # source out of range
        with pytest.raises(ValueError):
            Dag(3, [(0, 1), (1, 2)], 0, 2, binding={1: 3}, dim=2)  # var >= dim
        with pytest.raises(ValueError):
            Dag(3, [(0, 1), (1, 2)], 0, 2, binding=[0, 1])  # wrong length
        with pytest.raises(ValueError, match="edges must be pairs"):
            Dag(3, [(0, 1, 2)], 0, 2)
        with pytest.raises(ValueError, match="bound vertex 3 out of range"):
            Dag(3, [(0, 1), (1, 2)], 0, 2, binding={3: 0})
        with pytest.raises(ValueError, match="binding indices must be >= -1"):
            Dag(3, [(0, 1), (1, 2)], 0, 2, binding=[0, -2, 1])


def _dfs_paths(dag):
    """Every S-T path, by plain recursion over ``edges()``; a path ends at its
    first visit to the terminal."""
    succ = {}
    for u, v in dag.edges().tolist():
        succ.setdefault(u, []).append(v)
    out = []

    def extend(path):
        if path[-1] == dag.terminal:
            out.append(tuple(path))
            return
        for u in sorted(succ.get(path[-1], ())):
            extend(path + [u])

    extend([dag.source])
    return out


def _bfs_reach(dag):
    """Vertices with a path to the terminal, by a backward search over
    ``edges()``."""
    pred = {}
    for u, v in dag.edges().tolist():
        pred.setdefault(v, []).append(u)
    mask = np.zeros(dag.vertex_count, dtype=bool)
    mask[dag.terminal] = True
    todo = [dag.terminal]
    while todo:
        for u in pred.get(todo.pop(), ()):
            if not mask[u]:
                mask[u] = True
                todo.append(u)
    return mask


# Graphs Dag accepts that validate() rejects or that have vertices off every
# S-T path, keyed by what makes them awkward.
AWKWARD = {
    "dead ends": Dag(7, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 6), (1, 4), (5, 6)], 0, 6),
    "unreachable terminal": Dag(4, [(0, 1), (2, 3)], 0, 3),
    "terminal with out-edge": Dag(4, [(0, 1), (1, 2), (2, 3)], 0, 2),
    "terminal with out-edges, two routes":
        Dag(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (1, 4)], 0, 3),
    "source is terminal": Dag(3, [(0, 1), (1, 2)], 0, 0),
    "source is an interior terminal": Dag(3, [(0, 1), (1, 2)], 1, 1),
}


class TestEdgeStore:
    def test_shuffled_duplicates_give_the_same_dag(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            n = int(rng.integers(3, 30))
            raw = np.sort(rng.integers(0, n, size=(int(rng.integers(n, 5 * n)), 2)), axis=1)
            raw = raw[raw[:, 0] != raw[:, 1]]  # forward edges only, so acyclic
            noisy = np.concatenate([raw, raw[rng.integers(0, len(raw), size=len(raw))]])
            noisy = noisy[rng.permutation(len(noisy))]
            unique = np.unique(raw, axis=0)
            d = Dag(n, noisy, 0, n - 1)
            assert np.array_equal(d.edges(), unique)
            assert d.edge_count == len(unique)
            assert d == Dag(n, unique, 0, n - 1) == Dag(n, d.edges(), 0, n - 1)

    def test_rebuild_from_edges_is_equal(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            d = random_dag(rng, max_interior=20)
            kw = dict(binding=d.binding, dim=d.dim)
            assert Dag(d.vertex_count, d.edges(), d.source, d.terminal, **kw) == d

    def test_too_many_vertices_rejected_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="vertex_count"):
                Dag(3_037_000_500, [], 0, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("p,k,d", [(130, 4, 8), (1026, 8, 32), (10_002, 10, 4)])
    def test_edges_are_held_once(self, p, k, d):
        g = build_layer_graph(p, k, d)
        held = sum(a.nbytes for a in vars(g).values() if isinstance(a, np.ndarray))
        assert held <= 8 * (g.edge_count + 4 * (g.vertex_count + 1))


class TestPlanOracle:
    """The edge store equals that of the lexsort construction
    (``helpers.reference_store``) array for array, dtypes included, and the
    plan has one wave per ``reference_plan`` level: its tables' sources are
    the level's, each table's columns hold their sources' runs of targets,
    padded with exactly the sentinel id V, every degree in a table is more
    than half its height, and the tables hold fewer than 2|E| entries. A
    graph with a cycle fails in both."""

    def check(self, d, edges):
        indptr, indices = reference_store(d.vertex_count, edges)
        for got, want in ((d._indptr, indptr), (d._indices, indices)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        want = reference_plan(d)
        if want is None:
            with pytest.raises(GraphStructureError):
                d._projection_plan
            assert "graph contains a cycle" in validate(d).violations
            return
        got = d._projection_plan
        assert len(got) == len(want)
        entries = plan_edges = 0
        for wave, (ed, runs, src) in zip(got, want):
            run = dict(zip(src.tolist(), np.split(ed, runs[1:])))
            sources = []
            for tab, s in wave:
                assert tab.dtype == s.dtype == np.int64
                assert tab.shape == (tab.shape[0], s.size)
                for col, v in zip(tab.T, s.tolist()):
                    targets = run[v]
                    assert np.array_equal(col[:targets.size], targets)
                    assert np.all(col[targets.size:] == d.vertex_count)
                    assert 2 * targets.size > tab.shape[0]
                sources += s.tolist()
                entries += tab.size
            assert sorted(sources) == src.tolist()
            plan_edges += ed.size
        assert entries < 2 * plan_edges or entries == plan_edges == 0

    def test_random_dags_with_shuffled_edges(self):
        rng = np.random.default_rng(41)
        for _ in range(400):
            d = random_dag(rng, max_interior=24)
            e = d.edges()
            e = e[rng.permutation(len(e))]
            self.check(Dag(d.vertex_count, e, d.source, d.terminal,
                           binding=d.binding, dim=d.dim), e)

    def test_random_graphs_with_cycles_loops_and_repeats(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = int(rng.integers(1, 12))
            e = rng.integers(0, n, size=(int(rng.integers(0, 3 * n + 1)), 2))
            if len(e) and rng.random() < 0.5:
                e = np.concatenate([e, e[rng.integers(0, len(e), size=len(e))]])
            s, t = rng.integers(0, n, size=2).tolist()
            self.check(Dag(n, e, s, t), e)

    @pytest.mark.parametrize("p,k,d", [(34, 4, 8), (1026, 8, 4), (2050, 8, 4),
                                       (1002, 500, 2)])
    def test_layer_graphs(self, p, k, d):
        g = build_layer_graph(p, k, d)
        self.check(g, g.edges())

    def test_group_graphs_and_awkward_cases(self):
        graphs = [build_group_graph([[0, 1], [2, 3, 4]]),
                  build_group_graph([[4, 2], [0, 7], [1], [3, 5, 6]]),
                  *AWKWARD.values()]
        for g in graphs:
            self.check(g, g.edges())


class TestReversePasses:
    """Reachability, path counts and the projection run over one plan; each
    agrees with an oracle that reads only ``edges()``."""

    def cases(self):
        rng = np.random.default_rng(31)
        return list(AWKWARD.values()) + [random_dag(rng, max_interior=16, max_paths=500)
                                         for _ in range(25)]

    def test_reach_matches_backward_search(self):
        for d in self.cases():
            assert np.array_equal(d._reach_terminal, _bfs_reach(d))

    def test_count_and_enumeration_match_recursion(self):
        for d in self.cases():
            paths = _dfs_paths(d)
            assert count_paths(d) == len(paths)
            assert [p.vertices for p in enumerate_paths(d, cap=10**6)] == paths

    def test_projection_takes_the_first_best_enumerated_path(self):
        rng = np.random.default_rng(32)
        for d in self.cases():
            paths = _dfs_paths(d)
            w = rng.choice([-2.0, -1.0, 1.0, 2.0], size=d.dim)  # exact sums, many ties
            if not paths:
                with pytest.raises(GraphStructureError):
                    project(d, w)
                continue
            score = [np.sum(w[sorted(make_path(d, p).support)] ** 2) for p in paths]
            assert project(d, w).path.vertices == paths[int(np.argmax(score))]

    def test_source_equal_to_terminal(self):
        d = AWKWARD["source is terminal"]
        assert count_paths(d) == 1
        assert project(d, np.array([3.0, 1.0, 2.0])).x.tolist() == [1.0, 0.0, 0.0]


class TestValidate:
    def test_valid_graph(self):
        rep = validate(diamond())
        assert rep.ok
        assert rep.violations == ()

    def test_source_with_in_edge(self):
        d = Dag(4, [(0, 1), (1, 0), (0, 2), (1, 3), (2, 3)], 0, 3)
        rep = validate(d)
        assert not rep.ok
        assert any("source" in v for v in rep.violations)

    def test_terminal_with_out_edge(self):
        d = Dag(4, [(0, 1), (1, 3), (3, 2), (0, 2)], 0, 3)
        rep = validate(d)
        assert not rep.ok
        assert any("terminal" in v for v in rep.violations)

    def test_cycle_detected(self):
        d = Dag(5, [(0, 1), (1, 2), (2, 1), (2, 3), (3, 4)], 0, 4)
        rep = validate(d)
        assert not rep.ok
        assert any("cycle" in v for v in rep.violations)

    def test_no_path_detected(self):
        d = Dag(4, [(0, 1), (2, 3)], 0, 3)
        rep = validate(d)
        assert not rep.ok
        assert any("no" in v and "path" in v for v in rep.violations)

    def test_source_equals_terminal(self):
        d = Dag(2, [(0, 1)], 0, 0)
        assert not validate(d).ok

    def test_no_path_binds_a_variable(self):
        # vertex 2, the only bound one, lies on no S-T path
        d = Dag(4, [(0, 1), (1, 3), (2, 3)], 0, 3, binding={2: 0})
        assert validate(d).violations == ("no S-T path binds a variable",)
        d = Dag(4, [(0, 1), (1, 3), (2, 3)], 0, 3, binding={1: 0, 2: 1})
        assert validate(d).ok

    def test_duplicate_variable_binding(self):
        d = Dag(4, [(0, 1), (1, 2), (2, 3)], 0, 3, binding={1: 0, 2: 0})
        rep = validate(d)
        assert not rep.ok
        assert any("duplicate" in v for v in rep.violations)

    def test_self_loop_reported_as_cycle(self):
        d = Dag(3, [(0, 1), (1, 1), (1, 2)], 0, 2)
        rep = validate(d)
        assert not rep.ok
        assert any("cycle" in v for v in rep.violations)

    def test_multiple_violations_all_reported(self):
        d = Dag(3, [(1, 0), (0, 1), (1, 2), (2, 1)], 0, 2)
        rep = validate(d)
        assert len(rep.violations) >= 2

    def test_bound_index_past_dim_is_rejected_by_the_constructor(self):
        # so validate never meets a bound variable index out of range
        with pytest.raises(ValueError, match="smaller than max bound index 5"):
            Dag(3, [(0, 1), (1, 2)], 0, 2, binding={1: 5}, dim=3)
        assert validate(Dag(3, [(0, 1), (1, 2)], 0, 2, binding={1: 5}, dim=6)).ok


class TestCachedStructure:
    """The plan, the reachability mask and the first binding path are each
    computed once per DAG and the same object on every later read."""

    def cases(self):
        rng = np.random.default_rng(33)
        return list(AWKWARD.values()) + [random_dag(rng, max_interior=16, max_paths=500)
                                         for _ in range(40)]

    def test_second_read_is_the_same_object(self):
        for d in self.cases():
            assert d._projection_plan is d._projection_plan
            assert d._reach_terminal is d._reach_terminal
        d = diamond()
        assert d._first_bound_path is d._first_bound_path

    def test_reach_is_a_read_only_positive_path_count(self):
        for d in self.cases():
            reach = d._reach_terminal
            assert reach.dtype == bool and not reach.flags.writeable
            with pytest.raises(ValueError):
                reach[d.source] = not reach[d.source]
            assert np.array_equal(reach, _bfs_reach(d))
            assert reach[d.source] == (count_paths(d) > 0)

    def test_reach_of_a_cyclic_graph_raises(self):
        d = Dag(5, [(0, 1), (1, 2), (2, 1), (2, 3), (3, 4)], 0, 4)
        for _ in range(2):
            with pytest.raises(GraphStructureError, match="cycle"):
                d._reach_terminal

    def test_no_binding_path_raises_on_every_read(self):
        unbound = Dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)], 0, 3, binding={})
        off_path = Dag(4, [(0, 1), (1, 3), (2, 3)], 0, 3, binding={2: 0})
        for d in (unbound, off_path):
            for _ in range(2):
                with pytest.raises(ValueError, match="no S-T path binds any variable"):
                    d._first_bound_path


class TestCounting:
    def test_diamond_has_two_paths(self):
        assert count_paths(diamond()) == 2

    def test_count_matches_enumeration_on_random_dags(self):
        rng = np.random.default_rng(2024)
        for _ in range(30):
            d = random_dag(rng, max_interior=16, max_paths=2000)
            assert count_paths(d) == len(enumerate_paths(d, cap=2000))

    def test_count_is_exact_beyond_float_precision(self):
        # 10 groups of 30 variables: 30**10 paths, > 2**53
        groups = [list(range(30 * g, 30 * (g + 1))) for g in range(10)]
        d = build_group_graph(groups)
        assert count_paths(d) == 30**10

    def test_cycle_raises(self):
        d = Dag(4, [(0, 1), (1, 2), (2, 1), (2, 3)], 0, 3)
        with pytest.raises(GraphStructureError):
            count_paths(d)


class TestEnumeration:
    def test_diamond_paths_in_lexicographic_order(self):
        paths = enumerate_paths(diamond(), cap=10)
        assert [p.vertices for p in paths] == [(0, 1, 3), (0, 2, 3)]
        assert paths[0].support == {0, 1, 3}

    def test_cap_refused_before_work(self):
        d = build_layer_graph(12, 2, 5)  # 25 paths
        with pytest.raises(ValueError):
            enumerate_paths(d, cap=24)
        assert len(enumerate_paths(d, cap=25)) == 25

    def test_lexicographic_order_on_random_dags(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            d = random_dag(rng, max_interior=14, max_paths=500)
            paths = [p.vertices for p in enumerate_paths(d, cap=500)]
            assert paths == sorted(paths)
            assert len(set(paths)) == len(paths)

    def test_first_bound_path_is_the_first_enumerated_with_a_variable(self):
        rng = np.random.default_rng(101)
        sparse = 0
        for _ in range(40):
            d = random_dag(rng, max_interior=12, max_paths=500)
            # bind only a few vertices, so the first paths often bind nothing
            keep = rng.random(d.vertex_count) < 0.3
            bind = np.where(keep, d.binding, -1)
            d = Dag(d.vertex_count, d.edges(), d.source, d.terminal, binding=bind,
                    dim=d.dim)
            paths = enumerate_paths(d, cap=500)
            binding = [p for p in paths if p.support]
            if not binding:
                with pytest.raises(ValueError, match="no S-T path binds any variable"):
                    d._first_bound_path
                continue
            sparse += not paths[0].support
            assert d._first_bound_path == binding[0]
            assert d._first_bound_path is d._first_bound_path  # found once
        assert sparse >= 3  # the first path bound nothing that often

    def test_paths_are_valid(self):
        rng = np.random.default_rng(100)
        d = random_dag(rng, max_interior=12, max_paths=200)
        for p in enumerate_paths(d, cap=200):
            assert is_st_path(d, p.vertices)


class TestPathHelpers:
    def test_make_path_collects_support(self):
        d = Dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)], 0, 3, binding={1: 0, 3: 1})
        p = make_path(d, [0, 1, 3])
        assert p.support == {0, 1}
        assert p.sorted_support().tolist() == [0, 1]

    def test_make_path_rejects_non_paths(self):
        d = diamond()
        with pytest.raises(ValueError):
            make_path(d, [0, 3])  # not an edge
        with pytest.raises(ValueError):
            make_path(d, [1, 3])  # wrong start
        with pytest.raises(ValueError):
            make_path(d, [0, 1])  # wrong end

    def test_is_st_path(self):
        d = diamond()
        assert is_st_path(d, (0, 1, 3))
        assert is_st_path(d, (0, 2, 3))
        assert not is_st_path(d, (0, 3))
        assert not is_st_path(d, (0, 1, 2, 3))
        assert not is_st_path(d, (0, 1, 3, 3))
        assert not is_st_path(d, (0, 9, 3))  # out-of-range vertex
        assert not is_st_path(d, ())


class TestLayerGraph:
    def test_small_instance_shape(self):
        d = build_layer_graph(12, 2, 3)
        assert d.vertex_count == 12
        assert d.source == 0 and d.terminal == 11
        assert d.dim == 12
        assert d.binding.tolist() == list(range(12))
        # S fans out to the whole first layer, last layer drains to T
        assert d.out_neighbors(0).tolist() == [1, 2, 3, 4, 5]
        e = d.edges()
        assert e[e[:, 1] == 11, 0].tolist() == [6, 7, 8, 9, 10]
        # interior degrees equal the wiring width
        for v in range(1, 6):
            assert d.out_neighbors(v).size == 3
        assert np.bincount(e[:, 1], minlength=12)[6:11].tolist() == [3] * 5
        assert validate(d).ok

    def test_circulant_wiring(self):
        d = build_layer_graph(12, 2, 2)
        # vertex 1 is slot 0 of layer 1; successors are slots 0,1 of layer 2
        assert d.out_neighbors(1).tolist() == [6, 7]
        # slot 4 wraps around: slots 4,0
        assert d.out_neighbors(5).tolist() == [6, 10]

    def test_path_count_closed_form(self):
        assert count_paths(build_layer_graph(12, 2, 5)) == 25
        assert count_paths(build_layer_graph(12, 2, 3)) == 15
        assert count_paths(build_layer_graph(18, 4, 4)) == 4 * 4**3
        assert count_paths(build_layer_graph(66, 4, 16)) == 16 * 16**3

    def test_each_path_hits_one_vertex_per_layer(self):
        d = build_layer_graph(12, 2, 5)
        paths = enumerate_paths(d, cap=25)
        assert len(paths) == 25
        for p in paths:
            assert len(p.vertices) == 4
            assert 1 <= p.vertices[1] <= 5
            assert 6 <= p.vertices[2] <= 10

    def test_deterministic(self):
        assert build_layer_graph(18, 4, 4) == build_layer_graph(18, 4, 4)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            build_layer_graph(12, 4, 2)  # 10 not divisible by 4
        with pytest.raises(ValueError):
            build_layer_graph(12, 2, 6)  # wiring width exceeds layer width
        with pytest.raises(ValueError):
            build_layer_graph(12, 2, 0)
        with pytest.raises(ValueError):
            build_layer_graph(2, 1, 1)


class TestGroupGraph:
    def test_two_group_instance(self):
        d = build_group_graph([[0, 1], [2, 3, 4]])
        assert d.vertex_count == 7
        assert d.edge_count == 2 + 2 * 3 + 3
        assert d.dim == 5
        assert d.binding[d.source] == -1 and d.binding[d.terminal] == -1
        assert count_paths(d) == 6
        assert validate(d).ok

    def test_every_path_picks_one_variable_per_group(self):
        groups = [[0, 1], [2, 3, 4]]
        d = build_group_graph(groups)
        for p in enumerate_paths(d, cap=6):
            sup = sorted(p.support)
            assert len(sup) == 2
            assert sup[0] in groups[0]
            assert sup[1] in groups[1]

    def test_count_is_product_of_sizes(self):
        rng = np.random.default_rng(3)
        sizes = [int(rng.integers(2, 9)) for _ in range(5)]
        start, groups = 0, []
        for s in sizes:
            groups.append(list(range(start, start + s)))
            start += s
        d = build_group_graph(groups)
        expect = 1
        for s in sizes:
            expect *= s
        assert count_paths(d) == expect

    def test_variables_keep_given_indices(self):
        d = build_group_graph([[4, 2], [0, 7]])
        assert d.dim == 8
        sups = sorted(tuple(sorted(p.support)) for p in enumerate_paths(d, cap=4))
        assert sups == [(0, 2), (0, 4), (2, 7), (4, 7)]

    def test_rejects_bad_groups(self):
        with pytest.raises(ValueError):
            build_group_graph([])
        with pytest.raises(ValueError):
            build_group_graph([[0, 1], []])
        with pytest.raises(ValueError):
            build_group_graph([[0, 1], [1, 2]])  # overlap
        with pytest.raises(ValueError):
            build_group_graph([[0, -1]])
