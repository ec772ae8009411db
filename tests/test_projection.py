"""The longest-weighted-path DP and the path-support projection."""

import numpy as np
import pytest

from pathpca import (UNBOUND, Dag, GraphStructureError, build_layer_graph,
                     enumerate_paths, is_st_path, project)
from pathpca.projection import (_best_to_terminal, _paths, _sorted_supports,
                                _unit_on, _walk)

from helpers import (assert_feasible, hub_dag, oracle_best_objective, random_dag,
                     reference_best)


def diamond():
    return Dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)], 0, 3)


def two_branch():
    # S=0 -> 1 -> 4 -> T, S -> 2 -> 3 -> T; variables on interior vertices only
    return Dag(6, [(0, 1), (1, 4), (4, 5), (0, 2), (2, 3), (3, 5)], 0, 5,
               binding={1: 0, 2: 1, 3: 2})


class TestLongestWeightedPath:
    """The longest-path DP behind ``project``: the winning path maximizes the
    squared weights summed over its bound vertices."""

    def test_diamond_picks_heavier_branch(self):
        pv = project(diamond(), np.array([0.0, 0.9, 0.7, 0.0]))
        assert pv.path.vertices == (0, 1, 3)
        assert pv.x.tolist() == [0.0, 1.0, 0.0, 0.0]

    def test_diamond_tie_is_lexicographic(self):
        pv = project(diamond(), np.array([0.0, 0.5, -0.5, 0.0]))
        assert pv.path.vertices == (0, 1, 3)

    def test_all_zero_weights(self):
        pv = project(diamond(), np.zeros(4))
        assert pv.path.vertices == (0, 1, 3)
        assert pv.degenerate

    def test_weight_is_sum_over_bound_support(self):
        d = two_branch()
        w = np.sqrt([0.2, 0.3, 0.3])
        pv = project(d, w)
        # branch through vertices 2,3 carries 0.6; branch through 1 carries 0.2
        assert pv.path.vertices == (0, 2, 3, 5)
        assert float(w @ pv.x) ** 2 == pytest.approx(0.6, abs=1e-15)

    def test_matches_enumeration_on_random_dags(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            d = random_dag(rng, max_interior=18, max_paths=3000)
            w = rng.random(d.dim)
            pv = project(d, w)
            paths = enumerate_paths(d, cap=3000)
            best = max(float((w[p.sorted_support()] ** 2).sum()) for p in paths)
            direct = float((w[pv.path.sorted_support()] ** 2).sum())
            assert direct == pytest.approx(best, abs=1e-10)
            assert is_st_path(d, pv.path.vertices)

    def test_lexicographic_among_all_maximizers(self):
        # every interior vertex weight equal: all 25 paths tie; the winner
        # must be the lexicographically smallest vertex sequence
        d = build_layer_graph(12, 2, 5)
        pv = project(d, np.ones(12))
        first = enumerate_paths(d, cap=25)[0]
        assert pv.path.vertices == first.vertices

    def test_unbound_vertices_carry_zero(self):
        d = two_branch()
        pv = project(d, np.array([1.0, 0.1, 0.1]))
        assert pv.path.vertices == (0, 1, 4, 5)
        assert pv.x.tolist() == [1.0, 0.0, 0.0]


class TestProject:
    def test_two_branch_frozen_values(self):
        d = two_branch()
        w = np.array([0.5, 0.7, 0.7])
        pv = project(d, w)
        assert pv.path.vertices == (0, 2, 3, 5)
        expect = np.array([0.0, 0.7, 0.7]) / np.sqrt(0.98)
        np.testing.assert_allclose(pv.x, expect, rtol=1e-15, atol=0)
        assert float(w @ pv.x) == pytest.approx(np.sqrt(0.98), abs=1e-12)
        assert not pv.degenerate

    def test_prefers_heavier_single_variable(self):
        d = two_branch()
        pv = project(d, np.array([0.9, 0.1, 0.1]))
        assert pv.path.vertices == (0, 1, 4, 5)
        assert pv.x.tolist() == [1.0, 0.0, 0.0]

    def test_negative_entries_square_correctly(self):
        d = two_branch()
        pv = project(d, np.array([0.9, -0.8, -0.8]))
        # squared branch weights: 0.81 vs 1.28
        assert pv.path.vertices == (0, 2, 3, 5)
        np.testing.assert_allclose(pv.x, [0.0, -1 / np.sqrt(2), -1 / np.sqrt(2)],
                                   rtol=1e-14)

    def test_sign_equivariance(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            d = random_dag(rng, max_interior=15)
            w = rng.standard_normal(d.dim)
            a, b = project(d, w), project(d, -w)
            assert a.path == b.path
            assert np.array_equal(a.x, -b.x)

    def test_scale_leaves_path_and_direction(self):
        rng = np.random.default_rng(29)
        d = random_dag(rng, max_interior=15)
        w = rng.standard_normal(d.dim)
        a, b = project(d, w), project(d, 4.0 * w)
        assert a.path == b.path
        np.testing.assert_allclose(a.x, b.x, rtol=1e-14, atol=1e-16)

    def test_output_feasible_on_random_dags(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            d = random_dag(rng, max_interior=20)
            w = rng.standard_normal(d.dim)
            pv = project(d, w)
            assert_feasible(d, pv.x, pv.path)

    def test_objective_matches_enumeration(self):
        rng = np.random.default_rng(37)
        for _ in range(40):
            d = random_dag(rng, max_interior=18, max_paths=3000)
            paths = enumerate_paths(d, cap=3000)
            for _ in range(5):
                w = rng.standard_normal(d.dim)
                pv = project(d, w)
                got = float(w @ pv.x)
                best = oracle_best_objective(d, w, paths)
                assert got == pytest.approx(best, abs=1e-10)

    def test_degenerate_zero_vector(self):
        d = diamond()
        pv = project(d, np.zeros(4))
        assert pv.degenerate
        assert pv.path.vertices == (0, 1, 3)
        np.testing.assert_allclose(pv.x, [1, 1, 0, 1] / np.sqrt(3.0), rtol=1e-15)

    def test_zero_on_one_branch_not_degenerate(self):
        d = diamond()
        pv = project(d, np.array([0.0, 0.0, 0.3, 0.0]))
        assert not pv.degenerate
        assert pv.path.vertices == (0, 2, 3)
        assert pv.x.tolist() == [0.0, 0.0, 1.0, 0.0]

    def test_degenerate_tiebreak_path_without_variables(self):
        # only vertex 2 bound; tie-break path (0,1,3) has no bound vertex, so
        # a zero weight falls back to the first path that binds one
        d = Dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)], 0, 3, binding={2: 0})
        pv = project(d, np.zeros(1))
        assert pv.degenerate
        assert pv.path.vertices == (0, 2, 3)
        assert pv.x.tolist() == [1.0]
        pv = project(d, np.array([0.5]))
        assert not pv.degenerate
        assert pv.path.vertices == (0, 2, 3)
        assert pv.x.tolist() == [1.0]

    def test_degenerate_without_any_binding_path_raises(self):
        d = Dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)], 0, 3, binding={}, dim=1)
        with pytest.raises(ValueError, match="no S-T path binds any variable"):
            project(d, np.zeros(1))

    def test_rejects_bad_input(self):
        d = diamond()
        with pytest.raises(ValueError):
            project(d, np.ones(3))
        with pytest.raises(ValueError):
            project(d, np.array([1.0, np.inf, 0.0, 0.0]))

    def test_rejects_vector_whose_squares_overflow(self):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError):
            project(diamond(), np.array([0.0, 1e200, 0.5, 0.0]))

    def test_weights_are_vertex_indexed_not_variable_indexed(self):
        # variable 0 lives on vertex 3, variable 2 on vertex 1: projection must
        # route weights through the binding
        d = Dag(5, [(0, 1), (1, 4), (0, 2), (2, 3), (3, 4)], 0, 4,
                binding={1: 2, 2: 1, 3: 0})
        pv = project(d, np.array([0.3, 0.3, 0.8]))
        # path through vertex 1 carries w[2]^2=0.64; other branch 0.09+0.09=0.18
        assert pv.path.vertices == (0, 1, 4)
        assert pv.x.tolist() == [0.0, 0.0, 1.0]


def _dp(dag, w2):
    """``_best_to_terminal`` of the squared weights w2, (dim,) or (dim, B),
    given the zero row it reads for unbound vertices."""
    return _best_to_terminal(dag, np.concatenate((w2, np.zeros((1,) + w2.shape[1:]))))


def _block_paths(dag, w2):
    """Paths of the block DP and walk, one vertex tuple per column of w2."""
    verts = _walk(dag, _dp(dag, w2))
    return [tuple(col[col >= 0].tolist()) for col in verts.T]


def _first_maximizer(dag, w2, paths):
    # Enumeration order is lexicographic; integer weights make the sums exact,
    # so ties are exact and the first maximizer is the lexicographic one.
    sums = [float(w2[p.sorted_support()].sum()) for p in paths]
    return paths[sums.index(max(sums))].vertices


class TestBlockProjection:
    def _instances(self, seed, count=25):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            d = random_dag(rng, max_interior=18, max_paths=2000)
            w = rng.integers(-2, 3, size=(d.dim, 9)).astype(float)
            w[:, 0] = 0.0  # an all-zero column: every path ties
            w[:, 1] = 1.0  # equal weights: ties among equal-length paths
            yield d, w, enumerate_paths(d, cap=2000)

    def test_block_paths_equal_column_loop_and_enumeration(self):
        for d, w, paths in self._instances(211):
            w2 = w * w
            block = _block_paths(d, w2)
            for j in range(w.shape[1]):
                # the 1-D DP that ``project`` runs, through the one walk
                best = _dp(d, w2[:, j])
                single = _walk(d, best[:, None])[:, 0]
                assert block[j] == tuple(single.tolist())
                assert block[j] == _first_maximizer(d, w2[:, j], paths)

    def test_block_matches_project(self):
        for d, w, _ in self._instances(223):
            verts = _walk(d, _dp(d, w * w))
            sup, counts = _sorted_supports(d, verts)
            for j in range(w.shape[1]):
                try:
                    pv = project(d, w[:, j])
                except ValueError:
                    assert counts[j] == 0
                    with pytest.raises(ValueError, match="binds no variables"):
                        _unit_on(w[:, j], sup[:counts[j], j])
                    continue
                if counts[j] == 0:  # the fallback to the first binding path
                    assert pv.degenerate
                    assert pv.path == d._first_bound_path
                    continue
                col = verts[:, j]
                assert tuple(col[col >= 0].tolist()) == pv.path.vertices
                assert np.array_equal(sup[:counts[j], j], pv.path.sorted_support())
                x, degenerate = _unit_on(w[:, j], sup[:counts[j], j])
                assert x.tobytes() == pv.x.tobytes()
                assert degenerate == pv.degenerate
                assert degenerate == (j == 0 or not np.any(w[pv.path.sorted_support(), j]))

    def test_vector_is_the_one_column_block(self):
        # project's (dim,) input runs the 1-D DP, then the same walk,
        # supports and fallback as a block: a column and the one-column
        # block of it give the same arrays, bit for bit
        for d, w, _ in self._instances(227):
            for j in range(w.shape[1]):
                one, block = _paths(d, w[:, j]), _paths(d, w[:, j:j + 1])
                for a, b in zip(one, block):
                    assert (a.dtype, a.shape) == (b.dtype, b.shape)
                    assert a.tobytes() == b.tobytes()
                assert one[2][0] > 0

    def test_block_rejects_a_column_whose_squares_overflow(self):
        w = np.full((4, 3), 0.5)
        w[:, 1] = 1e200
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflow"):
            _paths(diamond(), w)

    def test_bare_column_takes_the_first_bound_path(self):
        # a zero column's tie-break path (0, 1, 5) binds nothing; it takes
        # (0, 2, 3, 4, 5), longer than the block's walk, whose rows and
        # supports grow for it; the other column keeps its path (0, 6, 5)
        d = Dag(7, [(0, 1), (1, 5), (0, 2), (2, 3), (3, 4), (4, 5), (0, 6), (6, 5)],
                0, 5, binding={2: 0, 3: 1, 4: 2, 6: 3})
        w = np.zeros((4, 2))
        w[3, 1] = 1.0
        verts, sup, counts = _paths(d, w)
        assert verts.T.tolist() == [[0, 2, 3, 4, 5], [0, 6, 5, -1, -1]]
        assert counts.tolist() == [3, 1]
        assert sup[:3, 0].tolist() == [0, 1, 2]
        assert sup[:1, 1].tolist() == [3]

    def test_unbound_tie_break_path_raises_in_block(self):
        # only vertex 2 bound: the zero column's tie-break path (0,1,3) binds
        # nothing, while the nonzero column routes through vertex 2
        d = Dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)], 0, 3, binding={2: 0})
        w = np.array([[0.0, 0.5]])
        verts = _walk(d, _dp(d, w * w))
        sup, counts = _sorted_supports(d, verts)
        assert verts.T.tolist() == [[0, 1, 3], [0, 2, 3]]
        assert counts.tolist() == [0, 1]
        assert _unit_on(w[:, 1], sup[:1, 1])[0].tolist() == [1.0]

    def test_paths_of_unequal_length_are_padded(self):
        # the heavy column takes the long branch 0-1-2-4, the other 0-3-4
        d = Dag(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)], 0, 4)
        w2 = np.array([[0, 0], [5, 0], [5, 0], [0, 9], [0, 0]], dtype=float)
        verts = _walk(d, _dp(d, w2))
        assert verts.T.tolist() == [[0, 1, 2, 4], [0, 3, 4, -1]]
        sup, counts = _sorted_supports(d, verts)
        assert counts.tolist() == [4, 3]
        assert sup[:4, 0].tolist() == [0, 1, 2, 4]
        assert sup[:3, 1].tolist() == [0, 3, 4]

    def test_shared_variable_counted_once(self):
        # vertices 1 and 2 both carry variable 0, as Path.support counts it
        d = Dag(4, [(0, 1), (1, 2), (2, 3)], 0, 3, binding={1: 0, 2: 0, 3: 1})
        verts = _walk(d, _dp(d, np.ones((2, 3))))
        sup, counts = _sorted_supports(d, verts)
        assert counts.tolist() == [2, 2, 2]
        assert sup[:2].T.tolist() == [[0, 1]] * 3

    def test_unreachable_terminal_raises(self):
        # vertex 1 is a dead end and the only successor of the source
        d = Dag(3, [(0, 1)], 0, 2)
        with pytest.raises(GraphStructureError, match="unreachable"):
            _walk(d, _dp(d, np.ones((3, 2))))
        with pytest.raises(GraphStructureError, match="unreachable"):
            project(d, np.ones(3))


class TestReferenceDP:
    """``_best_to_terminal`` over the padded neighbour tables, read through
    the plan's ``pos``, equals the ``reduceat`` DP over the reference plan
    (``helpers.reference_best``) bit for bit, and its row V, which the
    tables' sentinel padding reads, is -inf."""

    def check(self, d, w2):
        got, want = _dp(d, w2), reference_best(d, w2)
        assert got.shape == (d.vertex_count + 1,) + w2.shape[1:]
        assert got[d._projection_plan.pos[:-1]].tobytes() == want.tobytes()
        assert np.all(got[-1] == -np.inf)

    def test_random_dags(self):
        rng = np.random.default_rng(229)
        for _ in range(60):
            d = random_dag(rng, max_interior=30)
            w = rng.standard_normal((d.dim, 5))
            self.check(d, w[:, 0] ** 2)
            self.check(d, w * w)

    def test_ties_under_zero_and_identity_weights(self):
        rng = np.random.default_rng(233)
        for _ in range(30):
            d = random_dag(rng, max_interior=24)
            for w2 in (np.zeros(d.dim), np.ones(d.dim), np.zeros((d.dim, 3)),
                       np.eye(d.dim)):
                self.check(d, w2)

    def test_vertices_that_cannot_reach_the_terminal(self):
        # six more vertices, each fed by a vertex of the graph and feeding
        # only later ones among the six: their best is -inf
        rng = np.random.default_rng(239)
        for _ in range(30):
            d = random_dag(rng, max_interior=20)
            n, extra = d.vertex_count, 6
            feeders = [v for v in range(n) if v != d.terminal]
            edges = d.edges().tolist()
            for x in range(n, n + extra):
                edges.append((int(rng.choice(feeders)), x))
                edges += [(x, y) for y in range(x + 1, n + extra) if rng.random() < 0.4]
            g = Dag(n + extra, edges, d.source, d.terminal,
                    binding=np.append(d.binding, np.arange(d.dim, d.dim + extra)),
                    dim=d.dim + extra)
            w = rng.standard_normal((g.dim, 3))
            assert np.all(_dp(g, w * w)[g._projection_plan.pos[n:n + extra]] == -np.inf)
            self.check(g, w[:, 0] ** 2)
            self.check(g, w * w)

    def test_bound_and_unbound_terminal(self):
        # the terminal's position starts at its own weight, or at 0 unbound
        rng = np.random.default_rng(251)
        for _ in range(30):
            d = random_dag(rng, max_interior=20)
            for var in (UNBOUND, d.dim):
                binding = d.binding.copy()
                binding[d.terminal] = var
                g = Dag(d.vertex_count, d.edges(), d.source, d.terminal,
                        binding=binding, dim=d.dim + 1)
                w = rng.standard_normal((g.dim, 3))
                self.check(g, w[:, 0] ** 2)
                self.check(g, w * w)

    def test_dead_ends_before_the_terminal_in_id_order(self):
        # every vertex id moves up by six, and the six dead ends 0..5, each
        # fed by a vertex of the graph, take ids below the terminal's; all
        # but the first bind a variable, yet their best is -inf
        rng = np.random.default_rng(257)
        for _ in range(30):
            d = random_dag(rng, max_interior=20)
            n, extra = d.vertex_count, 6
            feeders = [v for v in range(n) if v != d.terminal]
            edges = (d.edges() + extra).tolist()
            edges += [(int(rng.choice(feeders)) + extra, x) for x in range(extra)]
            binding = np.concatenate(([UNBOUND], np.arange(d.dim, d.dim + extra - 1),
                                      d.binding))
            g = Dag(n + extra, edges, d.source + extra, d.terminal + extra,
                    binding=binding, dim=d.dim + extra - 1)
            w = rng.standard_normal((g.dim, 3))
            assert np.all(_dp(g, w * w)[g._projection_plan.pos[:extra]] == -np.inf)
            self.check(g, w[:, 0] ** 2)
            self.check(g, w * w)
            pv = project(g, w[:, 0])
            assert pv.x @ w[:, 0] == pytest.approx(oracle_best_objective(g, w[:, 0]))

    def test_hub_sharing_its_wave_with_out_degree_one_vertices(self):
        # the hub gets a table of its own, beside its wave's out-degree-1 one
        d = hub_dag()
        assert sorted(tab.shape for _, tab in d._projection_plan.waves[1]) == [
            (1, 1000), (1100, 1)]
        w = np.random.default_rng(241).standard_normal((d.dim, 4))
        self.check(d, w[:, 0] ** 2)
        self.check(d, w * w)
        self.check(d, np.zeros(d.dim))
