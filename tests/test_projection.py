"""The longest-weighted-path DP and the path-support projection."""

import numpy as np
import pytest

from pathpca import (Dag, GraphStructureError, build_layer_graph, enumerate_paths,
                     is_st_path, project)
from pathpca.projection import (_best_to_terminal, _sorted_supports, _unit_on,
                                _vertex_weights, _walk)

from helpers import assert_feasible, oracle_best_objective, random_dag


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


def _block_paths(dag, w2):
    """Paths of the block DP and walk, one vertex tuple per column of w2."""
    verts = _walk(dag, _best_to_terminal(dag, _vertex_weights(dag, w2)))
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
                # the 1-D DP and walk that ``project`` runs
                single = _walk(d, _best_to_terminal(d, _vertex_weights(d, w2[:, j])))
                assert block[j] == tuple(single.tolist())
                assert block[j] == _first_maximizer(d, w2[:, j], paths)

    def test_block_matches_project(self):
        for d, w, _ in self._instances(223):
            verts = _walk(d, _best_to_terminal(d, _vertex_weights(d, w * w)))
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

    def test_unbound_tie_break_path_raises_in_block(self):
        # only vertex 2 bound: the zero column's tie-break path (0,1,3) binds
        # nothing, while the nonzero column routes through vertex 2
        d = Dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)], 0, 3, binding={2: 0})
        w = np.array([[0.0, 0.5]])
        verts = _walk(d, _best_to_terminal(d, _vertex_weights(d, w * w)))
        sup, counts = _sorted_supports(d, verts)
        assert verts.T.tolist() == [[0, 1, 3], [0, 2, 3]]
        assert counts.tolist() == [0, 1]
        with pytest.raises(ValueError, match="binds no variables"):
            _unit_on(w[:, 0], sup[:0, 0])
        assert _unit_on(w[:, 1], sup[:1, 1])[0].tolist() == [1.0]

    def test_paths_of_unequal_length_are_padded(self):
        # the heavy column takes the long branch 0-1-2-4, the other 0-3-4
        d = Dag(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)], 0, 4)
        w2 = np.array([[0, 0], [5, 0], [5, 0], [0, 9], [0, 0]], dtype=float)
        verts = _walk(d, _best_to_terminal(d, _vertex_weights(d, w2)))
        assert verts.T.tolist() == [[0, 1, 2, 4], [0, 3, 4, -1]]
        sup, counts = _sorted_supports(d, verts)
        assert counts.tolist() == [4, 3]
        assert sup[:4, 0].tolist() == [0, 1, 2, 4]
        assert sup[:3, 1].tolist() == [0, 3, 4]

    def test_shared_variable_counted_once(self):
        # vertices 1 and 2 both carry variable 0, as Path.support counts it
        d = Dag(4, [(0, 1), (1, 2), (2, 3)], 0, 3, binding={1: 0, 2: 0, 3: 1})
        verts = _walk(d, _best_to_terminal(d, _vertex_weights(d, np.ones((2, 3)))))
        sup, counts = _sorted_supports(d, verts)
        assert counts.tolist() == [2, 2, 2]
        assert sup[:2].T.tolist() == [[0, 1]] * 3

    def test_unreachable_terminal_raises(self):
        # vertex 1 is a dead end and the only successor of the source
        d = Dag(3, [(0, 1)], 0, 2)
        with pytest.raises(GraphStructureError, match="unreachable"):
            _walk(d, _best_to_terminal(d, _vertex_weights(d, np.ones((3, 2)))))
        with pytest.raises(GraphStructureError, match="unreachable"):
            project(d, np.ones(3))
