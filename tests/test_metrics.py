"""Evaluation metrics: projector distance, support Jaccard, explained variance."""

import numpy as np
import pytest

from pathpca import EvalReport, evaluate, explained_variance, projector_distance, support_jaccard

from helpers import random_psd


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


class TestProjectorDistance:
    def test_equal_vectors(self):
        x = unit([1, 2, 3])
        assert projector_distance(x, x) == 0.0

    def test_sign_invariant(self):
        x = unit([1, -2, 0.5])
        assert projector_distance(x, -x) == 0.0

    def test_orthogonal_vectors(self):
        e0 = np.array([1.0, 0.0])
        e1 = np.array([0.0, 1.0])
        assert projector_distance(e0, e1) == np.sqrt(2.0)

    def test_known_angle(self):
        # 45 degrees: sqrt(2 - 2*(1/2)) = 1
        a = np.array([1.0, 0.0])
        b = unit([1.0, 1.0])
        assert projector_distance(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_matches_frobenius_definition(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            a = unit(rng.standard_normal(17))
            b = unit(rng.standard_normal(17))
            direct = float(np.linalg.norm(np.outer(a, a) - np.outer(b, b), "fro"))
            assert projector_distance(a, b) == pytest.approx(direct, abs=1e-12)

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(103)
        for _ in range(20):
            a, b, c = (unit(rng.standard_normal(9)) for _ in range(3))
            assert projector_distance(a, b) == projector_distance(b, a)
            assert projector_distance(a, c) <= (projector_distance(a, b)
                                                + projector_distance(b, c) + 1e-12)

    def test_clamped_at_parallel_rounding(self):
        # inner product can exceed 1 by rounding; the distance must not go NaN
        x = unit(np.full(50, 0.1))
        assert projector_distance(x, x.copy()) >= 0.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            projector_distance(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            projector_distance(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("bad", ["x_hat", "x_star"])
    def test_rejects_a_nan_vector(self, bad):
        # a NaN norm passes the unit-norm test, and a NaN inner product would
        # come out of the clamp as a loss of 0.0
        x = unit([1.0, 2.0, 2.0])
        nan = np.array([np.nan, 0.0, 0.0])
        args = (nan, x) if bad == "x_hat" else (x, nan)
        with pytest.raises(ValueError, match=f"{bad} must be finite"):
            projector_distance(*args)


class TestSupportJaccard:
    def test_identical_supports(self):
        x = np.array([0.5, 0.0, -0.5])
        assert support_jaccard(x, x) == 0.0

    def test_disjoint_supports(self):
        assert support_jaccard(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_partial_overlap(self):
        a = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0])
        b = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
        assert support_jaccard(a, b) == pytest.approx(1.0 - 2.0 / 6.0, abs=1e-15)

    def test_empty_supports(self):
        z = np.zeros(4)
        assert support_jaccard(z, z) == 0.0
        assert support_jaccard(z, np.array([1.0, 0, 0, 0])) == 1.0

    def test_zero_tolerance_threshold(self):
        a = np.array([1.0, 1e-13, 0.0])
        b = np.array([1.0, 0.0, 0.0])
        assert support_jaccard(a, b) == 0.0          # 1e-13 below default tol
        assert support_jaccard(a, b, zero_tol=1e-14) == 0.5

    def test_values_do_not_matter_only_supports(self):
        a = np.array([100.0, -3.0, 0.0])
        b = np.array([0.001, 7.0, 0.0])
        assert support_jaccard(a, b) == 0.0


class TestExplainedVariance:
    def test_eigenvector_attains_eigenvalue(self):
        rng = np.random.default_rng(107)
        s = random_psd(8, rng)
        evals, evecs = np.linalg.eigh(s)
        got = explained_variance(evecs[:, -1], s)
        assert got == pytest.approx(float(evals[-1]), rel=1e-12)

    def test_bounded_by_top_eigenvalue(self):
        rng = np.random.default_rng(109)
        s = random_psd(10, rng)
        lam = float(np.linalg.eigvalsh(s)[-1])
        for _ in range(20):
            x = unit(rng.standard_normal(10))
            assert explained_variance(x, s) <= lam + 1e-10

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            explained_variance(np.ones(3), np.eye(4))


class TestEvaluate:
    def test_bundles_the_three_metrics(self):
        rng = np.random.default_rng(113)
        s = random_psd(6, rng)
        a = unit(rng.standard_normal(6))
        b = unit(rng.standard_normal(6))
        rep = evaluate(a, b, s)
        assert isinstance(rep, EvalReport)
        assert rep.projector_loss == projector_distance(a, b)
        assert rep.jaccard == support_jaccard(a, b)
        assert rep.explained_variance == explained_variance(a, s)

    @pytest.mark.parametrize("bad", ["x_hat", "x_star"])
    def test_rejects_a_nan_vector(self, bad):
        x = unit([1.0, 2.0, 2.0])
        nan = np.array([0.0, np.nan, 0.0])
        args = (nan, x) if bad == "x_hat" else (x, nan)
        with pytest.raises(ValueError, match=f"{bad} must be finite"):
            evaluate(*args, np.eye(3))
