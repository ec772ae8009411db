"""Synthetic data generation: spiked model, covariances, path vectors."""

import numpy as np
import pytest

from pathpca import (
    NumericError,
    SpikedModelParams,
    build_layer_graph,
    covariance_with_spectrum,
    empirical_covariance,
    enumerate_paths,
    gaussian_sampler,
    is_st_path,
    low_rank_factor,
    prepare_covariance,
    random_path_vector,
    sample_spiked,
)

from helpers import random_psd


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def spectral_norm(a):
    return float(np.abs(np.linalg.eigvalsh((a + a.T) * 0.5)).max())


class TestSpikedModel:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            SpikedModelParams(x_star=np.array([1.0, 1.0]), beta=1.0)  # not unit
        with pytest.raises(ValueError):
            SpikedModelParams(x_star=unit([1, 2]), beta=-0.5)
        with pytest.raises(ValueError):
            SpikedModelParams(x_star=np.array([[1.0]]), beta=1.0)
        p = SpikedModelParams(x_star=unit([3, 4]), beta=2.0)
        assert p.dim == 2

    def test_sampling_shape_and_determinism(self):
        params = SpikedModelParams(x_star=unit([1, 2, 2]), beta=1.5)
        a = sample_spiked(params, 8, seed=42)
        b = sample_spiked(params, 8, seed=42)
        assert a.shape == (3, 8)
        assert np.array_equal(a, b)
        c = sample_spiked(params, 8, seed=43)
        assert not np.array_equal(a, c)

    def test_columns_are_prefix_stable(self):
        # column i depends only on (seed, i), so extending n keeps old columns
        params = SpikedModelParams(x_star=unit([1, 2, 2]), beta=1.0)
        small = sample_spiked(params, 5, seed=7)
        large = sample_spiked(params, 11, seed=7)
        assert np.array_equal(small, large[:, :5])

    def test_tuple_seed_distinct_from_int_seed_tail(self):
        params = SpikedModelParams(x_star=unit([1, 1]), beta=0.0)
        a = sample_spiked(params, 4, seed=(3, 5))
        b = sample_spiked(params, 4, seed=(3, 6))
        assert not np.array_equal(a, b)

    def test_empirical_covariance_approaches_population(self):
        p = 8
        x = unit(np.arange(1, p + 1))
        beta = 1.0
        params = SpikedModelParams(x_star=x, beta=beta)
        y = sample_spiked(params, 60000, seed=0)
        sigma_hat = empirical_covariance(y)
        sigma = np.eye(p) + beta * np.outer(x, x)
        assert spectral_norm(sigma_hat - sigma) < 0.06

    def test_beta_zero_is_pure_noise(self):
        params = SpikedModelParams(x_star=unit([1, 0, 0]), beta=0.0)
        y = sample_spiked(params, 30000, seed=1)
        assert spectral_norm(empirical_covariance(y) - np.eye(3)) < 0.05

    def test_error_roughly_halves_when_n_quadruples(self):
        p = 8
        x = unit(np.arange(1, p + 1))
        params = SpikedModelParams(x_star=x, beta=1.0)
        sigma = np.eye(p) + np.outer(x, x)
        medians = []
        for n in (250, 1000, 4000):
            errs = [spectral_norm(empirical_covariance(
                sample_spiked(params, n, seed=(43, n, t))) - sigma)
                for t in range(40)]
            medians.append(np.median(errs))
        # sqrt(p/n) rate: each quadrupling should halve the error, give or
        # take a factor of 2 either way
        for big, small in zip(medians, medians[1:]):
            assert 1.0 <= big / small <= 4.0


class TestEmpiricalCovariance:
    def test_matches_direct_formula_and_is_symmetric(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal((6, 20))
        c = empirical_covariance(y)
        np.testing.assert_allclose(c, y @ y.T / 20, rtol=1e-14)
        assert np.array_equal(c, c.T)
        assert np.linalg.eigvalsh(c).min() > -1e-10

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            empirical_covariance(np.ones(5))
        with pytest.raises(NumericError):
            empirical_covariance(np.array([[1.0, np.nan]]))


class TestLowRankFactor:
    def test_full_rank_reconstructs(self):
        rng = np.random.default_rng(4)
        s = random_psd(12, rng)
        v = low_rank_factor(s, 12)
        np.testing.assert_allclose(v @ v.T, s, atol=1e-10 * spectral_norm(s))

    def test_truncation_matches_eigendecomposition(self):
        rng = np.random.default_rng(5)
        s = random_psd(10, rng)
        evals, evecs = np.linalg.eigh(s)
        best3 = (evecs[:, -3:] * evals[-3:]) @ evecs[:, -3:].T
        v = low_rank_factor(s, 3)
        assert v.shape == (10, 3)
        np.testing.assert_allclose(v @ v.T, best3, atol=1e-10)

    def test_columns_orthogonal_and_ordered(self):
        rng = np.random.default_rng(6)
        v = low_rank_factor(random_psd(9, rng), 4)
        gram = v.T @ v
        np.testing.assert_allclose(gram, np.diag(np.diag(gram)), atol=1e-10)
        norms = np.diag(gram)
        assert np.all(np.diff(norms) <= 1e-12)

    def test_sign_convention_largest_entry_positive(self):
        rng = np.random.default_rng(7)
        v = low_rank_factor(random_psd(9, rng), 3)
        for j in range(3):
            col = v[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        s = random_psd(7, rng)
        assert np.array_equal(low_rank_factor(s, 2), low_rank_factor(s, 2))

    def test_small_negative_eigenvalues_clamped(self):
        s = np.diag([1.0, 0.0, 0.0])
        s[1, 1] = -1e-12  # numerically zero
        v = low_rank_factor(s, 3)
        assert np.all(np.isfinite(v))
        assert np.linalg.norm(v[:, 1]) == 0.0

    def test_rejects_indefinite_and_bad_rank(self):
        with pytest.raises(NumericError):
            low_rank_factor(np.diag([1.0, -0.5]), 2)
        with pytest.raises(NumericError):  # the dropped eigenvalue is checked too
            low_rank_factor(np.diag([1.0, -0.5]), 1)
        with pytest.raises(NumericError):
            low_rank_factor(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)  # asymmetric
        s = np.eye(3)
        with pytest.raises(ValueError):
            low_rank_factor(s, 0)
        with pytest.raises(ValueError):
            low_rank_factor(s, 4)


class TestPrepareCovariance:
    def test_symmetrizes_and_keeps_eigenpairs(self):
        s = random_psd(5, np.random.default_rng(3))
        s[0, 1] += 1e-12
        cov = prepare_covariance(s, 5)
        assert cov.dim == 5
        assert np.array_equal(cov.matrix, cov.matrix.T)
        np.testing.assert_allclose(
            (cov.evecs * cov.evals) @ cov.evecs.T, cov.matrix, atol=1e-12)
        assert np.all(np.diff(cov.evals) >= 0)
        for a in (cov.matrix, cov.evals, cov.evecs):
            assert not a.flags.writeable

    def test_prepared_value_passes_through(self):
        cov = prepare_covariance(np.eye(3))
        assert prepare_covariance(cov) is cov
        assert prepare_covariance(cov, 3) is cov
        with pytest.raises(ValueError, match="expected 4"):
            prepare_covariance(cov, 4)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            prepare_covariance(np.ones(3))
        with pytest.raises(ValueError):
            prepare_covariance(np.eye(3), 2)
        with pytest.raises(NumericError):
            prepare_covariance(np.array([[1.0, np.inf], [np.inf, 1.0]]))
        with pytest.raises(NumericError):
            prepare_covariance(np.array([[1.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(NumericError, match="positive semidefinite"):
            prepare_covariance(np.diag([1.0, -0.5]))

    def test_psd_tolerance_is_relative_to_the_top_eigenvalue(self):
        # slack is 1e-8 * max(1, lambda_max)
        prepare_covariance(np.diag([100.0, -0.9e-6]))
        prepare_covariance(np.diag([0.5, -0.9e-8]))
        with pytest.raises(NumericError):
            prepare_covariance(np.diag([100.0, -1.1e-6]))
        with pytest.raises(NumericError):
            prepare_covariance(np.diag([0.5, -1.1e-8]))

    def test_samplers_accept_the_prepared_value(self):
        s = random_psd(4, np.random.default_rng(5))
        cov = prepare_covariance(s)
        assert np.array_equal(low_rank_factor(cov, 2), low_rank_factor(s, 2))
        assert np.array_equal(gaussian_sampler(cov, 3, seed=1),
                              gaussian_sampler(s, 3, seed=1))


class TestCovarianceWithSpectrum:
    def test_spectrum_and_leading_direction(self):
        rng = np.random.default_rng(11)
        x = unit(rng.standard_normal(9))
        lam = (1.0 + np.arange(9)) ** -0.25
        sigma = covariance_with_spectrum(x, lam)
        evals = np.linalg.eigvalsh(sigma)[::-1]
        np.testing.assert_allclose(evals, lam, atol=1e-10)
        _, evecs = np.linalg.eigh(sigma)
        top = evecs[:, -1]
        assert abs(float(top @ x)) == pytest.approx(1.0, abs=1e-8)
        assert np.array_equal(sigma, sigma.T)

    def test_axis_aligned_direction_gives_diagonal(self):
        lam = np.array([2.0, 1.0, 0.5])
        sigma = covariance_with_spectrum(np.array([1.0, 0.0, 0.0]), lam)
        np.testing.assert_allclose(sigma, np.diag(lam), atol=1e-14)

    def test_rejects_bad_spectra(self):
        x = unit([1, 1, 1])
        with pytest.raises(ValueError):
            covariance_with_spectrum(x, [1.0, 1.0, 0.5])  # no strict gap
        with pytest.raises(ValueError):
            covariance_with_spectrum(x, [1.0, 0.5, 0.7])  # not nonincreasing
        with pytest.raises(ValueError):
            covariance_with_spectrum(x, [1.0, 0.5, -0.1])  # not positive
        with pytest.raises(ValueError):
            covariance_with_spectrum(np.array([1.0, 1.0, 1.0]), [2.0, 1.0, 0.5])


class TestGaussianSampler:
    def test_shape_and_determinism(self):
        sigma = np.eye(4)
        a = gaussian_sampler(sigma, 6, seed=3)
        assert a.shape == (4, 6)
        assert np.array_equal(a, gaussian_sampler(sigma, 6, seed=3))
        assert np.array_equal(a[:, :2], gaussian_sampler(sigma, 2, seed=3))

    def test_covariance_matches_target(self):
        rng = np.random.default_rng(13)
        x = unit(rng.standard_normal(6))
        sigma = covariance_with_spectrum(x, (1.0 + np.arange(6)) ** -0.25)
        y = gaussian_sampler(sigma, 50000, seed=5)
        assert spectral_norm(empirical_covariance(y) - sigma) < 0.05

    def test_rejects_non_psd(self):
        with pytest.raises(NumericError):
            gaussian_sampler(np.diag([1.0, -0.2]), 3)


class TestRandomPathVector:
    def test_support_is_a_path_and_unit_norm(self):
        dag = build_layer_graph(12, 2, 5)
        x, path = random_path_vector(dag, seed=0)
        assert is_st_path(dag, path.vertices)
        assert abs(np.linalg.norm(x) - 1.0) < 1e-12
        assert set(np.flatnonzero(x).tolist()) == path.support

    def test_membership_in_enumerated_paths(self):
        dag = build_layer_graph(12, 2, 5)
        all_paths = {p.vertices for p in enumerate_paths(dag, cap=25)}
        for s in range(20):
            _, path = random_path_vector(dag, seed=s)
            assert path.vertices in all_paths

    def test_deterministic(self):
        dag = build_layer_graph(18, 4, 4)
        x1, p1 = random_path_vector(dag, seed=9)
        x2, p2 = random_path_vector(dag, seed=9)
        assert np.array_equal(x1, x2)
        assert p1 == p2

    def test_roughly_uniform_over_paths(self):
        dag = build_layer_graph(12, 2, 5)  # 25 paths, expected freq 80
        counts = {}
        for s in range(2000):
            _, path = random_path_vector(dag, seed=(1000, s))
            counts[path.vertices] = counts.get(path.vertices, 0) + 1
        assert len(counts) == 25
        assert min(counts.values()) > 40
        assert max(counts.values()) < 130
