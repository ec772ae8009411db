"""Synthetic data generation: spiked model, covariances, path vectors."""

import numpy as np
import pytest

from pathpca import (
    Covariance,
    Dag,
    NumericError,
    SpikedModelParams,
    build_layer_graph,
    count_paths,
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

from pathpca import data
from pathpca.data import _uniform_below

from helpers import count_factorizations, random_dag, random_psd


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

    @pytest.mark.parametrize("beta", [np.inf, np.nan])
    def test_beta_must_be_finite(self, beta):
        with pytest.raises(ValueError, match="beta must be nonnegative and finite"):
            SpikedModelParams(x_star=unit([3, 4]), beta=beta)

    def test_sampling_shape_and_determinism(self):
        params = SpikedModelParams(x_star=unit([1, 2, 2]), beta=1.5)
        a = sample_spiked(params, 8, seed=42)
        b = sample_spiked(params, 8, seed=42)
        assert a.shape == (3, 8)
        assert np.array_equal(a, b)
        c = sample_spiked(params, 8, seed=43)
        assert not np.array_equal(a, c)

    def test_samplers_need_one_sample(self):
        params = SpikedModelParams(x_star=unit([1, 2, 2]), beta=1.0)
        with pytest.raises(ValueError, match="n must be at least 1"):
            sample_spiked(params, 0)
        with pytest.raises(ValueError, match="n must be at least 1"):
            gaussian_sampler(np.eye(3), 0)

    def test_columns_are_prefix_stable(self):
        # column i is row i of one draw filled in order, so extending n
        # keeps the old columns
        params = SpikedModelParams(x_star=unit([1, 2, 2]), beta=1.0)
        small = sample_spiked(params, 5, seed=7)
        large = sample_spiked(params, 11, seed=7)
        assert np.array_equal(small, large[:, :5])

    def test_columns_are_rows_of_one_draw(self):
        # one generator keyed by the seed fills an (n, p + 1) block: row i
        # is column i's spike coefficient u_i, then its noise z_i; with
        # sigma = I, gaussian_sampler's column i is row i of an (n, p) block
        x = unit([1, 2, 2])
        y = sample_spiked(SpikedModelParams(x_star=x, beta=1.5), 4, seed=(7, 1))
        g = np.random.default_rng((7, 1)).standard_normal((4, 4))
        for i in (0, 3):
            want = x * g[i, 0] * np.sqrt(1.5) + g[i, 1:]
            assert y[:, i].tobytes() == want.tobytes()
        y = gaussian_sampler(np.eye(3), 4, seed=(7, 1))
        g = np.random.default_rng((7, 1)).standard_normal((4, 3))
        for i in (0, 3):
            assert y[:, i].tobytes() == g[i].tobytes()

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


def _sample_sets():
    """(name, Y): random, rank-deficient, one-sample and all-zero samples, on
    both sides of the 2n <= p rule."""
    rng = np.random.default_rng(29)
    low = rng.standard_normal((9, 2)) @ rng.standard_normal((2, 12))
    return [("random-wide", rng.standard_normal((10, 4))),
            ("random-tall", rng.standard_normal((6, 20))),
            ("rank-deficient", low), ("rank-deficient-few", low[:, :4]),
            ("one-sample", rng.standard_normal((7, 1))),
            ("all-zero", np.zeros((6, 2))), ("all-zero-many", np.zeros((6, 5)))]


class TestFromSamples:
    @pytest.mark.parametrize("name,y", _sample_sets())
    def test_matrix_is_that_of_the_gated_route(self, name, y):
        cov = Covariance.from_samples(y, y.shape[0])
        ref = prepare_covariance(empirical_covariance(y))
        assert cov.matrix.tobytes() == ref.matrix.tobytes()
        assert not cov.matrix.flags.writeable
        assert not cov.decomposed

    def test_no_gate_and_no_eigh(self, monkeypatch):
        y = np.random.default_rng(31).standard_normal((8, 3))
        counts = count_factorizations(monkeypatch, 8)
        Covariance.from_samples(y)
        assert counts == {"eigh": 0, "cholesky": 0}

    @pytest.mark.parametrize("p,n,kept", [(8, 4, True), (8, 5, False),
                                          (8, 1, True), (3, 2, False),
                                          (2, 1, True)])
    def test_keeps_a_copy_of_the_samples_only_when_2n_le_p(self, p, n, kept):
        # the kept samples are never larger than half the matrix
        y = np.random.default_rng(p * 10 + n).standard_normal((p, n))
        cov = Covariance.from_samples(y)
        if not kept:
            assert cov.samples is None
            return
        assert np.array_equal(cov.samples, y)
        assert not np.shares_memory(cov.samples, y)
        assert not cov.samples.flags.writeable
        assert 2 * cov.samples.size <= cov.matrix.size
        y[0, 0] += 1.0  # the caller's array stays the caller's
        assert cov.samples[0, 0] != y[0, 0]

    def test_rejects_what_the_gated_route_rejects(self):
        with pytest.raises(ValueError, match="5-dimensional, expected 4"):
            Covariance.from_samples(np.ones((5, 2)), 4)
        with pytest.raises(ValueError):
            Covariance.from_samples(np.ones(5))
        with pytest.raises(NumericError, match="samples contain non-finite"):
            Covariance.from_samples(np.array([[1.0, np.inf], [0.0, 1.0]]))
        with np.errstate(over="ignore"):
            for y, message in ((np.full((4, 1), 5e153), "too large"),
                               (np.full((4, 3), 1e155), "non-finite")):
                with pytest.raises(NumericError, match=message) as got:
                    Covariance.from_samples(y)
                with pytest.raises(NumericError) as want:
                    prepare_covariance(empirical_covariance(y))
                assert str(got.value) == str(want.value)


class TestFactorOfSampleCovariances:
    """The factor of a covariance built from its samples, at the edges: all-zero
    samples, one sample, and a rank above the sample count. With 2n <= p the
    top pairs come from the n x n Gram matrix, and agree with ``eigh``'s."""

    def test_all_zero_samples_give_an_all_zero_factor(self):
        y = np.zeros((6, 2))
        ref = low_rank_factor(empirical_covariance(y), 2)
        assert ref.shape == (6, 2)
        assert np.all(ref == 0.0)
        cov = Covariance.from_samples(y)
        assert cov.samples is not None  # the Gram route
        assert np.array_equal(low_rank_factor(cov, 2), ref)

    @pytest.mark.parametrize("n", [1, 3])
    def test_rank_up_to_and_above_the_sample_count(self, n):
        y = np.random.default_rng(30 + n).standard_normal((8, n))
        s = empirical_covariance(y)
        lam_max = float(np.linalg.eigvalsh(s)[-1])
        v = low_rank_factor(s, n)
        np.testing.assert_allclose(v @ v.T, s, rtol=0, atol=1e-12 * lam_max)
        more = low_rank_factor(s, n + 2)
        assert np.array_equal(more[:, :n], v)
        # S has rank n: the extra columns carry eigenvalues of order rounding
        assert np.linalg.norm(more[:, n:]) <= 1e-6 * np.sqrt(lam_max)
        cov = Covariance.from_samples(y)
        gram = low_rank_factor(cov, n)  # rank <= n: the Gram route
        np.testing.assert_allclose(gram, v, rtol=0, atol=1e-12 * lam_max)
        assert np.array_equal(low_rank_factor(cov, n + 2), more)  # eigh route

    @pytest.mark.parametrize("p,n", [(14, 5), (66, 20), (130, 40), (200, 100)])
    def test_gram_route_agrees_with_eigh(self, monkeypatch, p, n):
        x = np.zeros(p)
        x[:4] = 0.5
        y = sample_spiked(SpikedModelParams(x, 2.0), n, seed=p)
        ref = prepare_covariance(empirical_covariance(y))
        lam_max = float(ref.evals[-1])
        counts = count_factorizations(monkeypatch, p)
        cov = Covariance.from_samples(y)
        for rank in (1, 2, n):
            got, want = low_rank_factor(cov, rank), low_rank_factor(ref, rank)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * lam_max)
            assert np.all(got[np.argmax(np.abs(got), axis=0), np.arange(rank)] > 0)
        assert cov.decomposed
        assert counts == {"eigh": 0, "cholesky": 0}  # no p x p eigh
        low_rank_factor(cov, n + 1)  # above n the matrix is decomposed
        assert counts == {"eigh": 1, "cholesky": 0}


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


def test_non_finite_entries_are_found_by_the_scale_pass():
    # NaN propagates through the max that sets the scale, so a NaN next to
    # an entry too large for float arithmetic still reads as non-finite
    big = np.finfo(float).max / 2
    for bad in (np.nan, np.inf, -np.inf):
        for s in (np.array([[big, bad], [bad, 1.0]]),
                  np.array([[bad, big], [big, 1.0]])):
            with pytest.raises(NumericError, match="non-finite"):
                prepare_covariance(s)


def test_entries_that_could_overflow_are_rejected():
    # symmetrizing [[1e308, 0], [0, 1]] as (s + s.T) / 2 would hold inf
    with pytest.raises(NumericError, match="too large"):
        prepare_covariance(np.array([[1e308, 0.0], [0.0, 1.0]]))
    # at the largest accepted scale, float max / 2p, the matrix and its top
    # Rayleigh quotient stay finite
    top = np.finfo(float).max / 4
    cov = prepare_covariance(np.full((2, 2), top))
    assert np.all(np.isfinite(cov.matrix))
    x = np.full(2, np.sqrt(0.5))
    assert np.isfinite(x @ cov.matrix @ x)


def _eigh_rule(s):
    """The PSD rule read off a full eigendecomposition of the symmetrized s."""
    evals = np.linalg.eigh((s + s.T) * 0.5)[0]
    return bool(evals[0] >= -1e-8 * max(1.0, float(evals[-1])))


def _accepted(s):
    try:
        prepare_covariance(s)
    except NumericError as exc:
        assert "positive semidefinite" in str(exc)
        return False
    return True


def _with_spectrum(lam, rng):
    q, _ = np.linalg.qr(rng.standard_normal((lam.size, lam.size)))
    s = (q * lam) @ q.T
    return (s + s.T) * 0.5


SCALES = 10.0 ** np.arange(-6, 7)


class TestPsdGate:
    """The Cholesky gate decides the same PSD rule as eigh, without it on
    clear cases."""

    def test_psd_and_rank_deficient_matrices_are_accepted_by_the_gate(self):
        rng = np.random.default_rng(2013)
        for scale in SCALES:
            for p in (1, 3, 8, 40):
                n = max(1, p // 4)  # n < p: rank deficient for p > 1
                cases = [random_psd(p, rng, scale), np.zeros((p, p)),
                         empirical_covariance(rng.standard_normal((p, n))) * scale]
                for s in cases:
                    assert _eigh_rule(s)
                    assert data._psd_by_cholesky(s) is True, (scale, p)
                    assert _accepted(s)

    def test_clearly_indefinite_matrices_are_rejected_by_the_gate(self):
        rng = np.random.default_rng(2014)
        for scale in SCALES:
            t = 1e-8 * max(1.0, scale)
            for p in (2, 5, 30):
                for f in (3.0, 10.0, 1e4):
                    lam = np.linspace(scale, 0.0, p)
                    lam[-1] = -f * p * t  # below -2 * tau_hi
                    s = _with_spectrum(lam, rng)
                    assert not _eigh_rule(s)
                    assert data._psd_by_cholesky(s) is False, (scale, p, f)
                    assert not _accepted(s)

    def test_verdict_equals_the_eigh_rule_near_the_threshold(self):
        # lambda_min at (1 +- 1e-3) and a few other multiples of the
        # threshold t = 1e-8 * max(1, lambda_max), diagonal and rotated
        rng = np.random.default_rng(2015)
        undecided = 0
        for scale in SCALES:
            t = 1e-8 * max(1.0, scale)
            for f in (0.1, 0.4, 0.999, 1.001, 1.5, 2.5, 10.0):
                for p in (2, 6):
                    lam = np.linspace(scale, 0.0, p)
                    lam[-1] = -f * t
                    for s in (np.diag(lam), _with_spectrum(lam, rng)):
                        want = f < 1.0
                        assert _eigh_rule(s) == want
                        gate = data._psd_by_cholesky(s)
                        assert gate in (None, want), (scale, f, p)
                        undecided += gate is None
                        assert _accepted(s) == want, (scale, f, p)
        assert undecided > 0  # the eigh fallback is exercised


class TestLazyEigenpairs:
    def test_computed_on_first_read_bit_identical_and_read_only(self):
        cov = prepare_covariance(random_psd(6, np.random.default_rng(21)))
        assert cov.dim == 6
        assert not cov.decomposed
        evals, evecs = np.linalg.eigh(cov.matrix)
        assert cov.evals.tobytes() == evals.tobytes()
        assert cov.evecs.tobytes() == evecs.tobytes()
        assert cov.decomposed
        assert cov.evals is cov.evals and cov.evecs is cov.evecs
        for a in (cov.matrix, cov.evals, cov.evecs):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1.0

    def test_gate_counts(self, monkeypatch):
        s = random_psd(7, np.random.default_rng(22))
        counts = count_factorizations(monkeypatch, 7)
        cov = prepare_covariance(s)
        assert counts == {"eigh": 0, "cholesky": 1}
        assert not cov.decomposed
        cov.evecs
        assert cov.decomposed  # flips on the first read
        cov.evals
        assert counts == {"eigh": 1, "cholesky": 1}
        for _ in range(3):  # one eigh serves every later read
            assert cov.evals is cov.evals and cov.evecs is cov.evecs
        assert counts == {"eigh": 1, "cholesky": 1}

    def test_undecided_matrix_keeps_the_pairs_of_its_eigh(self, monkeypatch):
        counts = count_factorizations(monkeypatch, 2)
        cov = prepare_covariance(np.diag([1.0, -0.9e-8]))
        assert counts == {"eigh": 1, "cholesky": 2}
        assert cov.decomposed
        assert cov.evals.tobytes() == np.linalg.eigh(cov.matrix)[0].tobytes()

    def test_spectrum_readers_gate_once_and_decompose_once(self, monkeypatch):
        # a raw matrix is validated by the gate, then decomposed on the
        # reader's first read of the eigenpairs
        s = random_psd(5, np.random.default_rng(23))
        counts = count_factorizations(monkeypatch, 5)
        for read in (lambda: low_rank_factor(s, 2),
                     lambda: gaussian_sampler(s, 3, seed=1),
                     lambda: prepare_covariance(s).evecs):
            before = dict(counts)
            read()
            assert counts == {"eigh": before["eigh"] + 1,
                              "cholesky": before["cholesky"] + 1}
        cov = prepare_covariance(s)
        low_rank_factor(cov, 2)
        gaussian_sampler(cov, 3, seed=1)
        assert counts == {"eigh": 4, "cholesky": 4}  # one eigh per covariance
        for read in (lambda m: low_rank_factor(m, 1),
                     lambda m: gaussian_sampler(m, 1)):
            with pytest.raises(NumericError, match="positive semidefinite"):
                read(np.diag([1.0, -0.5]))


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
        with pytest.raises(ValueError, match="as long as x_star"):
            covariance_with_spectrum(x, [2.0, 1.0])


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


def _chi2_upper(df, z=3.0902):
    # Wilson-Hilferty approximation of the chi-square quantile at 1 - 0.001
    # (z is the standard normal quantile); slightly conservative at small df.
    h = 2.0 / (9.0 * df)
    return df * (1.0 - h + z * np.sqrt(h)) ** 3


def _chi2(counts, expected):
    counts = np.asarray(counts, dtype=float)
    return float(((counts - expected) ** 2 / expected).sum())


class TestExactPathDraws:
    def test_small_totals_keep_the_integers_stream(self):
        # below 2^63 the draw is rng.integers(tot), so old seeds reproduce
        for tot in (1, 7, 2**40 + 3, 2**63 - 1):
            a, b = np.random.default_rng(5), np.random.default_rng(5)
            assert [_uniform_below(a, tot) for _ in range(20)] == \
                   [int(b.integers(tot)) for _ in range(20)]

    def test_huge_total_in_range_repeatable_and_full_precision(self):
        tot = 2**80 + 1
        draws = [_uniform_below(np.random.default_rng((77, i)), tot) for i in range(200)]
        assert all(0 <= r < tot for r in draws)
        assert draws == [_uniform_below(np.random.default_rng((77, i)), tot)
                         for i in range(200)]
        # a float draw int(u * tot) has 53 bits, so its low 27 bits are zero
        low = {r & (2**27 - 1) for r in draws}
        assert len(low) > 150
        assert max(draws) > tot // 2 > min(draws)

    def test_huge_total_is_uniform(self):
        # 3 * 2^63 needs 65 bits: a quarter of the tries are rejected, and
        # the three top-level buckets r // 2^63 must come out equally often
        rng = np.random.default_rng(19)
        draws = [_uniform_below(rng, 3 * 2**63) for _ in range(3000)]
        counts = np.bincount([r >> 63 for r in draws], minlength=3)
        assert counts.size == 3
        assert _chi2(counts, 1000.0) < _chi2_upper(2)

    def test_random_path_vector_chi_square(self):
        # an irregular DAG: successors carry unequal path counts; and one
        # whose first two paths, (0, 1, 3, 6, 7) and (0, 1, 3, 7), bind
        # nothing, nor do (0, 1, 7) and (0, 7): draws are uniform over the
        # paths that bind a variable
        irregular = random_dag(np.random.default_rng(4), max_interior=10, max_paths=40)
        sparse = Dag(8, [(0, 1), (0, 2), (0, 7), (1, 3), (1, 4), (1, 7), (3, 6),
                         (3, 7), (6, 7), (2, 4), (2, 5), (2, 7), (4, 7), (5, 7)],
                     0, 7, binding={4: 0, 5: 1, 2: 2})
        for dag, n_binding in ((irregular, 8), (sparse, 4)):
            everything = enumerate_paths(dag, cap=40)
            paths = [p.vertices for p in everything if p.support]
            assert len(paths) == n_binding and len(set(map(len, paths))) > 1
            assert (dag is irregular) == (len(paths) == len(everything))
            per_path = 60
            counts = dict.fromkeys(paths, 0)
            for s in range(per_path * len(paths)):
                _, path = random_path_vector(dag, seed=(2024, s))
                counts[path.vertices] += 1
            assert len(counts) == len(paths)
            assert min(counts.values()) > 0
            assert _chi2(list(counts.values()), per_path) < _chi2_upper(len(paths) - 1)

    def test_more_paths_than_two_to_the_63(self):
        dag = build_layer_graph(134, 33, 4)  # 4 * 4**32 = 2**66 paths
        assert count_paths(dag) == 2**66
        firsts = []
        for s in range(400):
            x, path = random_path_vector(dag, seed=(31, s))
            assert is_st_path(dag, path.vertices)
            assert abs(np.linalg.norm(x) - 1.0) < 1e-12
            firsts.append(path.vertices[1])
        again = random_path_vector(dag, seed=(31, 0))
        assert again[1] == random_path_vector(dag, seed=(31, 0))[1]
        assert _chi2(np.bincount(firsts, minlength=5)[1:], 100.0) < _chi2_upper(3)
