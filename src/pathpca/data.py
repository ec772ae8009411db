"""Synthetic data for path-supported PCA experiments.

Sampling conventions: sample matrices are (p, n), one column per observation.
Every sampler draws from one generator, ``default_rng(seed_key(seed))``,
filled as one row-major block with one row per observation: row i holds
column i's normals. The fill is sequential, so the first n1 columns of an
n2 draw are the n1 draw, and results are bit-identical for a given seed.
Seeds may be ints or tuples of ints.
Planted and estimated unit vectors all pass the one ``check_unit_vector``.

Covariances come in two kinds. A raw matrix (or covariance JSON) is checked
by ``prepare_covariance``: symmetry, scale and a Cholesky gate for PSD. A
sample covariance is built by ``Covariance.from_samples``, which skips the
symmetry pass and the gate (a Gram matrix is symmetric and PSD by
construction) and, when the samples are few (2n <= p), keeps them so that
``low_rank_factor`` can take the top eigenpairs from the n x n Gram matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .graph import Dag, Path, _count_walk, make_path


class NumericError(RuntimeError):
    """A numeric precondition failed (non-PSD input, eigensolver failure)."""


def seed_key(seed) -> tuple[int, ...]:
    """Normalize a seed (int or tuple of ints) to a tuple key."""
    if isinstance(seed, (tuple, list)):
        return tuple(int(s) for s in seed)
    return (int(seed),)


def check_unit_vector(x, name: str = "x_star", dim: int | None = None) -> np.ndarray:
    """x as a float array, checked to be a non-empty 1-d vector (of length
    ``dim`` when given), finite, and of unit norm to 1e-9; ValueError naming
    ``name`` otherwise. The one rule for planted vectors and metric inputs."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"{name} must be a 1-d vector")
    if dim is not None and v.size != dim:
        raise ValueError(f"{name} has length {v.size}, expected {dim}")
    if not np.all(np.isfinite(v)):  # a NaN norm would pass the test below
        raise ValueError(f"{name} must be finite")
    if abs(np.linalg.norm(v) - 1.0) > 1e-9:
        raise ValueError(f"{name} must have unit norm")
    return v


@dataclass(frozen=True)
class SpikedModelParams:
    """Rank-one spike: observations y = sqrt(beta) * u * x_star + z with
    u ~ N(0,1) and z ~ N(0, I), so the population covariance is
    I + beta * x_star x_star^T."""

    x_star: np.ndarray
    beta: float

    def __post_init__(self):
        x = check_unit_vector(self.x_star)
        self.check_beta(self.beta)
        object.__setattr__(self, "x_star", x)

    @staticmethod
    def check_beta(beta: float):
        """The rule 0 <= beta < inf (NaN fails it); ValueError otherwise. An
        infinite spike makes samples of inf and nan."""
        if not (0.0 <= beta < np.inf):
            raise ValueError("beta must be nonnegative and finite")

    @property
    def dim(self) -> int:
        return self.x_star.size


def sample_spiked(params: SpikedModelParams, n: int, seed=0) -> np.ndarray:
    """Draw an (p, n) sample matrix from the spiked model.

    The normals are one (n, p + 1) draw of ``default_rng(seed_key(seed))``:
    row i is the spike coefficient u_i followed by the noise vector z_i of
    column i. The result is built in one buffer, the bits of
    sqrt(beta) * outer(x_star, u) + z.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    g = np.random.default_rng(seed_key(seed)).standard_normal((n, params.dim + 1))
    y = np.outer(params.x_star, g[:, 0])
    y *= np.sqrt(params.beta)
    y += g[:, 1:].T
    return y


def check_samples(samples) -> np.ndarray:
    """samples as a float (p, n) array, n >= 1: ValueError for another shape,
    NumericError for a non-finite value."""
    y = np.asarray(samples, dtype=float)
    if y.ndim != 2 or y.shape[1] < 1:
        raise ValueError("samples must be a (p, n) matrix with n >= 1")
    if not np.all(np.isfinite(y)):
        raise NumericError("samples contain non-finite values")
    return y


def empirical_covariance(samples: np.ndarray) -> np.ndarray:
    """(1/n) Y Y^T for a (p, n) sample matrix; exactly symmetric."""
    y = check_samples(samples)
    c = y @ y.T / y.shape[1]
    return (c + c.T) * 0.5


@dataclass(frozen=True)
class Covariance:
    """A validated covariance: the symmetrized, read-only matrix, and its
    eigenpairs (ascending eigenvalues, as ``np.linalg.eigh`` returns them).

    Built by ``prepare_covariance`` from a raw matrix, or by ``from_samples``
    from the samples it is the covariance of, and shared by every solver and
    start of a sweep cell. The eigenpairs are one ``eigh``, run on the first
    read of ``evals`` or ``evecs`` (the PSD check reads them for a matrix its
    gate leaves undecided) and kept as a ``functools.cached_property``;
    reading ``matrix`` or ``dim`` never decomposes. ``samples`` is a copy of
    the (p, n) samples when ``from_samples`` kept them (2n <= p), else None;
    ``low_rank_factor`` then decomposes their n x n Gram matrix instead. All
    arrays are read-only.
    """

    matrix: np.ndarray
    samples: np.ndarray | None = None

    @classmethod
    def from_samples(cls, samples, dim: int | None = None) -> Covariance:
        """The covariance (1/n) Y Y^T of a (p, n) sample matrix Y, whose
        matrix is bit for bit ``prepare_covariance(empirical_covariance(Y))``'s.

        A Gram matrix is symmetric and PSD by construction, so neither the
        symmetry pass nor the Cholesky gate runs; its largest entry lies on
        its diagonal, so the scale check reads p numbers. Raises ValueError
        for a wrong shape (or dimension, when ``dim`` is given) and
        NumericError for non-finite samples or a matrix too large for float
        arithmetic. Y is kept, copied, when 2n <= p: there an ``eigh`` of
        the n x n Gram matrix costs far less than one of S, and the copy is
        at most half the size of S.
        """
        y = np.asarray(samples, dtype=float)
        s = empirical_covariance(y)
        p, n = y.shape
        if dim is not None and p != dim:
            raise ValueError(f"covariance is {p}-dimensional, expected {dim}")
        _check_scale(float(np.diagonal(s).max()), p)
        s.flags.writeable = False
        kept = None
        if 2 * n <= p:
            kept = y.copy()
            kept.flags.writeable = False
        return cls(s, kept)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def decomposed(self) -> bool:
        """Whether an eigendecomposition has run, of the matrix or of the
        kept samples' Gram matrix (a cached property's value is stored in the
        instance dict)."""
        return "_eigenpairs" in self.__dict__ or "_gram_evecs" in self.__dict__

    @property
    def evals(self) -> np.ndarray:
        return self._eigenpairs[0]

    @property
    def evecs(self) -> np.ndarray:
        return self._eigenpairs[1]

    @cached_property
    def _eigenpairs(self) -> tuple[np.ndarray, np.ndarray]:
        pairs = _eigh(self.matrix)
        for a in pairs:
            a.flags.writeable = False
        return pairs

    @cached_property
    def _gram_evecs(self) -> np.ndarray:
        """Eigenvectors of the kept samples' Gram matrix Y^T Y / n, ascending
        by eigenvalue: S Y v = Y (Y^T Y / n) v / n, so Y v / sqrt(n) is
        sqrt(mu) times a unit eigenvector of S for each pair (mu, v)."""
        y = self.samples
        v = _eigh(y.T @ y / y.shape[1])[1]
        v.flags.writeable = False
        return v


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        return tuple(np.linalg.eigh(a))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc


def _check_scale(top: float, p: int):
    """NumericError unless ``top``, the largest entry magnitude of a p x p
    covariance, is finite and at most float max / 2p, so that symmetrizing
    and every Rayleigh quotient stay finite."""
    if not np.isfinite(top):  # NaN and inf propagate through max
        raise NumericError("covariance contains non-finite values")
    if max(1.0, top) > np.finfo(float).max / (2 * p):  # s + s.T could overflow
        raise NumericError("covariance entries are too large for float arithmetic")


def _cholesky_succeeds(s: np.ndarray, shift: float) -> bool:
    a = s.copy()
    a.flat[::a.shape[0] + 1] += shift
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def _psd_by_cholesky(s: np.ndarray) -> bool | None:
    """The PSD rule lambda_min >= -t, t = 1e-8 * max(1, lambda_max), decided
    without a spectrum, or None when the gate cannot settle it.

    lambda_max lies between the largest diagonal entry and the largest
    absolute row sum, so t lies between tau_lo and tau_hi (the rule's
    1e-8 * max(1, .) of each bound). A Cholesky of S + tau_lo/2 I that
    succeeds puts lambda_min above -tau_lo/2 >= -t; one of S + 2 tau_hi I
    that fails puts it below -2 tau_hi <= -2t. The margins, tau_lo/2 and
    tau_hi, absorb the Cholesky's rounding, which is of order p * 1e-16
    relative to the largest diagonal entry.
    """
    tau_lo = 1e-8 * max(1.0, float(np.diagonal(s).max()))
    if _cholesky_succeeds(s, 0.5 * tau_lo):
        return True
    tau_hi = 1e-8 * max(1.0, float(np.abs(s).sum(axis=1).max()))
    if not _cholesky_succeeds(s, 2.0 * tau_hi):
        return False
    return None


def prepare_covariance(sigma, dim: int | None = None) -> Covariance:
    """Validate a covariance once; a Covariance passes through.

    Checks that sigma is square (and ``dim``-dimensional when given), finite
    with no entry above float max / 2p in magnitude (so symmetrizing and
    every Rayleigh quotient stay finite), symmetric to 1e-8 relative to its
    largest entry, and positive semidefinite: the smallest eigenvalue may
    fall below zero by at most 1e-8 * max(1, largest eigenvalue). Raises
    ValueError for a wrong shape and NumericError for the rest.

    The PSD rule is decided by shifted Cholesky factorizations
    (``_psd_by_cholesky``). Only a matrix they leave undecided, one whose
    smallest eigenvalue lies close to the threshold, is decomposed by
    ``eigh``, and its eigenpairs stay on the result. Otherwise no
    eigendecomposition runs until something reads ``evals`` or ``evecs``.
    """
    if isinstance(sigma, Covariance):
        if dim is not None and sigma.dim != dim:
            raise ValueError(f"covariance is {sigma.dim}-dimensional, expected {dim}")
        return sigma
    s = np.asarray(sigma, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError("covariance must be a square matrix")
    if dim is not None and s.shape[0] != dim:
        raise ValueError(f"covariance is {s.shape[0]}-dimensional, expected {dim}")
    top = float(np.abs(s).max())
    _check_scale(top, s.shape[0])
    if float(np.abs(s - s.T).max()) > 1e-8 * max(1.0, top):
        raise NumericError("covariance must be symmetric")
    s = (s + s.T) * 0.5
    s.flags.writeable = False
    cov = Covariance(s)
    psd = _psd_by_cholesky(s)
    if psd is None:
        evals = cov.evals  # the pairs stay cached on cov
        psd = evals[0] >= -1e-8 * max(1.0, float(evals[-1]))
    if not psd:
        raise NumericError("covariance must be positive semidefinite")
    return cov


def low_rank_factor(sigma: np.ndarray | Covariance, rank: int) -> np.ndarray:
    """Factor V with columns sqrt(lambda_i) q_i for the top ``rank`` eigenpairs.

    V V^T is the best rank-``rank`` approximation of sigma; columns are
    orthogonal with nonincreasing norms. Each column's sign is fixed so its
    largest-magnitude entry is positive (first such entry on ties).
    sigma may be a raw matrix or a Covariance; ``prepare_covariance`` rejects
    non-PSD input, and eigenvalues that are zero but come out slightly
    negative are clamped.

    A Covariance that kept its samples Y (see ``Covariance.from_samples``)
    gives V = Y v / sqrt(n) from the top eigenvectors v of the n x n Gram
    matrix when rank <= n, with no clamp needed and no p x p ``eigh``;
    otherwise the pairs are those of ``evals`` and ``evecs``.
    """
    cov = prepare_covariance(sigma)
    p = cov.dim
    if not (1 <= rank <= p):
        raise ValueError(f"rank must be in 1..{p}")
    y = cov.samples
    if y is not None and rank <= y.shape[1]:
        v = y @ cov._gram_evecs[:, ::-1][:, :rank] / np.sqrt(y.shape[1])
        return _largest_entry_positive(v)
    lam = cov.evals[::-1][:rank].copy()
    q = cov.evecs[:, ::-1][:, :rank].copy()
    np.clip(lam, 0.0, None, out=lam)
    return _largest_entry_positive(q) * np.sqrt(lam)


def _largest_entry_positive(m: np.ndarray) -> np.ndarray:
    """m with each column negated, in place, whose largest-magnitude entry
    (the first on ties) is negative."""
    flip = m[np.argmax(np.abs(m), axis=0), np.arange(m.shape[1])] < 0
    m[:, flip] *= -1.0
    return m


def covariance_with_spectrum(x_star: np.ndarray, spectrum) -> np.ndarray:
    """Symmetric PSD matrix with the given spectrum and x_star on top.

    The eigenbasis is the Householder reflection taking e_1 to x_star, so the
    principal eigenvector is (up to sign) x_star; requires a strict gap
    spectrum[0] > spectrum[1] so that direction is identifiable.
    """
    x = check_unit_vector(x_star)
    lam = np.asarray(spectrum, dtype=float)
    if lam.shape != x.shape:
        raise ValueError("spectrum must be 1-d and as long as x_star")
    if x.size >= 2 and not lam[0] > lam[1]:
        raise ValueError("need a strict spectral gap: spectrum[0] > spectrum[1]")
    if np.any(lam <= 0):
        raise ValueError("spectrum must be positive")
    if np.any(np.diff(lam) > 0):
        raise ValueError("spectrum must be nonincreasing")

    p = x.size
    u = -x.copy()
    u[0] += 1.0  # e_1 - x_star
    un = np.linalg.norm(u)
    if un < 1e-12:
        sigma = np.diag(lam)
    else:
        u /= un
        h = np.eye(p) - 2.0 * np.outer(u, u)  # maps e_1 to x_star
        sigma = (h * lam) @ h.T
    return (sigma + sigma.T) * 0.5


def gaussian_sampler(sigma: np.ndarray | Covariance, n: int, seed=0) -> np.ndarray:
    """Draw n columns i.i.d. N(0, sigma) via the symmetric matrix square root.

    The normals are one (n, p) draw of ``default_rng(seed_key(seed))``, row
    i for column i; with sigma = I this matches the spiked sampler at
    beta = 0 in distribution. sigma may be a raw matrix or a Covariance.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    cov = prepare_covariance(sigma)
    evecs = cov.evecs
    root = (evecs * np.sqrt(np.clip(cov.evals, 0.0, None))) @ evecs.T
    g = np.random.default_rng(seed_key(seed)).standard_normal((n, cov.dim))
    return root @ g.T


def _uniform_below(rng: np.random.Generator, tot: int) -> int:
    """Exactly uniform integer in [0, tot) for any positive Python int.

    Below 2^63 this is one ``rng.integers(tot)`` draw. Above, it is rejection
    sampling: draw tot.bit_length() bits from 64-bit limbs of the same
    generator, most significant limb first, until the value falls below tot
    (each try succeeds with probability above 1/2).
    """
    if tot < 2**63:
        return int(rng.integers(tot))
    bits = tot.bit_length()
    while True:
        r = 0
        for _ in range(-(-bits // 64)):
            r = (r << 64) | int(rng.integers(2**64, dtype=np.uint64))
        r >>= -bits % 64
        if r < tot:
            return r


def random_path_vector(dag: Dag, seed=0) -> tuple[np.ndarray, Path]:
    """Unit vector supported on a random S-T path that binds a variable.

    The path is exactly uniform over the S-T paths that bind a variable, at
    any path count: ``graph._count_walk`` (which raises when there is none)
    draws each step by ``_uniform_below``. Loadings are standard normal on
    the path's bound variables, in ascending variable order, normalized.
    """
    rng = np.random.default_rng(seed_key(seed))
    path = make_path(dag, _count_walk(dag, partial(_uniform_below, rng)))
    sup = path.sorted_support()
    g = rng.standard_normal(sup.size)
    nrm = np.linalg.norm(g)
    if nrm == 0.0:
        g[0] = 1.0
        nrm = 1.0
    x = np.zeros(dag.dim)
    x[sup] = g / nrm
    return x, path
