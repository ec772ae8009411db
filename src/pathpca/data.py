"""Synthetic data for path-supported PCA experiments.

Sampling conventions: sample matrices are (p, n), one column per observation.
Every sampler draws column i from its own random stream keyed by
``(*seed, i)``, so results are bit-identical for a given seed regardless of
evaluation or vectorization order. Seeds may be ints or tuples of ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import (Dag, GraphStructureError, Path, _ways_to_terminal,
                    make_path)


class NumericError(RuntimeError):
    """A numeric precondition failed (non-PSD input, eigensolver failure)."""


def seed_key(seed) -> tuple[int, ...]:
    """Normalize a seed (int or tuple of ints) to a tuple key."""
    if isinstance(seed, (tuple, list)):
        return tuple(int(s) for s in seed)
    return (int(seed),)


def _column_rng(key: tuple[int, ...], i: int) -> np.random.Generator:
    return np.random.default_rng(key + (i,))


@dataclass(frozen=True)
class SpikedModelParams:
    """Rank-one spike: observations y = sqrt(beta) * u * x_star + z with
    u ~ N(0,1) and z ~ N(0, I), so the population covariance is
    I + beta * x_star x_star^T."""

    x_star: np.ndarray
    beta: float

    def __post_init__(self):
        x = np.asarray(self.x_star, dtype=float)
        if x.ndim != 1 or x.size == 0:
            raise ValueError("x_star must be a 1-d vector")
        if not np.all(np.isfinite(x)):
            raise ValueError("x_star must be finite")
        if abs(np.linalg.norm(x) - 1.0) > 1e-9:
            raise ValueError("x_star must have unit norm")
        if not (self.beta >= 0.0):
            raise ValueError("beta must be nonnegative")
        object.__setattr__(self, "x_star", x)

    @property
    def dim(self) -> int:
        return self.x_star.size


def sample_spiked(params: SpikedModelParams, n: int, seed=0) -> np.ndarray:
    """Draw an (p, n) sample matrix from the spiked model.

    Column i uses the stream keyed ``(*seed, i)`` and draws the spike
    coefficient u first, then the noise vector z.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    key = seed_key(seed)
    p = params.dim
    u = np.empty(n)
    z = np.empty((p, n))
    for i in range(n):
        rng = _column_rng(key, i)
        u[i] = rng.standard_normal()
        z[:, i] = rng.standard_normal(p)
    return np.sqrt(params.beta) * np.outer(params.x_star, u) + z


def empirical_covariance(samples: np.ndarray) -> np.ndarray:
    """(1/n) Y Y^T for a (p, n) sample matrix; exactly symmetric."""
    y = np.asarray(samples, dtype=float)
    if y.ndim != 2 or y.shape[1] < 1:
        raise ValueError("samples must be a (p, n) matrix with n >= 1")
    if not np.all(np.isfinite(y)):
        raise NumericError("samples contain non-finite values")
    c = y @ y.T / y.shape[1]
    return (c + c.T) * 0.5


@dataclass(frozen=True)
class Covariance:
    """A validated covariance: the symmetrized, read-only matrix, and its
    eigenpairs (ascending eigenvalues, as ``np.linalg.eigh`` returns them).

    Built by ``prepare_covariance`` and shared by every solver and start of a
    sweep cell. The eigenpairs are one ``eigh``, run on the first read of
    ``evals`` or ``evecs`` (the PSD check reads them for a matrix its gate
    leaves undecided) and kept as a ``functools.cached_property``; reading
    ``matrix`` or ``dim`` never decomposes. All arrays are read-only.
    """

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def decomposed(self) -> bool:
        """Whether the eigenpairs have been computed (a cached property's
        value is stored in the instance dict)."""
        return "_eigenpairs" in self.__dict__

    @property
    def evals(self) -> np.ndarray:
        return self._eigenpairs[0]

    @property
    def evecs(self) -> np.ndarray:
        return self._eigenpairs[1]

    @cached_property
    def _eigenpairs(self) -> tuple[np.ndarray, np.ndarray]:
        try:
            pairs = np.linalg.eigh(self.matrix)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"eigendecomposition failed: {exc}") from exc
        for a in pairs:
            a.flags.writeable = False
        return tuple(pairs)


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
    if not np.isfinite(top):  # NaN and inf propagate through max
        raise NumericError("covariance contains non-finite values")
    scale = max(1.0, top)
    if scale > np.finfo(float).max / (2 * s.shape[0]):  # s + s.T could overflow
        raise NumericError("covariance entries are too large for float arithmetic")
    if float(np.abs(s - s.T).max()) > 1e-8 * scale:
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
    orthogonal with nonincreasing norms. Each eigenvector's sign is fixed so
    its largest-magnitude entry is positive (first such entry on ties).
    sigma may be a raw matrix or a Covariance; ``prepare_covariance`` rejects
    non-PSD input, and eigenvalues that are zero but come out slightly
    negative are clamped.
    """
    cov = prepare_covariance(sigma)
    p = cov.dim
    if not (1 <= rank <= p):
        raise ValueError(f"rank must be in 1..{p}")
    lam = cov.evals[::-1][:rank].copy()
    q = cov.evecs[:, ::-1][:, :rank].copy()
    np.clip(lam, 0.0, None, out=lam)
    flip = q[np.argmax(np.abs(q), axis=0), np.arange(rank)] < 0
    q[:, flip] *= -1.0
    return q * np.sqrt(lam)


def covariance_with_spectrum(x_star: np.ndarray, spectrum) -> np.ndarray:
    """Symmetric PSD matrix with the given spectrum and x_star on top.

    The eigenbasis is the Householder reflection taking e_1 to x_star, so the
    principal eigenvector is (up to sign) x_star; requires a strict gap
    spectrum[0] > spectrum[1] so that direction is identifiable.
    """
    x = np.asarray(x_star, dtype=float)
    lam = np.asarray(spectrum, dtype=float)
    if x.ndim != 1 or lam.shape != x.shape:
        raise ValueError("x_star and spectrum must be 1-d and the same length")
    if not np.all(np.isfinite(x)):
        raise ValueError("x_star must be finite")
    nrm = np.linalg.norm(x)
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError("x_star must have unit norm")
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

    Column streams are keyed the same way as in ``sample_spiked``; with
    sigma = I this matches the spiked sampler at beta = 0 in distribution.
    sigma may be a raw matrix or a Covariance.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    cov = prepare_covariance(sigma)
    evecs = cov.evecs
    root = (evecs * np.sqrt(np.clip(cov.evals, 0.0, None))) @ evecs.T
    p = cov.dim
    key = seed_key(seed)
    g = np.empty((p, n))
    for i in range(n):
        g[:, i] = _column_rng(key, i).standard_normal(p)
    return root @ g


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
    """Unit vector supported on a uniformly random S-T path.

    The path is drawn exactly uniformly over all S-T paths, at any path
    count (successors weighted by their exact path counts to the terminal,
    see ``_uniform_below``); loadings are standard normal on the path's bound
    variables, in ascending variable order, normalized.
    """
    ways = _ways_to_terminal(dag)
    if ways[dag.source] == 0:
        raise GraphStructureError("no path from source to terminal")

    rng = np.random.default_rng(seed_key(seed))
    verts = [dag.source]
    v = dag.source
    while v != dag.terminal:
        nbrs = dag.out_neighbors(v).tolist()
        counts = [ways[u] for u in nbrs]
        r = _uniform_below(rng, sum(counts))
        acc = 0
        for u, c in zip(nbrs, counts):
            acc += c
            if r < acc:
                v = u
                break
        verts.append(v)
    path = make_path(dag, verts)
    sup = path.sorted_support()
    if sup.size == 0:
        raise ValueError("sampled path binds no variables")
    g = rng.standard_normal(sup.size)
    nrm = np.linalg.norm(g)
    if nrm == 0.0:
        g[0] = 1.0
        nrm = 1.0
    x = np.zeros(dag.dim)
    x[sup] = g / nrm
    return x, path
