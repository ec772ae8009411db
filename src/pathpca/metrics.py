"""Evaluation metrics for estimated principal components.

The projector distance compares the rank-one projectors of two unit vectors,
so it ignores sign; it is a pseudometric on unit vectors (a metric on the
lines they span) with values in [0, sqrt(2)]. Both vectors must pass
``data.check_unit_vector``: 1-d, the same length, finite and of unit norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import check_unit_vector


def projector_distance(x_hat, x_star) -> float:
    """|| x x^T - y y^T ||_F = sqrt(2 - 2 (x^T y)^2) for unit vectors.

    Computed via the inner product, so it costs O(p) rather than O(p^2).
    """
    a = check_unit_vector(x_hat, "x_hat")
    b = check_unit_vector(x_star, "x_star", a.size)
    t = float(a @ b)
    return float(np.sqrt(max(0.0, 2.0 - 2.0 * t * t)))


def support_jaccard(x_hat, x_star, zero_tol: float = 1e-12) -> float:
    """Jaccard distance 1 - |A&B|/|A|B| between supports, where a coordinate
    belongs to the support when its magnitude exceeds ``zero_tol``. Two empty
    supports are at distance 0."""
    a = np.flatnonzero(np.abs(np.asarray(x_hat, dtype=float)) > zero_tol)
    b = np.flatnonzero(np.abs(np.asarray(x_star, dtype=float)) > zero_tol)
    if a.size == 0 and b.size == 0:
        return 0.0
    inter = np.intersect1d(a, b).size
    union = np.union1d(a, b).size
    return 1.0 - inter / union


def explained_variance(x, sigma) -> float:
    """Rayleigh quotient x^T sigma x (x assumed unit)."""
    v = np.asarray(x, dtype=float)
    s = np.asarray(sigma, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] != v.size:
        raise ValueError("sigma must be square and match the vector length")
    return float(v @ s @ v)


@dataclass(frozen=True)
class EvalReport:
    projector_loss: float
    jaccard: float
    explained_variance: float


def evaluate(x_hat, x_star, sigma) -> EvalReport:
    """Bundle the three metrics of an estimate against the planted truth."""
    return EvalReport(projector_loss=projector_distance(x_hat, x_star),
                      jaccard=support_jaccard(x_hat, x_star),
                      explained_variance=explained_variance(x_hat, sigma))
