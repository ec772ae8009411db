"""Estimators for the leading path-supported principal component.

Two heuristics and one exact reference:

- ``graph_truncated_power``: power iteration with the matrix-vector product
  re-projected onto the path-supported unit vectors each step. For PSD input
  the objective trace is nondecreasing and every iterate is feasible.
- ``sample_and_project``: draws directions in the top rank-r eigenspace,
  projects each, and keeps the candidate with the largest ||V^T x||^2. With
  enough samples this approximates the best rank-r answer, but note it is a
  poor fit for spiked covariances at scale, where the useful rank grows with
  the dimension.
- ``brute_force_solve``: per-path leading eigenpairs over an enumeration of
  all S-T paths; exact up to the eigensolver, for small path counts.

``sparse_truncated_power`` is the unstructured k-sparse baseline: the same
iteration with hard thresholding to the top-k magnitudes in place of the
path projection; both power methods run one loop, ``_truncated_power``.

Every solver, brute force included, validates sigma through
``prepare_covariance`` and so rejects non-PSD input. Passing the prepared
``Covariance`` lets several solvers and starts share one eigendecomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Covariance, low_rank_factor, prepare_covariance, seed_key
from .graph import Dag, Path, enumerate_paths
from .projection import ProjectedVector, project


@dataclass
class PowerMethodConfig:
    """Iteration controls for the truncated power methods.

    ``init`` is "diag" (project the covariance column with the largest
    diagonal entry), "random" (project a standard normal draw), or an
    explicit start vector used as-is for the first multiply.
    """

    max_iters: int = 1000
    tol: float = 1e-9
    init: object = "diag"
    seed: object = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not (self.tol > 0):
            raise ValueError("tol must be positive")
        if isinstance(self.init, str) and self.init not in ("diag", "random"):
            raise ValueError('init must be "diag", "random", or a start vector')


@dataclass
class SampleProjectConfig:
    rank: int = 2
    budget: int = 1000
    seed: object = 0

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be at least 1")
        if self.budget < 1:
            raise ValueError("budget must be at least 1")


@dataclass
class EstimateResult:
    """Solver output: the estimate, its support path (None for the sparse
    baseline), the Rayleigh quotient x^T sigma x, the iteration or sample
    count, and the per-step objective trace. ``rank_objective`` is filled by
    sample_and_project with its selection objective ||V^T x||^2."""

    x: np.ndarray
    path: Path | None
    objective: float
    iterations: int
    trace: list[float] = field(default_factory=list)
    rank_objective: float | None = None
    iterates: list[ProjectedVector] | None = None


def _rayleigh(sigma: np.ndarray, x: np.ndarray) -> float:
    return float(x @ sigma @ x)


def _truncated_power(s: np.ndarray, step, cfg: PowerMethodConfig | None):
    """Truncated power iteration x <- step(s @ x) for both power methods.

    ``step(w)`` returns ``(x, support, item)``: the feasible unit vector
    nearest w, the support the stopping rule compares, and an item returned
    for the best iterate. A "diag" or "random" start is stepped and counts
    in the trace; an explicit start is used as-is for the first multiply.
    Stops when the iterate moves less than ``tol``, when the support has been
    stable for two consecutive steps with objective change at most ``tol``,
    or at ``max_iters``. Returns the best iterate (first on ties) as a result
    with ``path=None``, its item, and every item in order.
    """
    cfg = cfg if cfg is not None else PowerMethodConfig()
    p = s.shape[0]
    if isinstance(cfg.init, str):
        if cfg.init == "diag":
            w = s[:, int(np.argmax(np.diag(s)))]
        else:
            w = np.random.default_rng(seed_key(cfg.seed) + (0,)).standard_normal(p)
        x, sup, item = step(w)
        obj = _rayleigh(s, x)
        trace, items = [obj], [item]
        best_x, best_obj, best_item, prev_sup = x, obj, item, sup
    else:
        x = np.asarray(cfg.init, dtype=float)
        if x.shape != (p,):
            raise ValueError(f"start vector must have length {p}")
        if not np.all(np.isfinite(x)):
            raise ValueError("start vector must be finite")
        trace, items = [], []
        best_x, best_obj, best_item, prev_sup = None, -np.inf, None, None

    stable = 0
    for iterations in range(1, cfg.max_iters + 1):
        nxt, sup, item = step(s @ x)
        obj = _rayleigh(s, nxt)
        trace.append(obj)
        items.append(item)
        if best_x is None or obj > best_obj:
            best_x, best_obj, best_item = nxt, obj, item
        moved = float(np.linalg.norm(nxt - x))
        if prev_sup is not None and sup == prev_sup and abs(obj - trace[-2]) <= cfg.tol:
            stable += 1
        else:
            stable = 0
        x, prev_sup = nxt, sup
        if moved <= cfg.tol or stable >= 2:
            break
    res = EstimateResult(x=best_x, path=None, objective=best_obj,
                         iterations=iterations, trace=trace)
    return res, best_item, items


def graph_truncated_power(sigma: np.ndarray | Covariance, dag: Dag,
                          config: PowerMethodConfig | None = None,
                          record_iterates: bool = False) -> EstimateResult:
    """Maximize x^T sigma x over path-supported unit vectors, iteratively.

    Each step projects sigma @ x back onto the feasible set; start handling
    and stopping rules are those of ``_truncated_power``. Returns the
    best-objective iterate seen, which the nondecreasing trace makes the last
    one in exact arithmetic. With ``record_iterates`` the result also lists
    every projected iterate.

    Requires PSD input; that is what makes the trace monotone.
    """
    s = prepare_covariance(sigma, dag.dim).matrix

    def step(w):
        pv = project(dag, w)
        return pv.x, pv.path.support, pv

    res, best, iterates = _truncated_power(s, step, config)
    return replace(res, path=best.path,
                   iterates=iterates if record_iterates else None)


def sample_and_project(sigma: np.ndarray | Covariance, dag: Dag,
                       config: SampleProjectConfig) -> EstimateResult:
    """Rank-r sample-and-project: project random top-eigenspace directions.

    Draws ``budget`` directions c_i uniformly on the unit sphere of R^rank
    (stream keyed (seed, i); the sign is canonicalized so the first nonzero
    coordinate is positive, which changes nothing since x and -x score the
    same), forms w_i = V c_i from the rank-r factor of sigma, projects, and
    returns the candidate maximizing ||V^T x||^2, first index winning ties.
    With rank=1 every candidate equals project(dag, v_1), so the budget is
    irrelevant. The trace records each candidate's ||V^T x||^2.
    """
    cov = prepare_covariance(sigma, dag.dim)
    v = low_rank_factor(cov, config.rank)  # raises ValueError for rank > p
    key = seed_key(config.seed)

    best: ProjectedVector | None = None
    best_ro = -np.inf
    trace: list[float] = []
    for i in range(config.budget):
        rng = np.random.default_rng(key + (i,))
        g = rng.standard_normal(config.rank)
        nrm = np.linalg.norm(g)
        if nrm == 0.0:
            g[0] = 1.0
            nrm = 1.0
        c = g / nrm
        nz = np.flatnonzero(c)
        if c[nz[0]] < 0:
            c = -c
        pv = project(dag, v @ c)
        ro = float(np.sum((v.T @ pv.x) ** 2))
        trace.append(ro)
        if best is None or ro > best_ro:
            best, best_ro = pv, ro
    return EstimateResult(x=best.x, path=best.path,
                          objective=_rayleigh(cov.matrix, best.x),
                          iterations=config.budget, trace=trace,
                          rank_objective=best_ro)


def budget_for_epsilon(epsilon: float, rank: int, p: int) -> int:
    """ceil((2/epsilon)^rank * ln p): sample budget for an epsilon-net of the
    rank-sphere. A convenience for sizing budgets, not a guarantee."""
    if not (0 < epsilon):
        raise ValueError("epsilon must be positive")
    if rank < 1 or p < 2:
        raise ValueError("need rank >= 1 and p >= 2")
    return int(math.ceil((2.0 / epsilon) ** rank * math.log(p)))


def brute_force_solve(sigma: np.ndarray | Covariance, dag: Dag,
                      cap: int = 10000) -> EstimateResult:
    """Exact maximizer by path enumeration: the leading eigenpair of the
    principal submatrix of each path's support, best path kept (ties go to
    the lexicographically first path). Refuses graphs with more than ``cap``
    paths. The trace holds each path's leading eigenvalue, in enumeration
    order; the eigenvector sign makes its largest-magnitude entry positive.
    """
    s = prepare_covariance(sigma, dag.dim).matrix
    paths = enumerate_paths(dag, cap)
    best_path: Path | None = None
    best_obj = -np.inf
    best_vec: np.ndarray | None = None
    trace: list[float] = []
    examined = 0
    for path in paths:
        sup = path.sorted_support()
        if sup.size == 0:
            continue
        examined += 1
        evals, evecs = np.linalg.eigh(s[np.ix_(sup, sup)])
        lam = float(evals[-1])
        trace.append(lam)
        if lam > best_obj:
            q = evecs[:, -1]
            if q[np.argmax(np.abs(q))] < 0:
                q = -q
            best_obj, best_path, best_vec = lam, path, q
            best_sup = sup
    if best_path is None:
        raise ValueError("no S-T path binds any variable")
    x = np.zeros(dag.dim)
    x[best_sup] = best_vec
    return EstimateResult(x=x, path=best_path, objective=best_obj,
                          iterations=examined, trace=trace)


def _top_k_unit(w: np.ndarray, k: int) -> np.ndarray:
    # Keep the k largest magnitudes (ascending index on ties), renormalize.
    p = w.size
    order = np.lexsort((np.arange(p), -np.abs(w)))
    sel = np.sort(order[:k])
    x = np.zeros(p)
    nrm = float(np.linalg.norm(w[sel]))
    if nrm == 0.0:
        x[sel] = 1.0 / np.sqrt(k)
    else:
        x[sel] = w[sel] / nrm
    return x


def sparse_truncated_power(sigma: np.ndarray | Covariance, k: int,
                           config: PowerMethodConfig | None = None) -> EstimateResult:
    """k-sparse truncated power baseline: thresholding instead of a graph.

    Same loop as ``graph_truncated_power`` with the projection replaced by
    keep-top-k-and-normalize; the diag init keeps the top k entries of the
    max-diagonal column. The result has ``path=None``; its support is any k
    coordinates. With k = p this is plain power iteration.
    """
    s = prepare_covariance(sigma).matrix
    p = s.shape[0]
    if not (1 <= k <= p):
        raise ValueError(f"k must be in 1..{p}")

    def step(w):
        x = _top_k_unit(w, k)
        return x, frozenset(np.flatnonzero(x != 0.0).tolist()), None

    return _truncated_power(s, step, config)[0]
