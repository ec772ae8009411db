"""Estimators for the leading path-supported principal component.

Two heuristics and one exact reference:

- ``graph_truncated_power``: power iteration with the matrix-vector product
  re-projected onto the path-supported unit vectors each step. For PSD input
  the objective trace is nondecreasing and every iterate is feasible.
- ``sample_and_project``: draws directions in the top rank-r eigenspace,
  projects each, and keeps the candidate with the largest ||V^T x||^2. With
  enough samples this approximates the best rank-r answer, but note it is a
  poor fit for spiked covariances at scale, where the useful rank grows with
  the dimension. The candidates are projected in chunks, one block DP and
  walk per chunk; each chunk's arrays fit the budget ``_BLOCK_BYTES``.
- ``brute_force_solve``: per-path leading eigenvalues over an enumeration of
  all S-T paths; exact up to the eigensolver, for small path counts. The
  paths are rows of one int array; their principal submatrices, grouped by
  support size, go through one stacked ``eigh`` per chunk, each chunk's
  submatrices, eigenvectors and eigenvalues fitting ``_BLOCK_BYTES``.

``sparse_truncated_power`` is the unstructured k-sparse baseline: the same
iteration with hard thresholding to the top-k magnitudes in place of the
path projection; both power methods run one loop, ``_truncated_power``.
Every iterate is supported on at most |path| (or k) coordinates, so a step
multiplies only the covariance rows of that support, O(p * |support|) rather
than O(p^2), and the same product gives the step's Rayleigh quotient.

Every solver, brute force included, validates sigma through
``prepare_covariance``, whose Cholesky gate rejects non-PSD input without a
spectrum. Only ``sample_and_project`` reads eigenpairs: its one full-size
``eigh`` runs on its first read of ``Covariance.evals``, inside the call; the
other solvers run none. Passing the prepared ``Covariance`` lets several
solvers share one validation and at most one eigendecomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .data import Covariance, low_rank_factor, prepare_covariance, seed_key
from .graph import Dag, GraphStructureError, Path, _path_array, make_path
from .projection import (_block_width, _paths, _sorted_supports, _unit_on,
                         project)

# Byte budget of the arrays sample_and_project projects each chunk of its
# candidates in (see projection._block_width), and of each stacked eigh of
# brute_force_solve (see _top_eigenvalues): it sets how many candidates share
# one DP pass and how many submatrices one eigh call.
_BLOCK_BYTES = 1 << 20


@dataclass
class PowerMethodConfig:
    """Iteration controls and starts of the truncated power methods.

    A run starts from the covariance column with the largest diagonal entry,
    then from ``restarts`` standard normal draws, draw j from the stream
    keyed (*seed, j, 0), and keeps the best start (see ``_truncated_power``).
    """

    max_iters: int = 1000
    tol: float = 1e-9
    restarts: int = 0
    seed: object = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not (self.tol > 0):
            raise ValueError("tol must be positive")
        if self.restarts < 0:
            raise ValueError("restarts must be nonnegative")


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
    sample_and_project with its selection objective ||V^T x||^2.

    The power methods also fill ``stop_reason`` ("step", "stable" or
    "max_iters", see ``_truncated_power``) and ``degenerate``, the number of
    iterates whose path projection fell back to the uniform loading
    (``ProjectedVector.degenerate``; always 0 for the sparse baseline); both,
    like the trace, are the winning start's."""

    x: np.ndarray
    path: Path | None
    objective: float
    iterations: int
    trace: list[float] = field(default_factory=list)
    rank_objective: float | None = None
    stop_reason: str | None = None
    degenerate: int = 0


def _starts(s: np.ndarray, cfg: PowerMethodConfig):
    # The start weights of the power methods, in order: the column of s with
    # the largest diagonal entry, then cfg.restarts standard normal draws.
    yield s[:, int(np.argmax(np.diag(s)))]
    key = seed_key(cfg.seed)
    for j in range(cfg.restarts):
        yield np.random.default_rng(key + (j, 0)).standard_normal(s.shape[0])


def _power_from(s: np.ndarray, step, w: np.ndarray, cfg: PowerMethodConfig):
    """One start of ``_truncated_power`` from the start weight w; returns its
    best iterate (first on ties) as a result with ``path=None``, plus its
    item."""
    x, idx, item, degenerate = step(w)
    u = x[idx] @ s[idx]
    best_obj = float(x[idx] @ u[idx])
    trace = [best_obj]
    best_x, best_item = x, item
    stable, stop_reason = 0, "max_iters"
    for iterations in range(1, cfg.max_iters + 1):
        nxt, nxt_idx, item, deg = step(u)
        degenerate += deg
        u = nxt[nxt_idx] @ s[nxt_idx]
        obj = float(nxt[nxt_idx] @ u[nxt_idx])
        trace.append(obj)
        if obj > best_obj:
            best_x, best_obj, best_item = nxt, obj, item
        del item  # keep no item but the best one
        moved = float(np.linalg.norm(nxt - x))
        if np.array_equal(nxt_idx, idx) and abs(obj - trace[-2]) <= cfg.tol:
            stable += 1
        else:
            stable = 0
        x, idx = nxt, nxt_idx
        if moved <= cfg.tol:
            stop_reason = "step"
            break
        if stable >= 2:
            stop_reason = "stable"
            break
    res = EstimateResult(x=best_x, path=None, objective=best_obj,
                         iterations=iterations, trace=trace,
                         stop_reason=stop_reason, degenerate=degenerate)
    return res, best_item


def _truncated_power(s: np.ndarray, step, cfg: PowerMethodConfig | None):
    """Truncated power iteration x <- step(s @ x) for both power methods,
    from every start of ``cfg``.

    ``step(w)`` returns ``(x, idx, item, degenerate)``: the feasible unit
    vector nearest w, the ascending indices ``idx`` of its support (an int
    array that holds every nonzero of x), an item returned for the best
    iterate (no other item is kept), and whether the step fell back to a
    degenerate loading. A start's weight is stepped first and counts in the
    trace. Each iterate is multiplied only on its support: ``u = x[idx] @
    s[idx]`` gathers |idx| rows and equals ``s @ x`` because s is exactly
    symmetric, the Rayleigh quotient is read off as ``x[idx] @ u[idx]``, and
    u is the next step's input, so an iteration costs one O(p * |idx|)
    product.

    A start stops when the iterate moves less than ``tol`` (stop reason
    "step"), when the support has been stable for two consecutive steps with
    objective change at most ``tol`` ("stable"), or at ``max_iters``
    ("max_iters"). The starts run one after another (see ``_starts``); the
    best objective wins, the earliest start on ties, with its x, trace, item,
    stop reason and degenerate count, and the iterations are summed over all
    starts. While a start runs, only the best of the finished starts is kept.
    """
    cfg = cfg if cfg is not None else PowerMethodConfig()
    best, best_item, iterations = None, None, 0
    for w in _starts(s, cfg):
        res, item = _power_from(s, step, w, cfg)
        iterations += res.iterations
        if best is None or res.objective > best.objective:
            best, best_item = res, item
        del res, item  # keep no start but the best one
    return replace(best, iterations=iterations), best_item


def graph_truncated_power(sigma: np.ndarray | Covariance, dag: Dag,
                          config: PowerMethodConfig | None = None) -> EstimateResult:
    """Maximize x^T sigma x over path-supported unit vectors, iteratively.

    Each step projects sigma @ x back onto the feasible set; the starts, the
    support-restricted products and the stopping rules are those of
    ``_truncated_power``. Returns the best-objective iterate seen, which the
    nondecreasing trace makes the last one of its start in exact arithmetic.

    Requires PSD input; that is what makes the trace monotone.
    """
    s = prepare_covariance(sigma, dag.dim).matrix

    def step(w):
        pv = project(dag, w)
        return pv.x, pv.path.sorted_support(), pv, pv.degenerate

    res, best = _truncated_power(s, step, config)
    return replace(res, path=best.path)


def _direction(key: tuple[int, ...], i: int, rank: int) -> np.ndarray:
    # Uniform on the unit sphere of R^rank from the stream keyed (*key, i),
    # signed so that the first nonzero coordinate is positive.
    g = np.random.default_rng(key + (i,)).standard_normal(rank)
    nrm = np.linalg.norm(g)
    if nrm == 0.0:
        g[0] = 1.0
        nrm = 1.0
    c = g / nrm
    nz = np.flatnonzero(c)
    return -c if c[nz[0]] < 0 else c


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

    The candidates are projected in chunks of columns, each chunk through one
    block DP and walk (bit-identical to ``project`` on each w_i); each
    chunk's arrays fit the budget ``_BLOCK_BYTES`` unless a single column
    alone exceeds it. A Path is built for the winner only.
    """
    cov = prepare_covariance(sigma, dag.dim)
    v = low_rank_factor(cov, config.rank)  # raises ValueError for rank > p
    key = seed_key(config.seed)
    cols = _block_width(dag, _BLOCK_BYTES)

    best_x, best_ro, best_verts = None, -np.inf, None
    trace: list[float] = []
    for start in range(0, config.budget, cols):
        w = np.empty((dag.dim, min(cols, config.budget - start)))
        for j in range(w.shape[1]):
            w[:, j] = v @ _direction(key, start + j, config.rank)
        verts, sup, counts = _paths(dag, w)
        for j in range(w.shape[1]):
            x, _ = _unit_on(w[:, j], sup[:counts[j], j])
            ro = float(np.sum((v.T @ x) ** 2))
            trace.append(ro)
            if best_x is None or ro > best_ro:
                best_x, best_ro, best_verts = x, ro, verts[:, j]
    path = make_path(dag, best_verts[best_verts >= 0], check=False)
    return EstimateResult(x=best_x, path=path,
                          objective=float(best_x @ cov.matrix @ best_x),
                          iterations=config.budget, trace=trace,
                          rank_objective=best_ro)


def _top_eigenvalues(s: np.ndarray, sups: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each principal submatrix s[sup, sup], sup a row
    of the (m, k) array ``sups``: one stacked ``eigh`` per chunk of rows,
    each chunk's submatrices, eigenvectors and eigenvalues fitting
    ``_BLOCK_BYTES`` (8 * (2k^2 + k) bytes a row; at least one row). The
    stacked ``eigh`` is bit-identical to one call per submatrix, where
    ``eigvalsh`` would not be."""
    m, k = sups.shape
    rows = max(1, _BLOCK_BYTES // (8 * (2 * k * k + k)))
    top = np.empty(m)
    for a in range(0, m, rows):
        sup = sups[a:a + rows]
        top[a:a + rows] = np.linalg.eigh(s[sup[:, :, None], sup[:, None, :]])[0][:, -1]
    return top


def brute_force_solve(sigma: np.ndarray | Covariance, dag: Dag,
                      cap: int = 10000) -> EstimateResult:
    """Exact maximizer by path enumeration: the leading eigenpair of the
    principal submatrix of each path's support, best path kept (ties go to
    the lexicographically first path). Refuses graphs with more than ``cap``
    paths. The trace holds each path's leading eigenvalue, in enumeration
    order, skipping paths that bind no variable; the eigenvector sign makes
    its largest-magnitude entry positive.

    The paths come as rows of one array (``graph._path_array``), their
    supports as sorted, deduplicated rows of variables
    (``projection._sorted_supports``). Paths are grouped by support size and
    their submatrices decomposed in chunks by stacked ``eigh`` calls
    (``_top_eigenvalues``, within ``_BLOCK_BYTES``); the winner's submatrix
    alone is decomposed again for its eigenvector, and only it becomes a
    ``Path``.
    """
    s = prepare_covariance(sigma, dag.dim).matrix
    rows = _path_array(dag, cap)
    if rows.shape[0] == 0:
        raise GraphStructureError("terminal unreachable from source")
    var, sizes = _sorted_supports(dag, rows.T)
    var = var.T  # path i's support is var[i, :sizes[i]]
    examined = np.flatnonzero(sizes > 0)
    if examined.size == 0:
        raise ValueError("no S-T path binds any variable")
    top = np.empty(rows.shape[0])
    for k in np.unique(sizes[examined]).tolist():
        group = np.flatnonzero(sizes == k)
        top[group] = _top_eigenvalues(s, var[group, :k])
    top = top[examined]
    win = int(examined[np.argmax(top)])  # the first maximum: ties go first
    sup = var[win, :sizes[win]]
    evals, evecs = np.linalg.eigh(s[np.ix_(sup, sup)])
    q = evecs[:, -1]
    if q[np.argmax(np.abs(q))] < 0:
        q = -q
    x = np.zeros(dag.dim)
    x[sup] = q
    path = make_path(dag, rows[win][rows[win] >= 0], check=False)
    return EstimateResult(x=x, path=path, objective=float(evals[-1]),
                          iterations=int(examined.size), trace=top.tolist())


def _top_k_unit(w: np.ndarray, k: int) -> np.ndarray:
    # Keep the k largest magnitudes (ascending index on ties), renormalize.
    # O(p): every magnitude above the k-th largest, then the lowest indices
    # among those equal to it.
    a = np.abs(w)
    kth = np.partition(a, a.size - k)[a.size - k]
    keep = a > kth
    keep[np.flatnonzero(a == kth)[:k - np.count_nonzero(keep)]] = True
    return _unit_on(w, np.flatnonzero(keep))[0]


def sparse_truncated_power(sigma: np.ndarray | Covariance, k: int,
                           config: PowerMethodConfig | None = None) -> EstimateResult:
    """k-sparse truncated power baseline: thresholding instead of a graph.

    Same loop and starts as ``graph_truncated_power`` with the projection
    replaced by keep-top-k-and-normalize; the diagonal start keeps the top k
    entries of the max-diagonal column. The result has ``path=None``; its support is any k
    coordinates. With k = p this is plain power iteration.
    """
    s = prepare_covariance(sigma).matrix
    p = s.shape[0]
    if not (1 <= k <= p):
        raise ValueError(f"k must be in 1..{p}")

    def step(w):
        x = _top_k_unit(w, k)
        return x, np.flatnonzero(x), None, False

    return _truncated_power(s, step, config)[0]
