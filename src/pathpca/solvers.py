"""Estimators for the leading path-supported principal component.

Two heuristics and one exact reference:

- ``graph_truncated_power``: power iteration with the matrix-vector product
  re-projected onto the path-supported unit vectors each step. For PSD input
  the objective trace is nondecreasing and every iterate is feasible. Its
  starts run in lockstep as the columns of one block: each iteration is one
  ``_paths`` block over the starts still running, and only the winning
  iterate becomes a ``Path``.
- ``sample_and_project``: draws directions in the top rank-r eigenspace,
  projects each, and keeps the candidate with the largest ||V^T x||^2. With
  enough samples this approximates the best rank-r answer, but note it is a
  poor fit for spiked covariances at scale, where the useful rank grows with
  the dimension. All directions come from one stream keyed by the seed, the
  columns of one (budget, rank) draw. The candidates run as block
  arithmetic in chunks: one ``_paths`` block per chunk, then each column's
  weights gathered on its path support and scored there; each chunk's
  arrays fit the budget ``_BLOCK_BYTES``.
- ``brute_force_solve``: per-path leading eigenvalues over an enumeration of
  all S-T paths; exact up to the eigensolver, for small path counts. The
  paths are rows of one int array. Each path's principal submatrix first
  gets the upper bound min(Gershgorin row sum, Frobenius norm) on its
  leading eigenvalue; the 64 highest-bound paths are decomposed for an
  incumbent, then only the paths whose bound is at least the incumbent less
  1e-12 of it. A pruned path's eigenvalue is at most its bound, below the
  incumbent by more than rounding, so it can neither win nor tie, and the
  result is that of decomposing every path. Submatrices of one support
  size are bounded and decomposed in stacks (one ``eigh`` call each) that
  fit ``_BLOCK_BYTES``.

``sparse_truncated_power`` is the unstructured k-sparse baseline: the same
iteration with hard thresholding to the top-k magnitudes in place of the
path projection; both power methods run one block loop over their starts,
``_truncated_power``, in which each start keeps its own arithmetic, so the
result is bit for bit that of running the starts one after another. Every
iterate is supported on at most |path| (or k) coordinates, so a step
multiplies only the covariance rows of that support, O(p * |support|) rather
than O(p^2), and the same product gives the step's Rayleigh quotient.

Every solver, brute force included, takes a ``Covariance`` or validates a
raw sigma through ``prepare_covariance``, whose Cholesky gate rejects
non-PSD input without a spectrum; a covariance built by
``Covariance.from_samples`` is PSD by construction and passes no gate. Only
``sample_and_project`` reads eigenpairs, through ``low_rank_factor``, inside
the call: one full-size ``eigh`` on its first read of ``Covariance.evals``,
or, for a covariance that kept its few samples, one ``eigh`` of their n x n
Gram matrix; the other solvers run none. Passing the ``Covariance`` lets
several solvers share one validation and at most one eigendecomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import (Covariance, _largest_entry_positive, low_rank_factor,
                   prepare_covariance, seed_key)
from .graph import Dag, Path, _bound_path_counts, _path_array
from .projection import _paths, _row_path, _sorted_supports, _unit_on

# Byte budget of the arrays sample_and_project draws, projects and scores
# each chunk of its candidates in (see _block_width), and of each stack of
# submatrices brute_force_solve bounds or decomposes (see _per_path): it sets
# how many candidates share one DP pass and how many submatrices one call.
_BLOCK_BYTES = 1 << 20

# How many of the highest-bound paths brute_force_solve decomposes first; the
# largest of their eigenvalues is the incumbent every other path's bound is
# held against.
_INCUMBENT_PATHS = 64


def _block_width(dag: Dag, budget: int, rank: int) -> int:
    """Sample-and-project candidates per chunk whose arrays fit ``budget``
    bytes, but at least 1. Per column it counts 8 bytes for each of: the
    direction draw and its normalized copy (``rank`` rows each); the weights
    (dim rows) and their padded squares (dim + 1 rows); the DP values, one
    row per plan position (|V| + 1 rows); the gather of the largest
    neighbour table, padding included, whose maxima the DP adds to the
    table's slice of positions; and, with L the most vertices an S-T path
    can have (one more than the number of plan waves), the walk's vertex
    rows, the sorted supports, the gathered weights and their squares (L
    rows each) and the (L, rank) gather of factor rows. The walk's per-step
    temporaries are no larger than the table gather; one-row arrays (norms,
    scores) and boolean masks are left out."""
    waves = dag._projection_plan.waves
    table = max((tab.size for wave in waves for _, tab in wave), default=0)
    steps = len(waves) + 1
    per_col = (2 * rank + 2 * dag.dim + dag.vertex_count + 2 + table
               + steps * (4 + rank))
    return max(1, budget // (8 * per_col))


@dataclass
class PowerMethodConfig:
    """Iteration controls and starts of the truncated power methods.

    A run starts from the covariance column with the largest diagonal entry,
    then from the ``restarts`` rows of one (restarts, p) standard normal draw
    of ``default_rng(seed_key(seed))`` (so the first r are those of any
    larger ``restarts``), and keeps the best start (see ``_truncated_power``).
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
    count, and the per-step objective trace (for brute force, the leading
    eigenvalue of each path it decomposed). ``rank_objective`` is filled by
    sample_and_project with its selection objective ||V^T x||^2.

    The power methods also fill ``stop_reason`` ("step", "stable" or
    "max_iters", see ``_truncated_power``) and ``degenerate``, the number of
    iterates whose path projection fell back to the uniform loading
    (``ProjectedVector.degenerate``; always 0 for the sparse baseline); both,
    like the trace, are the winning start's. ``starts`` holds one
    (objective, iterations, stop_reason) per start, in start order; the
    winner is the first maximum of the objectives."""

    x: np.ndarray
    path: Path | None
    objective: float
    iterations: int
    trace: list[float] = field(default_factory=list)
    rank_objective: float | None = None
    stop_reason: str | None = None
    degenerate: int = 0
    starts: list[tuple[float, int, str]] | None = None


def _starts(s: np.ndarray, cfg: PowerMethodConfig):
    # The start weights of the power methods, in order: the column of s with
    # the largest diagonal entry, then the rows of one standard normal draw.
    yield s[:, int(np.argmax(np.diag(s)))]
    yield from np.random.default_rng(seed_key(cfg.seed)).standard_normal(
        (cfg.restarts, s.shape[0]))


class _Start:
    """One start of ``_truncated_power``: its iterate x with support idx, the
    product u = s @ x, the best iterate so far (first on ties) with the walk
    rows of its path, its trace, stop counter and diagnostics."""

    def __init__(self, s: np.ndarray, x, idx, degenerate, rows):
        self.s, self.x, self.idx, self.degenerate = s, x, idx, degenerate
        self.u = x[idx] @ s[idx]
        self.best_obj = float(x[idx] @ self.u[idx])
        self.best_x, self.best_rows = x, rows
        self.trace = [self.best_obj]
        self.stable, self.iterations, self.stop_reason = 0, 0, "max_iters"

    def advance(self, nxt, nxt_idx, deg, rows, tol: float) -> bool:
        """Take ``nxt``, the projection of u; True once the start stops."""
        self.iterations += 1
        self.degenerate += deg
        self.u = nxt[nxt_idx] @ self.s[nxt_idx]
        obj = float(nxt[nxt_idx] @ self.u[nxt_idx])
        self.trace.append(obj)
        if obj > self.best_obj:
            self.best_x, self.best_obj, self.best_rows = nxt, obj, rows
        moved = float(np.linalg.norm(nxt - self.x))
        same = np.array_equal(nxt_idx, self.idx)
        if same and abs(obj - self.trace[-2]) <= tol:
            self.stable += 1
        else:
            self.stable = 0
        self.x, self.idx = nxt, nxt_idx
        if moved <= tol:
            self.stop_reason = "step"
        elif self.stable >= 2:
            self.stop_reason = "stable"
        else:
            return False
        return True


def _truncated_power(s: np.ndarray, step, cfg: PowerMethodConfig | None,
                     path_of=lambda rows: None) -> EstimateResult:
    """Truncated power iteration x <- step(s @ x) for both power methods,
    from every start of ``cfg`` in lockstep.

    The starts (see ``_starts``) are the columns of one (p, B) block of
    weights, and ``step(w)`` projects every column of it at once. It returns
    one ``(x, idx, degenerate, rows)`` per column: the feasible unit vector
    nearest the column, the ascending indices ``idx`` of its support (an int
    array that holds every nonzero of x), whether the projection fell back
    to a degenerate loading, and the walk rows of its path (None only for
    the sparse baseline). Only the winner's rows become a ``Path``, by
    ``path_of``. A start's weight is stepped first and counts in the trace.
    A weight whose squares could sum past float max (largest square at
    least float max / p, possible near the top of the range
    ``prepare_covariance`` accepts) is stepped times the power of two that
    brings its largest magnitude into [0.5, 1): an exact scaling of the same
    direction, so the same step; other weights are stepped as they are.

    Each column keeps its own arithmetic (``_Start``), so its bits do not
    depend on the other starts: an iterate is multiplied only on its
    support, ``u = x[idx] @ s[idx]`` gathers |idx| rows and equals ``s @ x``
    because s is exactly symmetric, the Rayleigh quotient is read off as
    ``x[idx] @ u[idx]``, and u is the next step's input, so an iteration
    costs one O(p * |idx|) product per column. A start stops when its
    iterate moves less than ``tol`` (stop reason "step"), when its support
    has been stable for two consecutive steps with objective change at most
    ``tol`` ("stable"), or at ``max_iters`` ("max_iters"); the block then
    shrinks to the starts still running.

    The best objective wins, the earliest start on ties, with its x, path,
    trace, stop reason and degenerate count; the iterations are summed over
    all starts, and ``starts`` holds each start's (best objective,
    iterations, stop reason) in start order.
    """
    cfg = cfg if cfg is not None else PowerMethodConfig()
    limit = np.finfo(float).max / s.shape[0]

    def fitted(block):  # ldexp by 0 leaves a column's bits as they are
        top = np.abs(block).max(axis=0)
        with np.errstate(over="ignore"):  # a square past float max is inf
            e = np.where(top * top < limit, 0, -np.frexp(top)[1])
        return np.ldexp(block, e)

    block = fitted(np.column_stack(list(_starts(s, cfg))))
    runs = [_Start(s, *col) for col in step(block)]
    active = runs
    for _ in range(cfg.max_iters):
        block = fitted(np.column_stack([r.u for r in active]))
        active = [r for r, col in zip(active, step(block))
                  if not r.advance(*col, cfg.tol)]
        if not active:
            break
    best = runs[0]
    for r in runs[1:]:
        if r.best_obj > best.best_obj:  # the first maximum: ties go first
            best = r
    return EstimateResult(x=best.best_x, path=path_of(best.best_rows),
                          objective=best.best_obj,
                          iterations=sum(r.iterations for r in runs),
                          trace=best.trace, stop_reason=best.stop_reason,
                          degenerate=best.degenerate,
                          starts=[(r.best_obj, r.iterations, r.stop_reason)
                                  for r in runs])


def graph_truncated_power(sigma: np.ndarray | Covariance, dag: Dag,
                          config: PowerMethodConfig | None = None) -> EstimateResult:
    """Maximize x^T sigma x over path-supported unit vectors, iteratively.

    Each step projects sigma @ x back onto the feasible set; the starts, the
    support-restricted products and the stopping rules are those of
    ``_truncated_power``. A step is one ``_paths`` block over the running
    starts, each column then normalized on its path support (``_unit_on``),
    bit for bit what ``project`` gives the column. Returns the
    best-objective iterate seen, which the nondecreasing trace makes the
    last one of its start in exact arithmetic.

    Requires PSD input; that is what makes the trace monotone.
    """
    s = prepare_covariance(sigma, dag.dim).matrix

    def step(w):
        verts, sup, counts = _paths(dag, w)
        out = []
        for j, c in enumerate(counts.tolist()):
            x, deg = _unit_on(w[:, j], sup[:c, j])
            out.append((x, sup[:c, j], deg, verts[:, j]))
        return out

    return _truncated_power(s, step, config, lambda rows: _row_path(dag, rows))


def _directions(rng: np.random.Generator, count: int, rank: int) -> np.ndarray:
    """The next ``count`` directions of ``rng``, as the columns of a (rank,
    count) array: standard normal rows of a (count, rank) draw, each scaled
    to unit length (a zero draw becomes e_1) and signed so that its first
    nonzero entry is positive. The arithmetic is elementwise over columns, so
    a direction's bits depend on neither ``count`` nor the draws around it."""
    c = rng.standard_normal((count, rank)).T
    sq = c[0] * c[0]
    for row in c[1:]:
        sq += row * row
    nrm = np.sqrt(sq)
    zero = nrm == 0.0
    c[0, zero], nrm[zero] = 1.0, 1.0
    c = c / nrm
    flip = c[np.argmax(c != 0.0, axis=0), np.arange(count)] < 0.0
    c[:, flip] = -c[:, flip]
    return c


def _support_scores(v: np.ndarray, w: np.ndarray, sup: np.ndarray,
                    counts: np.ndarray) -> np.ndarray:
    """||V^T x||^2 of each column's candidate: x is column j of w gathered on
    its support ``sup[:counts[j], j]`` (ascending, counts >= 1) and
    normalized, or the uniform loading there where the gather vanishes, as
    ``_unit_on`` builds it. V^T x is summed over the support rows of v, a
    (k, B, rank) gather; every sum runs in order down a column (an in-place
    ``add.accumulate``, never ``sum``, whose order changes when B = 1) and
    the rest is elementwise, so a column's score does not depend on the
    others. Overwrites the padding rows of ``sup``."""
    k = int(counts.max())
    on = np.arange(k)[:, None] < counts
    rows = sup[:k]
    rows[~on] = 0
    x = w[rows, np.arange(w.shape[1])]
    x[~on] = 0.0
    sq = x * x
    np.add.accumulate(sq, axis=0, out=sq)
    nrm = np.sqrt(sq[-1])
    deg = nrm == 0.0
    nrm[deg] = 1.0
    x /= nrm
    x[:, deg] = on[:, deg] / np.sqrt(counts[deg])
    t = v[rows]
    t *= x[:, :, None]
    np.add.accumulate(t, axis=0, out=t)
    t = t[-1]
    ro = t[:, 0] * t[:, 0]
    for i in range(1, v.shape[1]):
        ro += t[:, i] * t[:, i]
    return ro


def sample_and_project(sigma: np.ndarray | Covariance, dag: Dag,
                       config: SampleProjectConfig) -> EstimateResult:
    """Rank-r sample-and-project: project random top-eigenspace directions.

    Draws ``budget`` directions c_i uniformly on the unit sphere of R^rank,
    all from one stream keyed by the seed: column i of
    ``default_rng(seed).standard_normal((budget, rank)).T``, normalized and
    signed by ``_directions`` (x and -x score the same), so a budget's
    directions are the first ones of any larger budget. Forms w_i = V c_i
    from the rank-r factor of sigma, projects, and returns the candidate
    maximizing ||V^T x||^2, first index winning ties. With rank=1 every
    candidate equals project(dag, v_1), so the budget is irrelevant. The
    trace records each candidate's ||V^T x||^2.

    The candidates run in chunks whose arrays fit ``_BLOCK_BYTES`` unless a
    single column alone exceeds it (``_block_width``): w as a sum of
    elementwise products, one ``_paths`` block, then the scores on each path
    support (``_support_scores``). No matrix product spans the columns, so
    a candidate's bits do not depend on the chunking. The winner's x
    (rebuilt by ``_unit_on``) and path are those of ``project(dag, w_i)``
    bit for bit, and only it becomes a ``Path``; the scores may differ from
    ``np.sum((V.T @ x) ** 2)`` in the last bits.
    """
    cov = prepare_covariance(sigma, dag.dim)
    v = low_rank_factor(cov, config.rank)  # raises ValueError for rank > p
    rng = np.random.default_rng(seed_key(config.seed))
    cols = _block_width(dag, _BLOCK_BYTES, config.rank)

    best_ro, best = -np.inf, None
    trace: list[float] = []
    for start in range(0, config.budget, cols):
        b = min(cols, config.budget - start)
        c = _directions(rng, b, config.rank)
        w = v[:, :1] * c[0]
        for i in range(1, config.rank):
            w += v[:, i:i + 1] * c[i]
        verts, sup, counts = _paths(dag, w)
        ro = _support_scores(v, w, sup, counts)
        trace.extend(ro.tolist())
        j = int(np.argmax(ro))  # the first maximum: ties go to the first index
        if ro[j] > best_ro:
            best_ro = float(ro[j])
            best = (w[:, j].copy(), sup[:counts[j], j].copy(), verts[:, j].copy())
    w, sup, verts = best
    x, _ = _unit_on(w, sup)
    return EstimateResult(x=x, path=_row_path(dag, verts),
                          objective=float(x @ cov.matrix @ x),
                          iterations=config.budget, trace=trace,
                          rank_objective=best_ro)


def _per_path(f, row_floats, s: np.ndarray, var: np.ndarray, sizes: np.ndarray,
              paths: np.ndarray) -> np.ndarray:
    """``f`` of the principal submatrix s[sup, sup] of each of ``paths``, sup =
    var[i, :sizes[i]] for path i, as one array in the order of ``paths``. f
    takes a stack of submatrices of one size k and returns one value each;
    a stack holds as many as fit ``_BLOCK_BYTES`` at 8 * row_floats(k) bytes
    a submatrix (at least one)."""
    out = np.empty(paths.size)
    size = sizes[paths]
    for k in np.unique(size).tolist():
        at = np.flatnonzero(size == k)
        chunk = max(1, _BLOCK_BYTES // (8 * row_floats(k)))
        for a in range(0, at.size, chunk):
            sup = var[paths[at[a:a + chunk]], :k]
            out[at[a:a + chunk]] = f(s[sup[:, :, None], sup[:, None, :]])
    return out


def _top_eigenvalues(sub: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each matrix of the (m, k, k) stack ``sub``, by
    one stacked ``eigh`` (2k^2 + k floats a matrix: it, its eigenvectors and
    eigenvalues), which is bit-identical to one call per matrix, where
    ``eigvalsh`` would not be."""
    return np.linalg.eigh(sub)[0][:, -1]


def _eigenvalue_bounds(sub: np.ndarray) -> np.ndarray:
    """min(max_i sum_j |A_ij|, ||A||_F), Gershgorin's row-sum bound and the
    Frobenius norm, for each symmetric matrix A of the (m, k, k) stack
    ``sub``: an upper bound on its largest eigenvalue. Works in place (k^2 + k
    floats a matrix: it and its row sums). Each |A| is scaled by the power of
    two 2^-e that brings its largest entry into [0.5, 1), so no square
    underflows to 0 or overflows, and the bound is scaled back by 2^e. That
    is exact but for entries below 2^-1022 times the largest, whose share
    of the bound is below its rounding, so the bound is that of A up to
    rounding whenever A's largest entry is at least 2^-1022, up to the top
    of the range ``prepare_covariance`` accepts."""
    a = np.abs(sub, out=sub)
    e = np.frexp(a.max(axis=(1, 2)))[1]
    np.ldexp(a, -e[:, None, None], out=a)
    gershgorin = a.sum(axis=2).max(axis=1)
    np.square(a, out=a)
    frobenius = np.sqrt(a.sum(axis=(1, 2)))
    return np.ldexp(np.minimum(gershgorin, frobenius), e)


def brute_force_solve(sigma: np.ndarray | Covariance, dag: Dag,
                      cap: int = 10000) -> EstimateResult:
    """Exact maximizer by path enumeration: the leading eigenpair of the
    principal submatrix of each path's support, best path kept (ties go to
    the lexicographically first path). Raises as ``_bound_path_counts`` at
    any path count, then refuses graphs with more than ``cap`` paths.
    ``iterations`` counts the paths that bind a variable; the eigenvector
    sign is ``_largest_entry_positive``'s.

    Only the paths that can still win are decomposed. Every path first gets
    the upper bound min(Gershgorin, Frobenius) on its leading eigenvalue
    (``_eigenvalue_bounds``). The ``_INCUMBENT_PATHS`` paths with the highest
    bounds are decomposed, and their largest eigenvalue is the incumbent.
    Then the other paths whose bound is at least the incumbent less the
    slack 1e-12 * |incumbent| are decomposed, and the first maximizer among
    all decomposed paths wins. A pruned path cannot win or tie: its
    eigenvalue is at most its bound, which is below the incumbent by more
    than the rounding of the bound and of ``eigh`` (a few ulps per entry of
    the submatrix, relative to its largest entry). The trace lists the leading
    eigenvalues of the decomposed paths, in enumeration order, so
    ``len(trace)`` is the number of paths decomposed.

    The paths come as rows of one array (``graph._path_array``), their
    supports as sorted, deduplicated rows of variables
    (``projection._sorted_supports``). Bounds and eigenvalues are computed on
    stacks of submatrices of one support size, each stack within
    ``_BLOCK_BYTES`` (``_per_path``); the eigenvalues by stacked ``eigh``
    calls (``_top_eigenvalues``), each bit-identical to the eigenvalue the
    path's own ``eigh`` gives. The winner's submatrix alone is decomposed
    again for its eigenvector, and only it becomes a ``Path``.
    """
    s = prepare_covariance(sigma, dag.dim).matrix
    _bound_path_counts(dag)  # some path binds a variable, whatever the cap
    rows = _path_array(dag, cap)
    var, sizes = _sorted_supports(dag, rows.T)
    var = var.T  # path i's support is var[i, :sizes[i]]
    examined = np.flatnonzero(sizes > 0)

    def eigenvalues(at):
        return _per_path(_top_eigenvalues, lambda k: 2 * k * k + k, s, var,
                         sizes, examined[at])

    bound = _per_path(_eigenvalue_bounds, lambda k: k * k + k, s, var, sizes,
                      examined)
    lam = np.empty(examined.size)
    done = np.zeros(examined.size, dtype=bool)
    cut = max(0, bound.size - _INCUMBENT_PATHS)
    head = np.argpartition(bound, cut)[cut:]
    lam[head] = eigenvalues(head)
    done[head] = True
    incumbent = float(lam[head].max())
    rest = np.flatnonzero(~done & (bound >= incumbent - 1e-12 * abs(incumbent)))
    lam[rest] = eigenvalues(rest)
    done[rest] = True
    top = lam[done]
    win = int(examined[done][np.argmax(top)])  # the first maximum: ties go first
    sup = var[win, :sizes[win]]
    evals, evecs = np.linalg.eigh(s[np.ix_(sup, sup)])
    x = np.zeros(dag.dim)
    x[sup] = _largest_entry_positive(evecs[:, -1:])[:, 0]
    return EstimateResult(x=x, path=_row_path(dag, rows[win]),
                          objective=float(evals[-1]),
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

    Same lockstep loop and starts as ``graph_truncated_power`` with the
    projection replaced by keep-top-k-and-normalize (``_top_k_unit``, per
    column of the block); the diagonal start keeps the top k entries of the
    max-diagonal column. The result has ``path=None``; its support is any k
    coordinates. With k = p this is plain power iteration.
    """
    s = prepare_covariance(sigma).matrix
    p = s.shape[0]
    if not (1 <= k <= p):
        raise ValueError(f"k must be in 1..{p}")

    def step(w):
        xs = [_top_k_unit(col, k) for col in w.T]
        return [(x, np.flatnonzero(x), False, None) for x in xs]

    return _truncated_power(s, step, config)
