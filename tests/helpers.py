"""Shared test utilities: random instances and independent oracles.

The oracles here deliberately avoid the library's DP code paths: they work
by explicit path enumeration plus dense numpy arithmetic, so agreement is
evidence rather than tautology.
"""

from __future__ import annotations

import numpy as np

from pathpca import Dag, count_paths, enumerate_paths, validate


def random_psd(p: int, rng, scale: float = 1.0) -> np.ndarray:
    a = rng.standard_normal((p, p))
    s = a @ a.T / p * scale
    return (s + s.T) * 0.5


def forward_reachable(dag: Dag) -> np.ndarray:
    mask = np.zeros(dag.vertex_count, dtype=bool)
    mask[dag.source] = True
    frontier = [dag.source]
    while frontier:
        nxt = []
        for v in frontier:
            for u in dag.out_neighbors(v).tolist():
                if not mask[u]:
                    mask[u] = True
                    nxt.append(u)
        frontier = nxt
    return mask


def random_dag(rng, max_interior: int = 38, max_paths: int = 5000) -> Dag:
    """Random valid S-T DAG with <= max_paths paths, some vertices possibly
    unbound, and at least one bound vertex on an S-T path."""
    while True:
        n_int = int(rng.integers(2, max_interior + 1))
        n = n_int + 2
        levels = int(rng.integers(1, min(6, n_int) + 1))
        rank = np.sort(rng.integers(1, levels + 1, size=n_int))
        edges = []
        for i in range(n_int):
            v = 1 + i
            cands = [0] + [1 + j for j in range(n_int) if rank[j] < rank[i]]
            edges.append((int(rng.choice(cands)), v))
            cands = [n - 1] + [1 + j for j in range(n_int) if rank[j] > rank[i]]
            edges.append((v, int(rng.choice(cands))))
        prob = float(rng.uniform(0.05, 0.3))
        for i in range(n_int):
            for j in range(i + 1, n_int):
                if rank[j] > rank[i] and rng.random() < prob:
                    edges.append((1 + i, 1 + j))
        if rng.random() < 0.2:
            edges.append((0, n - 1))

        bound = [v for v in range(n) if rng.random() < 0.85]
        if not bound:
            continue
        perm = rng.permutation(len(bound))
        binding = {v: int(perm[i]) for i, v in enumerate(bound)}
        dag = Dag(n, edges, 0, n - 1, binding=binding, dim=len(bound))
        if not validate(dag).ok:
            continue
        if count_paths(dag) > max_paths:
            continue
        fwd = forward_reachable(dag)
        bwd = dag._reach_terminal
        on_path = [v for v in bound if fwd[v] and bwd[v]]
        if not on_path:
            continue
        return dag


def reference_store(n: int, edges) -> tuple[np.ndarray, np.ndarray]:
    """The CSR edge store (indptr, indices) by a lexicographic sort of the
    edge rows and a row-compare dedupe: an independent build of
    ``Dag._indptr`` and ``Dag._indices``."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if e.size:
        e = e[np.lexsort((e[:, 1], e[:, 0]))]
        e = e[np.r_[True, (e[1:] != e[:-1]).any(axis=1)]]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(e[:, 0], minlength=n), out=indptr[1:])
    return indptr, e[:, 1].copy()


def reference_plan(dag: Dag):
    """``Dag._projection_plan`` by another route, or None when the graph has
    a cycle: Kahn levels by ``np.maximum.at`` over each frontier's out-edges,
    then every edge not leaving the terminal stably sorted by descending
    source level, cut into one group per level and one run per source."""
    n, indptr, indices = dag.vertex_count, dag._indptr, dag._indices
    es = np.repeat(np.arange(n), np.diff(indptr))
    indeg = np.bincount(indices, minlength=n)
    level = np.zeros(n, dtype=np.int64)
    frontier = np.flatnonzero(indeg == 0)
    seen = frontier.size
    while frontier.size:
        out = np.isin(es, frontier)
        np.maximum.at(level, indices[out], level[es[out]] + 1)
        indeg -= np.bincount(indices[out], minlength=n)
        touched = np.unique(indices[out])
        frontier = touched[indeg[touched] == 0]
        seen += frontier.size
    if seen < n:
        return None
    keep = es != dag.terminal
    es, ed = es[keep], indices[keep]
    order = np.argsort(-level[es], kind="stable")
    es, ed, lv = es[order], ed[order], level[es[order]]
    plan = []
    for lvl in np.unique(lv)[::-1]:
        at = lv == lvl
        src, runs = np.unique(es[at], return_index=True)
        plan.append((ed[at], runs.astype(np.int64), src))
    return plan


def support_indicator(dag: Dag, paths) -> np.ndarray:
    m = np.zeros((len(paths), dag.dim))
    for i, path in enumerate(paths):
        sup = path.sorted_support()
        if sup.size:
            m[i, sup] = 1.0
    return m


def oracle_best_objective(dag: Dag, w: np.ndarray, paths=None) -> float:
    """max over S-T paths of ||w restricted to the path's support||_2,
    the optimum of w^T x over path-supported unit vectors."""
    if paths is None:
        paths = enumerate_paths(dag, cap=10**9)
    ind = support_indicator(dag, paths)
    return float(np.sqrt((ind @ (w * w)).max()))


def oracle_best_rayleigh(dag: Dag, sigma: np.ndarray, paths=None) -> float:
    """max over paths of the leading eigenvalue of sigma restricted to the
    path support: the exact optimum of x^T sigma x over the feasible set."""
    if paths is None:
        paths = enumerate_paths(dag, cap=10**9)
    best = -np.inf
    for path in paths:
        sup = path.sorted_support()
        if sup.size == 0:
            continue
        best = max(best, float(np.linalg.eigvalsh(sigma[np.ix_(sup, sup)])[-1]))
    return best


def assert_feasible(dag: Dag, x: np.ndarray, path, norm_tol: float = 1e-12):
    """Exact feasibility: unit norm, support inside a genuine S-T path."""
    from pathpca import is_st_path

    assert is_st_path(dag, path.vertices), f"not an S-T path: {path.vertices}"
    assert abs(np.linalg.norm(x) - 1.0) <= norm_tol
    nz = set(np.flatnonzero(x != 0.0).tolist())
    assert nz <= path.support, f"support {nz} leaves path support {path.support}"
    outside = np.ones(dag.dim, dtype=bool)
    sup = path.sorted_support()
    outside[sup] = False
    assert np.all(x[outside] == 0.0), "entries off the path must be exactly zero"


def count_factorizations(monkeypatch, p: int) -> dict[str, int]:
    """Count, from this call on, every ``np.linalg.eigh`` of a full-size
    (p, p) matrix and every ``np.linalg.cholesky``; the counts live in the
    returned dict. Stacked or smaller ``eigh`` calls (brute force's principal
    submatrices) are not counted."""
    counts = {"eigh": 0, "cholesky": 0}
    eigh, cholesky = np.linalg.eigh, np.linalg.cholesky

    def counted_eigh(a, *args, **kwargs):
        if np.shape(a) == (p, p):
            counts["eigh"] += 1
        return eigh(a, *args, **kwargs)

    def counted_cholesky(a, *args, **kwargs):
        counts["cholesky"] += 1
        return cholesky(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
    return counts


def record_projections(monkeypatch) -> list:
    """Record, from this call on, the projection of every column of each
    ``solvers._paths`` block (the power methods' iterates: per iteration,
    the running starts in start order), in order, in the returned list. A
    column's ``ProjectedVector`` is built from the block as ``project``
    builds it: ``_unit_on`` of the column on its support, and the path of
    its walk rows (``_row_path``)."""
    from pathpca import solvers
    from pathpca.projection import ProjectedVector, _row_path, _unit_on

    made = []
    paths = solvers._paths

    def recorded(dag, w):
        verts, sup, counts = paths(dag, w)
        for j in range(w.shape[1]):
            x, degenerate = _unit_on(w[:, j], sup[:counts[j], j])
            made.append(ProjectedVector(x=x, path=_row_path(dag, verts[:, j]),
                                        degenerate=degenerate))
        return verts, sup, counts

    monkeypatch.setattr(solvers, "_paths", recorded)
    return made


def one_start(monkeypatch, w):
    """From this call on, the power methods run from the one start weight w,
    whatever their restarts and seed."""
    from pathpca import solvers

    monkeypatch.setattr(solvers, "_starts", lambda s, cfg: iter([w]))


def _power_from(s: np.ndarray, step, w: np.ndarray, cfg):
    """One start of the sequential power loop from the start weight w;
    returns its best iterate (first on ties) and that iterate's path."""
    from pathpca.solvers import EstimateResult

    x, idx, path, degenerate = step(w)
    u = x[idx] @ s[idx]
    best_obj = float(x[idx] @ u[idx])
    trace = [best_obj]
    best_x, best_path = x, path
    stable, stop_reason = 0, "max_iters"
    for iterations in range(1, cfg.max_iters + 1):
        nxt, nxt_idx, path, deg = step(u)
        degenerate += deg
        u = nxt[nxt_idx] @ s[nxt_idx]
        obj = float(nxt[nxt_idx] @ u[nxt_idx])
        trace.append(obj)
        if obj > best_obj:
            best_x, best_obj, best_path = nxt, obj, path
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
    return EstimateResult(x=best_x, path=best_path, objective=best_obj,
                          iterations=iterations, trace=trace,
                          stop_reason=stop_reason, degenerate=degenerate)


def sequential_power(sigma, dag: Dag | None, k: int | None, cfg=None):
    """The power methods with their starts run one after another, one B=1
    ``project`` (or ``_top_k_unit``) per iteration: ``graph_truncated_power``
    when ``dag`` is given, else ``sparse_truncated_power`` with support size
    k. Each start runs ``_power_from``, rescaling a near-overflow weight by
    a power of two; the first start with the largest objective wins, and
    the iterations are summed over all starts."""
    from dataclasses import replace

    from pathpca import project, solvers
    from pathpca.data import prepare_covariance

    cfg = cfg if cfg is not None else solvers.PowerMethodConfig()
    s = prepare_covariance(sigma, None if dag is None else dag.dim).matrix
    limit = np.finfo(float).max / s.shape[0]

    def step(w):
        top = float(np.abs(w).max())
        if top * top >= limit:
            w = np.ldexp(w, -np.frexp(top)[1])
        if dag is None:
            x = solvers._top_k_unit(w, k)
            return x, np.flatnonzero(x), None, False
        pv = project(dag, w)
        return pv.x, pv.path.sorted_support(), pv.path, pv.degenerate

    runs = [_power_from(s, step, w, cfg) for w in solvers._starts(s, cfg)]
    best = runs[0]
    for res in runs[1:]:
        if res.objective > best.objective:
            best = res
    return replace(best, iterations=sum(r.iterations for r in runs),
                   starts=[(r.objective, r.iterations, r.stop_reason)
                           for r in runs])
