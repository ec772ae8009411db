"""Exact Euclidean projection onto unit vectors supported on an S-T path.

For a weight vector w, the nearest unit vector whose support is contained in
some S-T path of the graph is found in closed form: square the weights, pick
the S-T path maximizing the summed squared weight of its bound vertices, and
normalize w restricted to that path. Minimizing ||x - w||^2 over unit vectors
with path support is the same as maximizing w^T x, and on a fixed path the
best unit vector is the normalized restriction of w, with value ||w[path]||_2,
so the winning path is the one with the largest restricted norm.

The path search is a single longest-path pass over the DAG, linear in
|V| + |E|, followed by a walk from the source that reads the path off the DP
values. Both run on a (V, B) block of weight columns at once: ``_paths``
projects a block, ``solvers.sample_and_project`` projects its candidates
through it in chunks, and the power methods their running starts, one block
per iteration. ``project`` is the B=1 case, on 1-D arrays. There is
one DP and one walk, so single and batched projections agree bit for bit,
tie-break included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import UNBOUND, Dag, GraphStructureError, Path, _csr_gather, make_path


@dataclass(frozen=True)
class ProjectedVector:
    """Unit vector supported on ``path``; degenerate when the input weight
    vanished on every path and a uniform fallback loading was used."""

    x: np.ndarray
    path: Path
    degenerate: bool = False


def _vertex_weights(dag: Dag, w: np.ndarray) -> np.ndarray:
    """Per-vertex weights of a (dim,) vector or (dim, B) block: the weight of
    the bound variable, zero on unbound vertices."""
    out = np.zeros((dag.vertex_count,) + w.shape[1:])
    out[dag._bound_vertices] = w[dag._bound_vars]
    return out


def _best_to_terminal(dag: Dag, vw: np.ndarray) -> np.ndarray:
    """best[v] = max over S-T-suffix paths starting at v of the summed vertex
    weight, -inf where the terminal is unreachable; per column of a (V, B)
    block."""
    best = np.full(vw.shape, -np.inf)
    best[dag.terminal] = vw[dag.terminal]
    for ed, offs, src in dag._projection_plan:
        best[src] = vw[src] + np.maximum.reduceat(best[ed], offs, axis=0)
    return best


def _walk(dag: Dag, best: np.ndarray) -> np.ndarray:
    """Greedy descent through the DP values, every column of ``best`` at once.

    Each step moves each column that has not reached the terminal to its
    smallest out-neighbor attaining the largest ``best``; this yields the
    lexicographically smallest maximizing path. Returns the vertex sequence
    for a 1-D ``best``; for a (V, B) block, an (L, B) array whose column j is
    path j padded with -1 after its terminal.
    """
    # A finite best[source] means every vertex the walk visits before the
    # terminal has a successor with finite best, so the steps need no checks.
    if (best[dag.source] == -np.inf).any():
        raise GraphStructureError("terminal unreachable from source")
    cols = best.shape[1] if best.ndim == 2 else 1
    act = np.arange(cols)
    cur = np.full(cols, dag.source, dtype=np.int64)
    steps = []
    while True:
        done = cur == dag.terminal
        if np.count_nonzero(done):
            act, cur = act[~done], cur[~done]
            if not act.size:
                break
        cnt, offs, nb = _csr_gather(dag._indptr, dag._indices, cur)
        vals = best[nb] if best.ndim == 1 else best[nb, np.repeat(act, cnt)]
        hit = np.flatnonzero(vals == np.repeat(np.maximum.reduceat(vals, offs), cnt))
        cur = nb[hit[np.searchsorted(hit, offs)]]
        steps.append((act, cur))
    out = np.full((len(steps) + 1, cols), -1, dtype=np.int64)
    out[0] = dag.source
    for row, (a, v) in enumerate(steps, 1):
        out[row, a] = v
    return out if best.ndim == 2 else out[:, 0]


def _sorted_supports(dag: Dag, verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending bound variables of each path column of a ``_walk`` block:
    returns (sup, counts), column j's support being ``sup[:counts[j], j]``."""
    bind = np.where(verts >= 0, dag.binding[verts], UNBOUND)
    pad = np.iinfo(np.int64).max
    sup = np.sort(np.where(bind == UNBOUND, pad, bind), axis=0)
    dup = (sup[1:] == sup[:-1]) & (sup[1:] != pad)
    if dup.any():  # two path vertices bound to one variable
        sup[1:][dup] = pad
        sup.sort(axis=0)
    return sup, (sup != pad).sum(axis=0)


def _paths(dag: Dag, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best paths of the columns of a (dim, B) weight block, squared as in
    ``project``: the walk's (L, B) vertex rows, then ``_sorted_supports``."""
    vw = _vertex_weights(dag, w)
    np.square(vw, out=vw)
    verts = _walk(dag, _best_to_terminal(dag, vw))
    return (verts,) + _sorted_supports(dag, verts)


def _unit_on(w: np.ndarray, sup: np.ndarray) -> tuple[np.ndarray, bool]:
    """w restricted to the support ``sup`` and normalized, or the uniform
    loading on ``sup`` when w vanishes there; returns (x, degenerate)."""
    if sup.size == 0:
        raise ValueError("winning path binds no variables; no unit vector on it")
    x = np.zeros(w.shape[0])
    nrm = float(np.linalg.norm(w[sup]))
    if nrm == 0.0:
        x[sup] = 1.0 / np.sqrt(sup.size)
        return x, True
    x[sup] = w[sup] / nrm
    return x, False


def project(dag: Dag, w: np.ndarray) -> ProjectedVector:
    """Euclidean projection of w onto the unit vectors with S-T path support.

    Returns the unit vector x maximizing w^T x subject to supp(x) lying
    within a single S-T path: w restricted to the best path (largest
    restricted 2-norm, squared weights fed to the path DP) and normalized.

    If w vanishes on every bound vertex of every path, the result is flagged
    degenerate: a uniform loading on the bound vertices of the tie-break path
    (the lexicographically smallest one), or, when that path binds no
    variable, of the lexicographically first S-T path that binds one
    (``Dag._first_bound_path``). ValueError if no S-T path binds a variable,
    since no unit vector exists then, and for a w that is not finite or whose
    squares overflow.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (dag.dim,):
        raise ValueError(f"expected a vector of length {dag.dim}, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("input vector must be finite")
    vw = _vertex_weights(dag, w)
    np.square(vw, out=vw)
    best = _best_to_terminal(dag, vw)
    if not best[dag.source] < np.inf:  # +inf or nan: a square overflowed
        raise ValueError("input vector too large: its squares overflow")
    path = make_path(dag, _walk(dag, best), check=False)
    if not path.support:  # w vanishes on every path; the tie-break binds nothing
        path = dag._first_bound_path
    x, degenerate = _unit_on(w, path.sorted_support())
    return ProjectedVector(x=x, path=path, degenerate=degenerate)
