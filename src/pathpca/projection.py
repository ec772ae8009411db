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
values. ``_paths`` is the one pipeline that runs them, for a (dim,) vector
or the columns of a (dim, B) block alike: DP, overflow check, walk, sorted
supports and the degenerate fallback. ``project`` is its one-column case,
the sampler projects its candidates through it in chunks and the power
methods their running starts, one block per iteration, so single and
batched projections agree bit for bit, tie-break included.
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
    weight, -inf where the terminal is unreachable; for a (V,) vector or per
    column of a (V, B) block."""
    best = np.full(vw.shape, -np.inf)
    best[dag.terminal] = vw[dag.terminal]
    for ed, offs, src in dag._projection_plan:
        best[src] = vw[src] + np.maximum.reduceat(best[ed], offs, axis=0)
    return best


def _walk(dag: Dag, best: np.ndarray) -> np.ndarray:
    """Greedy descent through the (V, B) DP values, every column at once.

    Each step moves each column that has not reached the terminal to its
    smallest out-neighbor attaining the largest ``best``; this yields the
    lexicographically smallest maximizing path. Returns an (L, B) array
    whose column j is path j padded with -1 after its terminal.
    """
    # A finite best[source] means every vertex the walk visits before the
    # terminal has a successor with finite best, so the steps need no checks.
    if (best[dag.source] == -np.inf).any():
        raise GraphStructureError("terminal unreachable from source")
    act = np.arange(best.shape[1])
    cur = np.full(act.size, dag.source, dtype=np.int64)
    steps = []
    while True:
        done = cur == dag.terminal
        if np.count_nonzero(done):
            act, cur = act[~done], cur[~done]
            if not act.size:
                break
        cnt, offs, nb = _csr_gather(dag._indptr, dag._indices, cur)
        vals = best[nb, np.repeat(act, cnt)]
        hit = np.flatnonzero(vals == np.repeat(np.maximum.reduceat(vals, offs), cnt))
        cur = nb[hit[np.searchsorted(hit, offs)]]
        steps.append((act, cur))
    out = np.full((len(steps) + 1, best.shape[1]), -1, dtype=np.int64)
    out[0] = dag.source
    for row, (a, v) in enumerate(steps, 1):
        out[row, a] = v
    return out


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
    """Best paths of a (dim,) weight vector or the columns of a (dim, B)
    block: the walk's (L, B) vertex rows and their ``_sorted_supports``. The
    DP runs on the squares in the shape of w; the walk reads it as (V, B). A
    column that vanishes on every path, whose tie-break path binds nothing,
    takes ``Dag._first_bound_path`` (both arrays grow when it is longer), so
    no count is 0. ValueError when a column's squares overflow or no S-T
    path binds a variable."""
    vw = _vertex_weights(dag, w)
    np.square(vw, out=vw)
    best = _best_to_terminal(dag, vw)
    if not np.all(best[dag.source] < np.inf):  # +inf or nan: a square overflowed
        raise ValueError("input vector too large: its squares overflow")
    verts = _walk(dag, best.reshape(dag.vertex_count, -1))
    sup, counts = _sorted_supports(dag, verts)
    bare = counts == 0
    if bare.any():
        first = np.array(dag._first_bound_path.vertices)
        extra = max(0, first.size - verts.shape[0])
        verts = np.pad(verts, ((0, extra), (0, 0)), constant_values=-1)
        verts[:, bare] = -1
        verts[:first.size, bare] = first[:, None]
        sup, counts = _sorted_supports(dag, verts)
    return verts, sup, counts


def _row_path(dag: Dag, col: np.ndarray) -> Path:
    """The ``Path`` of one column of ``_paths``' vertex rows."""
    return make_path(dag, col[col >= 0], check=False)


def _unit_on(w: np.ndarray, sup: np.ndarray) -> tuple[np.ndarray, bool]:
    """w restricted to the support ``sup`` and normalized, or the uniform
    loading on ``sup`` when w vanishes there; returns (x, degenerate)."""
    x = np.zeros(w.shape[0])
    nrm = float(np.linalg.norm(w[sup]))
    if nrm == 0.0:
        x[sup] = 1.0 / np.sqrt(sup.size)
        return x, True
    x[sup] = w[sup] / nrm
    return x, False


def project(dag: Dag, w: np.ndarray) -> ProjectedVector:
    """Euclidean projection of w onto the unit vectors with S-T path support:
    the unit x maximizing w^T x, w restricted to the path of largest
    restricted 2-norm and normalized; the one-column case of ``_paths``.

    If w vanishes on every bound vertex of every path, the result is flagged
    degenerate: the uniform loading on the bound vertices of the tie-break
    (lexicographically smallest) path, or, when that binds no variable, of
    ``Dag._first_bound_path``. ValueError if no S-T path binds a variable
    (no unit vector exists then), or if w is not finite or its squares
    overflow.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (dag.dim,):
        raise ValueError(f"expected a vector of length {dag.dim}, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("input vector must be finite")
    verts, sup, counts = _paths(dag, w)
    x, degenerate = _unit_on(w, sup[:counts[0], 0])
    return ProjectedVector(x=x, path=_row_path(dag, verts[:, 0]), degenerate=degenerate)
