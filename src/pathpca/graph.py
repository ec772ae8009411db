"""Directed acyclic graphs with a designated source and terminal.

Vertices are integers 0..vertex_count-1. Each vertex may be bound to a data
variable (an index into a length-``dim`` vector); auxiliary vertices such as
the source/terminal of a group graph stay unbound and carry weight zero in
every path computation. All path operations work on S-T paths: vertex
sequences from ``source`` to ``terminal`` following edges.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

UNBOUND = -1


class GraphStructureError(ValueError):
    """Raised when an operation needs DAG structure the graph does not have."""


@dataclass(frozen=True)
class Path:
    """An S-T path: its vertex sequence and the variable indices bound on it."""

    vertices: tuple[int, ...]
    support: frozenset[int]

    def sorted_support(self) -> np.ndarray:
        return np.array(sorted(self.support), dtype=np.int64)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


def _csr_gather(indptr: np.ndarray, indices: np.ndarray, verts: np.ndarray):
    """Flatten the CSR adjacency slices of ``verts`` into (srcs, neighbors)."""
    counts = indptr[verts + 1] - indptr[verts]
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    cum = np.cumsum(counts)
    offs = np.repeat(indptr[verts] - (cum - counts), counts)
    flat = indices[offs + np.arange(total, dtype=np.int64)]
    return np.repeat(verts, counts), flat


class Dag:
    """Immutable DAG with source/terminal vertices and variable bindings.

    Parameters
    ----------
    vertex_count : int
        Number of vertices; ids are 0..vertex_count-1.
    edges : iterable of (int, int)
        Directed edges (duplicates are dropped; the edge list is stored
        sorted, so neighbor iteration is in ascending vertex order).
    source, terminal : int
        The designated S and T vertices.
    binding : mapping or sequence, optional
        Vertex -> variable index. A dict binds the listed vertices only
        (an empty dict binds nothing); a sequence must have one entry per
        vertex with ``UNBOUND`` (-1) for unbound vertices. Omitted means
        the identity binding: vertex v carries variable v.
    dim : int, optional
        Length of the data vectors the graph addresses. Defaults to
        ``max(bound index) + 1`` (0 when nothing is bound).
    """

    def __init__(self, vertex_count, edges, source, terminal, binding=None, dim=None):
        n = int(vertex_count)
        if n <= 0:
            raise ValueError("vertex_count must be positive")
        e = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                       dtype=np.int64)
        if e.size == 0:
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValueError("edges must be pairs of vertex ids")
        if e.size and (e.min() < 0 or e.max() >= n):
            raise ValueError("edge endpoint out of range")
        if not (0 <= source < n) or not (0 <= terminal < n):
            raise ValueError("source/terminal out of range")
        if e.size:
            e = np.unique(e, axis=0)  # sorts lexicographically and dedupes

        if binding is None:
            bind = np.arange(n, dtype=np.int64)
        else:
            bind = np.full(n, UNBOUND, dtype=np.int64)
            if isinstance(binding, dict):
                for v, idx in binding.items():
                    if not (0 <= int(v) < n):
                        raise ValueError(f"bound vertex {v} out of range")
                    bind[int(v)] = int(idx)
            else:
                arr = np.asarray(binding, dtype=np.int64)
                if arr.shape != (n,):
                    raise ValueError("binding sequence must have one entry per vertex")
                bind = arr.copy()
        if (bind < UNBOUND).any():
            raise ValueError("binding indices must be >= -1")

        bound = bind[bind != UNBOUND]
        inferred = int(bound.max()) + 1 if bound.size else 0
        self._dim = inferred if dim is None else int(dim)
        if self._dim < inferred:
            raise ValueError(f"dim={dim} smaller than max bound index {inferred - 1}")

        self._n = n
        self._source = int(source)
        self._terminal = int(terminal)
        self._binding = bind
        self._e_src = e[:, 0].copy()
        self._e_dst = e[:, 1].copy()

        # CSR adjacency, both directions; neighbor lists ascending.
        self._out_indptr, self._out_indices = self._csr(self._e_src, self._e_dst)
        self._in_indptr, self._in_indices = self._csr(self._e_dst, self._e_src)

        self._bound_vertices = np.flatnonzero(bind != UNBOUND)
        self._bound_vars = bind[self._bound_vertices]
        for arr in (self._binding, self._e_src, self._e_dst, self._out_indptr,
                    self._out_indices, self._in_indptr, self._in_indices,
                    self._bound_vertices, self._bound_vars):
            arr.setflags(write=False)
        self._levels = None
        self._level_ok = None
        self._dp_plan = None
        self._reach_t = None

    def _csr(self, frm, to):
        order = np.lexsort((to, frm))
        indptr = np.zeros(self._n + 1, dtype=np.int64)
        np.add.at(indptr, frm + 1, 1)
        np.cumsum(indptr, out=indptr)
        return indptr, to[order].copy()

    # -- basic accessors ----------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return self._n

    @property
    def edge_count(self) -> int:
        return int(self._e_src.size)

    @property
    def source(self) -> int:
        return self._source

    @property
    def terminal(self) -> int:
        return self._terminal

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def binding(self) -> np.ndarray:
        return self._binding

    def edges(self) -> np.ndarray:
        """Edge list as an (m, 2) array, sorted lexicographically."""
        return np.column_stack((self._e_src, self._e_dst))

    def out_neighbors(self, v: int) -> np.ndarray:
        return self._out_indices[self._out_indptr[v]:self._out_indptr[v + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        return self._in_indices[self._in_indptr[v]:self._in_indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.out_neighbors(u)
        i = np.searchsorted(nbrs, v)
        return bool(i < nbrs.size and nbrs[i] == v)

    def __eq__(self, other):
        if not isinstance(other, Dag):
            return NotImplemented
        return (self._n == other._n and self._source == other._source
                and self._terminal == other._terminal and self._dim == other._dim
                and np.array_equal(self._binding, other._binding)
                and np.array_equal(self._e_src, other._e_src)
                and np.array_equal(self._e_dst, other._e_dst))

    __hash__ = None

    def __repr__(self):
        return (f"Dag(vertex_count={self._n}, edges={self.edge_count}, "
                f"source={self._source}, terminal={self._terminal}, dim={self._dim})")

    # -- cached structure ---------------------------------------------------

    def _level_info(self):
        """Longest edge-count distance from in-degree-0 vertices, by Kahn waves.

        Returns (levels, acyclic). Levels of vertices on or behind a cycle are
        not meaningful when acyclic is False.
        """
        if self._levels is not None:
            return self._levels, self._level_ok
        n = self._n
        indeg = np.bincount(self._e_dst, minlength=n)
        level = np.zeros(n, dtype=np.int64)
        frontier = np.flatnonzero(indeg == 0).astype(np.int64)
        seen = int(frontier.size)
        while frontier.size:
            srcs, dsts = _csr_gather(self._out_indptr, self._out_indices, frontier)
            if dsts.size == 0:
                break
            np.maximum.at(level, dsts, level[srcs] + 1)
            indeg -= np.bincount(dsts, minlength=n)
            touched = np.unique(dsts)
            frontier = touched[indeg[touched] == 0]
            seen += int(frontier.size)
        self._levels = level
        self._level_ok = seen == n
        self._levels.setflags(write=False)
        return self._levels, self._level_ok

    def _reach_terminal(self) -> np.ndarray:
        """Boolean mask of vertices from which the terminal is reachable."""
        if self._reach_t is not None:
            return self._reach_t
        mask = np.zeros(self._n, dtype=bool)
        mask[self._terminal] = True
        frontier = np.array([self._terminal], dtype=np.int64)
        while frontier.size:
            _, preds = _csr_gather(self._in_indptr, self._in_indices, frontier)
            if preds.size == 0:
                break
            new = np.unique(preds[~mask[preds]])
            mask[new] = True
            frontier = new
        self._reach_t = mask
        self._reach_t.setflags(write=False)
        return mask

    def _projection_plan(self):
        """Edges grouped by source level, descending, runs per source.

        Used by the longest-path DP: processing groups in this order makes
        every edge target final before its source is reduced.
        """
        if self._dp_plan is not None:
            return self._dp_plan
        levels, ok = self._level_info()
        if not ok:
            raise GraphStructureError("graph contains a cycle")
        if self._e_src.size == 0:
            self._dp_plan = []
            return self._dp_plan
        lv = levels[self._e_src]
        order = np.lexsort((self._e_dst, self._e_src, -lv))
        es, ed, lvs = self._e_src[order], self._e_dst[order], lv[order]
        run_starts = np.flatnonzero(np.r_[True, es[1:] != es[:-1]])
        chunk_starts = np.flatnonzero(np.r_[True, lvs[1:] != lvs[:-1]])
        chunk_bounds = np.r_[chunk_starts, es.size]
        run_src = es[run_starts]
        plan = []
        for a, b in zip(chunk_bounds[:-1], chunk_bounds[1:]):
            lo = np.searchsorted(run_starts, a)
            hi = np.searchsorted(run_starts, b)
            plan.append((ed[a:b], run_starts[lo:hi] - a, run_src[lo:hi]))
        self._dp_plan = plan
        return plan


# -- operations --------------------------------------------------------------


def validate(dag: Dag) -> ValidationReport:
    """Check the S-T DAG invariants, reporting every violation found."""
    violations = []
    if dag.source == dag.terminal:
        violations.append("source equals terminal")
    if dag.in_neighbors(dag.source).size > 0:
        violations.append("source has incoming edges")
    if dag.out_neighbors(dag.terminal).size > 0:
        violations.append("terminal has outgoing edges")
    _, acyclic = dag._level_info()
    if not acyclic:
        violations.append("graph contains a cycle")
    elif not dag._reach_terminal()[dag.source]:
        violations.append("no path from source to terminal")
    bound = dag.binding[dag.binding != UNBOUND]
    if bound.size and bound.max() >= dag.dim:
        violations.append("bound variable index out of range")
    if np.unique(bound).size != bound.size:
        violations.append("duplicate variable binding")
    return ValidationReport(ok=not violations, violations=tuple(violations))


def topological_order(dag: Dag) -> np.ndarray:
    """Topological order of all vertices, ties broken by ascending vertex id."""
    n = dag.vertex_count
    indeg = np.bincount(dag._e_dst, minlength=n).tolist()
    heap = [v for v in range(n) if indeg[v] == 0]
    heapq.heapify(heap)
    indptr, nbrs = dag._out_indptr, dag._out_indices
    order = []
    while heap:
        u = heapq.heappop(heap)
        order.append(u)
        for v in nbrs[indptr[u]:indptr[u + 1]].tolist():
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(heap, v)
    if len(order) != n:
        raise GraphStructureError("graph contains a cycle")
    return np.asarray(order, dtype=np.int64)


def _ways_to_terminal(dag: Dag) -> list[int]:
    """ways[v] = exact number of paths from v to the terminal, as Python
    integers (so never overflowing), filled in reverse level order."""
    levels, acyclic = dag._level_info()
    if not acyclic:
        raise GraphStructureError("graph contains a cycle")
    ways = [0] * dag.vertex_count
    ways[dag.terminal] = 1
    indptr, nbrs = dag._out_indptr, dag._out_indices
    for v in np.argsort(-levels, kind="stable").tolist():
        if v != dag.terminal:
            ways[v] = sum(ways[u] for u in nbrs[indptr[v]:indptr[v + 1]].tolist())
    return ways


def count_paths(dag: Dag) -> int:
    """Exact number of S-T paths (Python integers, so never overflows)."""
    return _ways_to_terminal(dag)[dag.source]


def make_path(dag: Dag, vertices, check: bool = True) -> Path:
    """Build a Path from a vertex sequence, collecting its bound support.

    With ``check`` (the default) the sequence must be a genuine S-T path.
    """
    verts = tuple(int(v) for v in vertices)
    if check and not is_st_path(dag, verts):
        raise ValueError(f"{verts} is not a source-to-terminal path")
    sup = frozenset(int(dag.binding[v]) for v in verts if dag.binding[v] != UNBOUND)
    return Path(vertices=verts, support=sup)


def is_st_path(dag: Dag, vertices) -> bool:
    """True when ``vertices`` is a source-to-terminal path along edges."""
    verts = list(vertices)
    if not verts or verts[0] != dag.source or verts[-1] != dag.terminal:
        return False
    if any(not (0 <= v < dag.vertex_count) for v in verts):
        return False
    if len(set(verts)) != len(verts):
        return False
    return all(dag.has_edge(u, v) for u, v in zip(verts[:-1], verts[1:]))


def enumerate_paths(dag: Dag, cap: int = 10000) -> list[Path]:
    """All S-T paths in lexicographic vertex-sequence order.

    Refuses to enumerate when ``count_paths(dag) > cap``.
    """
    total = count_paths(dag)
    if total > cap:
        raise ValueError(f"path count {total} exceeds cap {cap}")
    if total == 0:
        return []
    if dag.source == dag.terminal:
        return [make_path(dag, (dag.source,))]
    reach = dag._reach_terminal()

    def succ(v):
        nb = dag.out_neighbors(v)
        return iter(nb[reach[nb]].tolist())

    out = []
    path = [dag.source]
    stack = [succ(dag.source)]
    while stack:
        u = next(stack[-1], None)
        if u is None:
            stack.pop()
            path.pop()
            continue
        path.append(u)
        if u == dag.terminal:
            out.append(make_path(dag, path, check=False))
            path.pop()
        else:
            stack.append(succ(u))
    return out


# -- constructions ------------------------------------------------------------


def build_layer_graph(p: int, k: int, d: int) -> Dag:
    """Layer graph on ``p`` vertices: k interior layers of (p-2)/k vertices.

    Vertex 0 is the source, vertex p-1 the terminal, and layer i occupies the
    ids in between, in order. The source feeds the whole first layer, the last
    layer feeds the terminal, and interior vertex j of a layer connects to
    vertices (j+t) mod m, t = 0..d-1, of the next layer, which spreads the d
    out-edges evenly and gives interior layers in-degree d as well. Every
    vertex is bound to the variable with its own id.

    The number of S-T paths is ((p-2)/k) * d**(k-1).
    """
    p, k, d = int(p), int(k), int(d)
    if p < 3:
        raise ValueError("p must be at least 3")
    if k < 1:
        raise ValueError("k must be at least 1")
    if (p - 2) % k != 0:
        raise ValueError(f"(p-2)={p - 2} is not divisible by k={k}")
    m = (p - 2) // k
    if not (1 <= d <= m):
        raise ValueError(f"d={d} must be in 1..{m} (the layer width)")

    layer = [np.arange(1 + i * m, 1 + (i + 1) * m, dtype=np.int64) for i in range(k)]
    srcs = [np.zeros(m, dtype=np.int64)]
    dsts = [layer[0]]
    offs = np.arange(d, dtype=np.int64)
    for i in range(k - 1):
        j = np.arange(m, dtype=np.int64)
        srcs.append(np.repeat(layer[i], d))
        dsts.append(layer[i + 1][((j[:, None] + offs[None, :]) % m).ravel()])
    srcs.append(layer[-1])
    dsts.append(np.full(m, p - 1, dtype=np.int64))
    edges = np.column_stack((np.concatenate(srcs), np.concatenate(dsts)))
    return Dag(p, edges, source=0, terminal=p - 1, binding=np.arange(p), dim=p)


def build_group_graph(groups) -> Dag:
    """Chain-of-groups graph: one bound vertex per variable, grouped in layers.

    ``groups`` is an ordered collection of variable-index collections. Each
    group becomes a layer; consecutive layers are completely connected, and an
    unbound auxiliary source/terminal is attached at the ends, so every S-T
    path selects exactly one variable from each group. The number of S-T
    paths is the product of the group sizes.
    """
    groups = [list(map(int, g)) for g in groups]
    if not groups or any(not g for g in groups):
        raise ValueError("groups must be a non-empty list of non-empty groups")
    flat = [v for g in groups for v in g]
    if len(set(flat)) != len(flat):
        raise ValueError("groups must not share variables")
    if min(flat) < 0:
        raise ValueError("variable indices must be nonnegative")

    n = len(flat) + 2
    binding = np.full(n, UNBOUND, dtype=np.int64)
    layer_ids = []
    nxt = 1
    for g in groups:
        ids = np.arange(nxt, nxt + len(g), dtype=np.int64)
        binding[ids] = g
        layer_ids.append(ids)
        nxt += len(g)

    srcs = [np.zeros(len(groups[0]), dtype=np.int64)]
    dsts = [layer_ids[0]]
    for a, b in zip(layer_ids[:-1], layer_ids[1:]):
        srcs.append(np.repeat(a, b.size))
        dsts.append(np.tile(b, a.size))
    srcs.append(layer_ids[-1])
    dsts.append(np.full(layer_ids[-1].size, n - 1, dtype=np.int64))
    edges = np.column_stack((np.concatenate(srcs), np.concatenate(dsts)))
    return Dag(n, edges, source=0, terminal=n - 1, binding=binding,
               dim=max(flat) + 1)
