"""Directed acyclic graphs with a designated source and terminal.

Vertices are integers 0..vertex_count-1. Each vertex may be bound to a data
variable (an index into a length-``dim`` vector); auxiliary vertices such as
the source/terminal of a group graph stay unbound and carry weight zero in
every path computation. All path operations work on S-T paths: vertex
sequences from ``source`` to ``terminal`` following edges.

Edges are stored once, as a sorted out-adjacency in CSR form (``_indptr``
row starts, ``_indices`` neighbours), built from one sort of the int64 edge
keys ``source * vertex_count + target``. Every reverse pass over the graph
(the longest-path DP of the projection, exact path counts) runs over one
plan, ``Dag._projection_plan``, so they agree on what an S-T path is, and
a vertex reaches the terminal exactly when its path count is positive. The
counts of paths, and of paths that bind a variable, come from one pass
(``_path_counts``), read by one walk (``_count_walk``). The plan's waves
are the Kahn waves of the CSR store, deepest first: wave t holds the
vertices at longest distance t from the in-degree-0 vertices, so every edge
leaves a wave for a later one. Each wave is split by out-degree class into
padded neighbour tables. The plan gives every vertex a position, the
groups' sources first in plan order, so each group owns one slice of
positions: a (D, n) table's column i lists, as positions, the
out-neighbours of the group's i-th source, padded with the sentinel
``vertex_count``. A pass runs in positions, keeps one extra value at the
sentinel, the identity of its reduction, reduces ``values[table]`` along
axis 0 into the group's slice, and maps back to vertex ids through the
plan's ``pos``.
Structure derived from the store is computed on first read and kept
(``functools.cached_property``).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

import numpy as np

UNBOUND = -1
# The most vertices whose edge keys source * n + target fit in int64.
_MAX_VERTICES = 3_037_000_499


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
    """Concatenate the CSR adjacency segments of the (non-empty) ``verts``:
    returns (counts, starts, neighbors), segment i being
    ``neighbors[starts[i]:starts[i] + counts[i]]``."""
    lo = indptr[verts]
    counts = indptr[verts + 1] - lo
    ends = counts.cumsum()
    starts = ends - counts
    return counts, starts, indices[np.arange(ends[-1]) + np.repeat(lo - starts, counts)]


class Dag:
    """Immutable DAG with source/terminal vertices and variable bindings.

    Parameters
    ----------
    vertex_count : int
        Number of vertices; ids are 0..vertex_count-1.
    edges : iterable of (int, int)
        Directed edges, in any order (duplicates are dropped). They are
        stored once, sorted, as an out-adjacency in CSR form, so neighbor
        iteration is in ascending vertex order.
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
        if not (0 < n <= _MAX_VERTICES):
            raise ValueError(f"vertex_count must be in 1..{_MAX_VERTICES}")
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
        # One key per edge; sorted keys are the edges in (source, target)
        # order, and a key equal to its left neighbour is a repeat.
        key = e[:, 0] * n
        key += e[:, 1]
        del e
        key.sort()
        key = key[np.diff(key, prepend=-1) != 0]

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
        # The one edge store: out-adjacency in CSR form, neighbors ascending.
        self._indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(key // n, minlength=n), out=self._indptr[1:])
        self._indices = key % n
        for arr in (self._binding, self._indptr, self._indices):
            arr.setflags(write=False)

    # -- basic accessors ----------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return self._n

    @property
    def edge_count(self) -> int:
        return int(self._indices.size)

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
        return np.column_stack((np.repeat(np.arange(self._n), np.diff(self._indptr)),
                                self._indices))

    def out_neighbors(self, v: int) -> np.ndarray:
        return self._indices[self._indptr[v]:self._indptr[v + 1]]

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
                and np.array_equal(self._indptr, other._indptr)
                and np.array_equal(self._indices, other._indices))

    __hash__ = None

    def __repr__(self):
        return (f"Dag(vertex_count={self._n}, edges={self.edge_count}, "
                f"source={self._source}, terminal={self._terminal}, dim={self._dim})")

    # -- cached structure ---------------------------------------------------

    @cached_property
    def _reach_terminal(self) -> np.ndarray:
        """Read-only boolean mask of vertices from which the terminal is
        reachable: those with a positive path count."""
        mask = _path_counts(self)[0] > 0
        mask.setflags(write=False)
        return mask

    @cached_property
    def _first_bound_path(self) -> Path:
        """The lexicographically first S-T path that binds a variable (the
        count walk with every draw 0), found once: a projection's fallback
        when its weight vanishes on every path and its tie-break path binds
        nothing. Raises as ``_bound_path_counts`` on every read."""
        return make_path(self, _count_walk(self, lambda total: 0), check=False)

    @cached_property
    def _projection_plan(self) -> _Plan:
        """The one reverse-level traversal (see ``_Plan``): the Kahn waves
        with out-edges, deepest first, each a list of (a, table) groups, and
        the vertices' plan positions.

        Wave 0 is the in-degree-0 vertices; wave t+1 is the vertices whose
        last in-edges leave wave t, which is exactly the vertices at longest
        edge-count distance t+1 from wave 0. So every edge runs from a wave
        to a later one, and processing the waves in order makes every edge
        target final before its source is reduced. A wave's sources are
        split by out-degree class ceil(log2(degree)), ascending, each class
        keeping its sources ascending (``_degree_tables``). A group's table
        is a (D, n) int64 array, D the largest out-degree in the class:
        column i holds the positions of the ascending out-neighbours of the
        group's i-th source, padded below with the sentinel V. Every degree
        in a class exceeds D/2, so each column pads less than it holds: the
        tables have fewer than 2|E| entries, and a hub gets a table of its
        own instead of widening its wave's.

        Positions go to the groups' sources in plan order, so the group at
        a owns the positions [a, a + n) and the groups tile [0, a_end); then
        to the terminal at a_end; then, ascending, to every other vertex
        with no out-edge; the sentinel keeps V. A reverse pass therefore
        writes each group as one slice and reads the tables as they are.
        This drives the longest-path DP of the projection and the exact path
        counts, whose positive entries are the vertices that reach the
        terminal. Edges leaving the terminal are left out: no S-T path uses
        them, and the terminal's value is fixed. A cycle leaves vertices in
        no wave: GraphStructureError.

        A wave step sorts only the targets of the wave's out-edges, so the
        pass costs O(|E| log |E|) however many waves there are. The tables
        are mapped to positions in place, so the plan holds them and two
        (V + 1,) arrays.
        """
        indptr, indices, n = self._indptr, self._indices, self._n
        has_out = indptr[1:] > indptr[:-1]
        indeg = np.bincount(indices, minlength=n)
        wave = np.flatnonzero(indeg == 0)
        seen, waves = 0, []
        while wave.size:
            seen += wave.size
            src = wave[has_out[wave] & (wave != self._terminal)]
            if src.size:
                waves.append(_degree_tables(indptr, indices, src))
            # each target of the wave's out-edges, ascending, loses one
            # in-degree per edge; those left with none form the next wave
            dsts = np.sort(_csr_gather(indptr, indices, wave)[2])
            runs = np.flatnonzero(np.diff(dsts, prepend=-1))
            indeg[dsts[runs]] -= np.diff(runs, append=dsts.size)
            dsts = dsts[runs]
            wave = dsts[indeg[dsts] == 0]
        if seen < n:
            raise GraphStructureError("graph contains a cycle")
        waves.reverse()
        pos = np.empty(n + 1, dtype=np.int64)
        a = 0
        for wave in waves:
            for i, (tab, src) in enumerate(wave):
                pos[src] = np.arange(a, a + src.size)
                wave[i] = (a, tab)
                a += src.size
        pos[self._terminal] = a
        rest = ~has_out  # every other vertex is a source or the terminal
        rest[self._terminal] = False
        pos[:n][rest] = np.arange(a + 1, n)
        pos[n] = n
        for wave in waves:
            for _, tab in wave:
                # in place: "clip" writes straight into out, where the
                # default mode buffers a copy; every entry is in range
                np.take(pos, tab, out=tab, mode="clip")
        bind = np.empty(n + 1, dtype=np.int64)
        bind[pos[:n]] = self._binding
        bind[n] = UNBOUND
        for arr in (pos, bind):
            arr.setflags(write=False)
        return _Plan(waves, pos, bind)


class _Plan(NamedTuple):
    """``Dag._projection_plan``. ``waves``: the Kahn waves with out-edges,
    deepest first, each a list of (a, table) groups whose (D, n) table lists
    in column i the out-neighbours, as positions, of the vertex at position
    a + i, padded with V. ``pos``: the (V + 1,) position of each vertex id,
    pos[V] = V. ``bind``: the (V + 1,) binding of the vertex at each
    position, ``UNBOUND`` at V, so ``values[bind]`` reads a (dim + 1)-row
    array whose last row serves the unbound vertices."""

    waves: list
    pos: np.ndarray
    bind: np.ndarray


def _degree_tables(indptr: np.ndarray, indices: np.ndarray, src: np.ndarray):
    """The (table, sources) groups of the ascending sources ``src``, all with
    out-edges: one per out-degree class ceil(log2(degree)), ascending; the
    table's column i is the out-neighbours of sources[i], as vertex ids,
    padded with the sentinel id len(indptr) - 1 to the class's largest
    degree."""
    lo = indptr[src]
    deg = indptr[src + 1] - lo
    cls = np.frexp(deg - 1)[1]  # the bit length of deg - 1: ceil(log2(deg))
    groups = []
    for c in np.unique(cls):
        at = cls == c
        d = deg[at]
        rows = np.arange(d.max())[:, None]
        tab = indices.take(lo[at] + rows, mode="clip")
        tab[rows >= d] = indptr.size - 1
        groups.append((tab, src[at]))
    return groups


# -- operations --------------------------------------------------------------


def validate(dag: Dag) -> ValidationReport:
    """Check the S-T DAG invariants, reporting every violation found."""
    violations = []
    if dag.source == dag.terminal:
        violations.append("source equals terminal")
    if (dag._indices == dag.source).any():
        violations.append("source has incoming edges")
    if dag.out_neighbors(dag.terminal).size > 0:
        violations.append("terminal has outgoing edges")
    try:
        ways, binds = _path_counts(dag)
        if not ways[dag.source]:
            violations.append("no path from source to terminal")
        elif not binds[dag.source]:
            violations.append("no S-T path binds a variable")
    except GraphStructureError:
        violations.append("graph contains a cycle")
    bound = np.sort(dag.binding[dag.binding != UNBOUND])
    if (bound[1:] == bound[:-1]).any():
        violations.append("duplicate variable binding")
    return ValidationReport(ok=not violations, violations=tuple(violations))


def _path_counts(dag: Dag) -> tuple[np.ndarray, np.ndarray]:
    """(ways, binds): ways[v] is the exact number of paths from v to the
    terminal and binds[v] the number of those that bind a variable, as
    Python integers in object arrays (so never overflowing), summed over the
    projection plan. binds is ways less the ``free`` paths, whose vertices
    are all unbound. The pass runs in plan positions, one slice per group,
    with a 0 at the sentinel V, and returns V entries in vertex order."""
    n, plan = dag.vertex_count, dag._projection_plan
    unbound = plan.bind == UNBOUND
    ways = np.zeros(n + 1, dtype=object)
    ways[plan.pos[dag.terminal]] = 1
    free = ways * unbound
    for wave in plan.waves:
        for a, tab in wave:
            b = a + tab.shape[1]
            ways[a:b] = ways[tab].sum(axis=0)
            free[a:b] = free[tab].sum(axis=0) * unbound[a:b]
    at = plan.pos[:n]
    return ways[at], ways[at] - free[at]


def _bound_path_counts(dag: Dag) -> tuple[np.ndarray, np.ndarray]:
    """``_path_counts``; GraphStructureError when the terminal is unreachable
    from the source, ValueError when no S-T path binds a variable."""
    ways, binds = _path_counts(dag)
    if not ways[dag.source]:
        raise GraphStructureError("terminal unreachable from source")
    if not binds[dag.source]:
        raise ValueError("no S-T path binds any variable")
    return ways, binds


def _count_walk(dag: Dag, draw) -> list[int]:
    """The vertices of an S-T path that binds a variable. Each step from the
    source weighs the out-neighbours by ``binds`` until the path binds a
    variable, then by ``ways`` (``_path_counts``), draws r = ``draw(total)``
    in [0, total) and takes the first neighbour whose running sum passes r:
    a uniform draw gives each S-T path that binds a variable equal odds, and
    r = 0 the lexicographically first. Raises as ``_bound_path_counts``."""
    ways, binds = _bound_path_counts(dag)
    bound = dag.binding != UNBOUND
    cur, verts, weight = dag.source, [dag.source], binds
    while cur != dag.terminal:
        if bound[cur]:
            weight = ways
        nbrs = dag.out_neighbors(cur).tolist()
        acc = list(accumulate(weight[u] for u in nbrs))
        cur = nbrs[bisect_right(acc, draw(acc[-1]))]
        verts.append(cur)
    return verts


def count_paths(dag: Dag) -> int:
    """Exact number of S-T paths (Python integers, so never overflows)."""
    return _path_counts(dag)[0][dag.source]


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


def _path_array(dag: Dag, cap: int = 10000) -> np.ndarray:
    """All S-T paths as the rows of an int array, in lexicographic order,
    each padded with -1 after its terminal; an empty (0, 1) array when
    there is none.

    Built level by level: each open row is repeated once per out-neighbor
    that reaches the terminal, ascending, and a finished row is kept once
    with one more -1, so the rows stay in depth-first order. Refuses to
    enumerate when ``count_paths(dag) > cap``.
    """
    total = count_paths(dag)
    if total > cap:
        raise ValueError(f"path count {total} exceeds cap {cap}")
    if total == 0:
        return np.empty((0, 1), dtype=np.int64)
    reach = dag._reach_terminal
    rows = np.array([[dag.source]], dtype=np.int64)
    live = rows[:, -1] != dag.terminal
    while live.any():
        # a live row ends at a vertex that reaches the terminal and is not
        # it, so its segment is non-empty, as reduceat needs
        _, starts, nb = _csr_gather(dag._indptr, dag._indices, rows[live, -1])
        keep = reach[nb]
        rep = np.ones(rows.shape[0], dtype=np.int64)
        rep[live] = np.add.reduceat(keep, starts, dtype=np.int64)
        grown = np.repeat(live, rep)
        rows = np.column_stack((np.repeat(rows, rep, axis=0),
                                np.full(grown.size, -1, dtype=np.int64)))
        rows[grown, -1] = nb[keep]
        live = grown & (rows[:, -1] != dag.terminal)
    return rows


def enumerate_paths(dag: Dag, cap: int = 10000) -> list[Path]:
    """All S-T paths in lexicographic vertex-sequence order: one ``Path`` per
    row of the path array (see ``_path_array``).

    Refuses to enumerate when ``count_paths(dag) > cap``.
    """
    rows = _path_array(dag, cap)
    lengths = np.count_nonzero(rows >= 0, axis=1)
    return [make_path(dag, r[:n], check=False)
            for r, n in zip(rows.tolist(), lengths.tolist())]


# -- constructions ------------------------------------------------------------


def _layer_width(p: int, k: int, d: int | None) -> int:
    """The width (p-2)/k of each layer of the layer graph on p vertices with
    k layers and out-degree d; ValueError unless p >= 3, k >= 1, k divides
    p-2 and 1 <= d <= (p-2)/k (d=None: any out-degree)."""
    if p < 3:
        raise ValueError("p must be at least 3")
    if k < 1:
        raise ValueError("k must be at least 1")
    if (p - 2) % k != 0:
        raise ValueError(f"(p-2)={p - 2} is not divisible by k={k}")
    m = (p - 2) // k
    if d is not None and not (1 <= d <= m):
        raise ValueError(f"d={d} must be in 1..{m} (the layer width)")
    return m


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
    m = _layer_width(p, k, d)

    # one (E, 2) edge array, filled in place: the source's m edges, the
    # (k - 1) * m * d edges between layers, the last layer's m edges
    edges = np.empty((m * (2 + (k - 1) * d), 2), dtype=np.int64)
    edges[:m, 0] = 0
    edges[:m, 1] = np.arange(1, m + 1)
    wired = edges[m:-m].reshape(k - 1, m * d, 2)
    first = 1 + m * np.arange(k - 1, dtype=np.int64)[:, None]  # of layers 0..k-2
    np.add(np.repeat(np.arange(m), d), first, out=wired[:, :, 0])
    np.add(((np.arange(m)[:, None] + np.arange(d)) % m).ravel(), first + m,
           out=wired[:, :, 1])
    edges[-m:, 0] = np.arange(p - 1 - m, p - 1)
    edges[-m:, 1] = p - 1
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
