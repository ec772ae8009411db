"""Output checks of the benchmark, computed apart from pathpca.

Each check returns a list of problems, empty when the output is right. The
references are the benchmark's own: a layered DP over the circulant layer
graph's edge arithmetic, a covariance computed with numpy from the sample
CSV, a graph read straight from the graph file, and properties the method
must have (the exact solver is never beaten, losses and distances stay in
range, a sweep's CSV is the same on every rerun, recovery improves with n).
"""

from __future__ import annotations

import csv
import io
import math
import statistics

import numpy as np

# Captured at import, before a traced run wraps numpy.linalg, so the checks'
# own decompositions never show up as pathpca work.
_eigvalsh = np.linalg.eigvalsh

REL = 1e-9
SQRT2 = math.sqrt(2.0)


def _close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# -- projection on the layer graph ------------------------------------------------


def layer_path_optimum(w: np.ndarray, p: int, k: int, d: int) -> float:
    """Largest sum of w**2 over the S-T paths of build_layer_graph(p, k, d).

    Vertex 0 is the source, p-1 the terminal, layer i holds 1+i*m..(i+1)*m
    with m = (p-2)/k, and vertex j of a layer feeds (j+t) mod m, t < d, of
    the next one.
    """
    m = (p - 2) // k
    w2 = w * w
    layers = w2[1:p - 1].reshape(k, m)
    best = layers[-1].copy()
    for i in range(k - 2, -1, -1):
        reach = best.copy()
        for t in range(1, d):
            np.maximum(reach, np.roll(best, -t), out=reach)
        best = layers[i] + reach
    return float(w2[0] + w2[p - 1] + best.max())


def layer_projection(w: np.ndarray, vertices, x: np.ndarray, optimum: float,
                     p: int, k: int, d: int) -> list[str]:
    """Check project(build_layer_graph(p, k, d), w) returned (vertices, x)."""
    m = (p - 2) // k
    verts = [int(v) for v in vertices]
    problems = []
    if len(verts) != k + 2 or verts[0] != 0 or verts[-1] != p - 1:
        return [f"path {verts[:4]}... is not source..terminal with {k} layers"]
    cols = []
    for i, v in enumerate(verts[1:-1]):
        if not (1 + i * m <= v < 1 + (i + 1) * m):
            return [f"path vertex {v} is not in layer {i}"]
        cols.append(v - 1 - i * m)
    if any((b - a) % m >= d for a, b in zip(cols, cols[1:])):
        problems.append("path steps along a pair that is not an edge")
    nrm = float(np.linalg.norm(x))
    if not _close(nrm, 1.0, 1e-12):
        problems.append(f"x has norm {nrm!r}, not 1")
    on_path = np.zeros(p, dtype=bool)
    on_path[verts] = True
    if np.any(x[~on_path] != 0.0):
        problems.append("x has support off its path")
    weight = float(np.sum(w[verts] ** 2))
    if not _close(weight, optimum):
        problems.append(f"path weight {weight!r} differs from the optimum {optimum!r}")
    expect = w[verts] / math.sqrt(weight)
    if not np.allclose(x[verts], expect, rtol=0.0, atol=1e-12):
        problems.append("x is not w restricted to the path, normalized")
    return problems


# -- sweeps -------------------------------------------------------------------------


def parse_sweep_csv(text: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text.decode("utf-8"))))


def sweep_rows(rows: list[dict], trials: int, n_grid, solvers) -> list[str]:
    """Row count, value ranges, and the exact solver never beaten by a
    heuristic on the same (trial, n) cell. Rows whose status is not ``ok``
    are failed operations and are not checked further."""
    expect = trials * len(n_grid) * len(solvers)
    problems = []
    if len(rows) != expect:
        problems.append(f"{len(rows)} rows, expected {expect}")
    cells: dict[tuple, dict] = {}
    for r in rows:
        if r["status"] != "ok":
            continue
        where = f"row trial={r['trial']} n={r['n']} {r['solver']}"
        loss, jac, obj = float(r["projector_loss"]), float(r["jaccard"]), float(r["objective"])
        if not 0.0 <= loss <= SQRT2 + 1e-12:
            problems.append(f"{where}: projector loss {loss!r} outside [0, sqrt 2]")
        if not 0.0 <= jac <= 1.0:
            problems.append(f"{where}: jaccard {jac!r} outside [0, 1]")
        if not math.isfinite(obj):
            problems.append(f"{where}: objective {obj!r} is not finite")
        cells.setdefault((r["trial"], r["n"]), {})[r["solver"]] = obj
    for (trial, n), objs in sorted(cells.items()):
        if "brute" not in objs:
            continue
        for heuristic in ("power", "sample"):
            if heuristic in objs and objs[heuristic] > objs["brute"] + REL * max(1.0, abs(objs["brute"])):
                problems.append(f"cell trial={trial} n={n}: {heuristic} objective "
                                f"{objs[heuristic]!r} beats brute {objs['brute']!r}")
    return problems


def recovery(rows: list[dict], solver: str = "power") -> list[str]:
    """Median projector loss of ``solver`` at the largest n is below that at
    the smallest n: the estimate improves with more samples."""
    by_n: dict[int, list[float]] = {}
    for r in rows:
        if r["solver"] == solver and r["status"] == "ok":
            by_n.setdefault(int(r["n"]), []).append(float(r["projector_loss"]))
    if len(by_n) < 2:
        return [f"no {solver} rows at two sample sizes"]
    lo, hi = statistics.median(by_n[min(by_n)]), statistics.median(by_n[max(by_n)])
    if not hi < lo:
        return [f"{solver} loss {hi!r} at n={max(by_n)} is not below {lo!r} at n={min(by_n)}"]
    return []


# -- pathpca solve ------------------------------------------------------------------


def read_graph_file(path) -> dict:
    """Source, terminal, edge set and bindings of a graph file."""
    graph = {"edges": set(), "bind": {}}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        for field in header:
            key, _, value = field.partition("=")
            graph[key] = int(value)
        for line in fh:
            parts = line.split("#", 1)[0].split()
            if parts and parts[0] == "edge":
                graph["edges"].add((int(parts[1]), int(parts[2])))
            elif parts and parts[0] == "bind":
                graph["bind"][int(parts[1])] = int(parts[2])
    return graph


def read_vector_file(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return np.array([float(t) for t in fh.read().split("\n")
                         if t.strip() and not t.startswith("#")])


def solve_record(record: dict, x: np.ndarray, graph: dict, sigma: np.ndarray,
                 lam_max: float, sparsity: int | None = None) -> list[str]:
    """Check one ``pathpca solve`` result: its JSON record and --out vector.

    ``sigma`` is the benchmark's covariance of the same data and ``lam_max``
    its largest eigenvalue. Structured solvers must return an S-T path of
    the graph file with the support on it; the sparse baseline
    (``sparsity`` given) a support of that size.
    """
    problems = []
    nrm = float(np.linalg.norm(x))
    if not _close(nrm, 1.0, 1e-12):
        problems.append(f"x has norm {nrm!r}, not 1")
    support = np.flatnonzero(x).tolist()
    if record.get("support") != support:
        problems.append("record support differs from the nonzeros of x")
    if sparsity is not None:
        if len(support) != sparsity:
            problems.append(f"support has {len(support)} entries, expected {sparsity}")
    else:
        path = record.get("path") or []
        steps = list(zip(path, path[1:]))
        if (not path or path[0] != graph["source"] or path[-1] != graph["terminal"]
                or len(set(path)) != len(path) or any(s not in graph["edges"] for s in steps)):
            problems.append("path is not a source-terminal path of the graph file")
        on_path = {graph["bind"][v] for v in path if v in graph["bind"]}
        if not set(support) <= on_path:
            problems.append("support leaves the path")
    quad = float(x @ sigma @ x)
    obj = float(record.get("objective", math.nan))
    if not _close(obj, quad):
        problems.append(f"objective {obj!r} is not x^T sigma x = {quad!r}")
    if not obj <= lam_max * (1.0 + REL):
        problems.append(f"objective {obj!r} exceeds lambda_max {lam_max!r}")
    for key, top in (("projector_loss", SQRT2 + 1e-12), ("jaccard", 1.0)):
        if key in record and not 0.0 <= record[key] <= top:
            problems.append(f"{key} {record[key]!r} out of range")
    return problems


def lambda_max(y: np.ndarray) -> float:
    """Largest eigenvalue of the covariance Y Y^T / n of a (p, n) sample
    matrix, from the n x n Gram matrix, which has the same nonzero spectrum."""
    return float(_eigvalsh(y.T @ y / y.shape[1])[-1])
