"""Experiment sweeps: planted-signal recovery across sample sizes.

A sweep runs ``trials`` independent cells per sample size n: each cell draws
a fresh planted unit vector supported on an S-T path drawn uniformly from
those that bind a variable (``random_path_vector``), samples data, forms the
empirical covariance, runs the selected solvers, and records the metrics. Seeds derive from one master seed by a fixed mixing rule (below),
so reruns of the same config write byte-identical CSVs.

Seed mixing: the cell seed for (trial, n_index) is
``SeedSequence((master, trial, n_index)).generate_state(1, uint64)[0]``.
Each draw takes one generator, ``default_rng`` of a key: the planted vector
(cell_seed, 0); the sampler (cell_seed, 1), row i of one block for column i;
sample-and-project (cell_seed, 2), one (budget, rank) block; the power
methods (cell_seed, 3) for ``power`` and (cell_seed, 4) for ``sparse-power``,
row j of one (restarts, p) block for random start j (``PowerMethodConfig``).

The power methods are local, so each cell runs them from the diagonal start
plus ``restarts`` seeded random starts and keeps the best objective. A single
diagonal start stalls far from the planted path on wide graphs (millions of
paths) even when the restricted problem is easy; a handful of restarts fixes
that at known cost. The starts run in lockstep, one batched projection per
iteration (see ``solvers._truncated_power``). The reported iteration count
sums all starts; the sidecar's ``row_starts`` lists each power row's starts
as (objective, iterations, stop reason), and is null for the other rows.

``_run_one`` is the one solver dispatch; ``pathpca solve`` calls it with no
restarts. Every default lives on ``SweepConfig``; ``solver_configs`` checks
the settings when a config is built and before ``pathpca solve`` reads files.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .data import (Covariance, SpikedModelParams, check_samples,
                   covariance_with_spectrum, gaussian_sampler,
                   random_path_vector, sample_spiked)
from .fileio import ParseError, _content_lines, load_graph
from .graph import (Dag, _layer_width, build_layer_graph, count_paths,
                    is_st_path, validate)
from .metrics import evaluate
from .solvers import (EstimateResult, PowerMethodConfig, SampleProjectConfig,
                      brute_force_solve, graph_truncated_power,
                      sample_and_project, sparse_truncated_power)

SOLVER_NAMES = ("brute", "power", "sample", "sparse-power")
CSV_COLUMNS = ("trial", "n", "solver", "seed", "status", "objective",
               "projector_loss", "jaccard", "iterations")


class ConfigError(ValueError):
    """A config setting that only the loaded graph file rules out."""


class InternalInvariantError(RuntimeError):
    """A solver output violated a guaranteed invariant; results are not
    trustworthy and nothing is written."""


def solver_configs(sparsity, cap: int, max_iters: int, tol: float, rank: int,
                   budget: int, seed=0, restarts: int = 0):
    """The power and sampler configs for ``_run_one``; ValueError for a bad setting."""
    if sparsity != "auto" and int(sparsity) < 1:
        raise ValueError('sparsity must be "auto" or a positive integer')
    if cap < 1:
        raise ValueError("cap must be at least 1")
    return (PowerMethodConfig(max_iters, tol, restarts),
            SampleProjectConfig(rank, budget, seed))


@dataclass
class SweepConfig:
    n_grid: list[int]
    trials: int
    solvers: list[str] = field(default_factory=lambda: ["power"])
    p: int | None = None
    k: int | str | None = None
    d: int | str | None = None
    graph_file: str | None = None
    model: str = "spiked"
    beta: float = 1.0
    spectrum_exponent: float = -0.25
    rank: int = 2
    budget: int = 2000
    sparsity: int | str = "auto"
    restarts: int = 5
    seed: int = 0
    cap: int = 5000
    tol: float = 1e-9
    max_iters: int = 1000

    def __post_init__(self):
        if not self.n_grid:
            raise ValueError("n grid must not be empty")
        if any(n < 1 for n in self.n_grid):
            raise ValueError("sample sizes must be positive")
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ValueError("n grid must be strictly increasing")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not self.solvers:
            raise ValueError("at least one solver is required")
        for s in self.solvers:
            if s not in SOLVER_NAMES:
                raise ValueError(f"unknown solver {s!r}; choose from {SOLVER_NAMES}")
        if len(set(self.solvers)) != len(self.solvers):
            raise ValueError("duplicate solver")
        if self.model not in ("spiked", "spectrum"):
            raise ValueError('model must be "spiked" or "spectrum"')
        if self.model == "spiked":
            SpikedModelParams.check_beta(self.beta)
        if self.model == "spectrum" and not (-np.inf < self.spectrum_exponent < 0):
            raise ValueError("spectrum_exponent must be negative and finite")
        if self.graph_file is None:
            if self.p is None or self.k is None or self.d is None:
                raise ValueError("need either graph_file or all of p, k, d")
            _layer_shape(int(self.p), self.k, self.d)
            if self.model == "spectrum":  # a layer graph's dimension is p
                _spectrum(self.spectrum_exponent, int(self.p))
        solver_configs(self.sparsity, self.cap, self.max_iters, self.tol,
                       self.rank, self.budget, restarts=self.restarts)


@dataclass
class ResultRecord:
    trial: int
    n: int
    solver: str
    seed: int
    status: str
    objective: float | None
    projector_loss: float | None
    jaccard: float | None
    iterations: int | None
    wall_time: float
    starts: list[tuple[float, int, str]] | None = None


def nearest_divisor_layers(p: int) -> int:
    """Layer count for 'k = log p': the divisor of p-2 nearest to ln(p),
    ties toward the smaller divisor."""
    if p < 3:
        raise ValueError("p must be at least 3")
    target = math.log(p)
    divisors = [k for k in range(1, p - 1) if (p - 2) % k == 0]
    return min(divisors, key=lambda k: (abs(k - target), k))


def _layer_shape(p: int, k, d) -> tuple[int, int]:
    """Layer count and out-degree of a layer graph on p vertices, with
    k = 'auto' resolved by ``nearest_divisor_layers`` and d = 'full' as the
    layer width (p-2)/k; ValueError for a shape ``build_layer_graph``
    rejects."""
    k = nearest_divisor_layers(p) if k == "auto" else int(k)
    width = _layer_width(p, k, None if d == "full" else int(d))
    return k, (width if d == "full" else int(d))


def _load_valid_graph(path) -> Dag:
    """Load a graph file and check its invariants; ParseError naming the file
    for either failure."""
    dag = load_graph(path)
    report = validate(dag)
    if not report.ok:
        raise ParseError(path, None, "; ".join(report.violations))
    return dag


def resolve_graph(cfg: SweepConfig) -> tuple[Dag, dict]:
    """Load and validate ``cfg.graph_file``, else build the layer graph of
    p, k, d; returns it plus resolved parameters."""
    if cfg.graph_file is not None:
        dag = _load_valid_graph(cfg.graph_file)
        return dag, {"graph": "provided", "vertex_count": dag.vertex_count,
                     "dim": dag.dim}
    p = int(cfg.p)
    k, d = _layer_shape(p, cfg.k, cfg.d)
    g = build_layer_graph(p, k, d)
    return g, {"p": p, "k": k, "d": d, "vertex_count": p, "dim": p}


def cell_seed(master: int, trial: int, n_index: int) -> int:
    return int(np.random.SeedSequence((master, trial, n_index))
               .generate_state(1, np.uint64)[0])


def _spectrum(exponent: float, dim: int) -> np.ndarray:
    """The spectrum model's eigenvalues i^exponent, i = 1..dim; ConfigError
    naming spectrum_exponent when the smallest underflows to 0, or when 2^e
    rounds to 1, leaving no gap for ``covariance_with_spectrum``."""
    lam = np.arange(1, dim + 1, dtype=float) ** exponent
    if not lam[-1] > 0.0:
        raise ConfigError(f"spectrum_exponent = {exponent!r} underflows to 0 "
                          f"at dimension {dim}")
    if dim >= 2 and not lam[0] > lam[1]:
        raise ConfigError(f"spectrum_exponent = {exponent!r} leaves no gap "
                          "between the top two eigenvalues")
    return lam


def check_structured_output(dag: Dag, result: EstimateResult, solver: str):
    """Path membership of a structured solver's support; guaranteed by
    construction, so a failure means the build is broken."""
    if result.path is None:
        raise InternalInvariantError(f"{solver}: no path attached to the estimate")
    if not is_st_path(dag, result.path.vertices):
        raise InternalInvariantError(f"{solver}: attached path is not an S-T path")
    nz = set(np.flatnonzero(result.x != 0.0).tolist())
    if not nz <= result.path.support:
        raise InternalInvariantError(f"{solver}: estimate support leaves its path")


def _run_one(solver: str, cov: Covariance, dag: Dag, power: PowerMethodConfig,
             sample: SampleProjectConfig, cap: int, k: int | None,
             seed: tuple) -> EstimateResult:
    """One solver on a prepared covariance, a structured solver's path checked.
    The power methods run the starts of ``power`` with the seed (*seed, 3)
    for ``power`` and (*seed, 4) for ``sparse-power`` (support size ``k``),
    so random start j is row j of the (restarts, p) draw of the stream
    (*seed, 3) or (*seed, 4)."""
    if solver == "sparse-power":  # unstructured: no path to check
        return sparse_truncated_power(cov, k, replace(power, seed=seed + (4,)))
    if solver == "power":
        res = graph_truncated_power(cov, dag, replace(power, seed=seed + (3,)))
    elif solver == "sample":
        res = sample_and_project(cov, dag, sample)
    elif solver == "brute":
        res = brute_force_solve(cov, dag, cap=cap)
    else:
        raise ValueError(f"unknown solver {solver!r}")
    check_structured_output(dag, res, solver)
    return res


def run_sweep(cfg: SweepConfig) -> tuple[list[ResultRecord], dict]:
    """Run every (trial, n, solver) cell; returns records plus the resolved
    configuration for the sidecar. Solver errors are recorded per row (the
    exception class name becomes the status) and the sweep continues.

    A cell's covariance is built from its samples once, by
    ``Covariance.from_samples`` in the row of its first solver, whose wall
    time includes that; the other solvers, all restarts and the metrics share
    it. The build checks only the matrix's scale (a sample covariance is PSD
    by construction), so a covariance that overflows fails each row with a
    NumericError, while non-finite samples fail the sweep. The sampler's
    eigenpairs are read inside the ``sample`` row: from the n x n Gram
    matrix of the samples when 2n <= p, else from one ``eigh`` of the matrix;
    a cell without the sampler decomposes nothing. The sidecar's
    ``cell_prepare_s`` holds each cell's build-and-check time, trial-major
    like the rows."""
    t0 = time.perf_counter()
    graph, graph_info = resolve_graph(cfg)
    solvers = sorted(cfg.solvers)
    power, sample = solver_configs(cfg.sparsity, cfg.cap, cfg.max_iters, cfg.tol,
                                   cfg.rank, cfg.budget, restarts=cfg.restarts)
    spectrum = (_spectrum(cfg.spectrum_exponent, graph.dim)
                if cfg.model == "spectrum" else None)
    records: list[ResultRecord] = []
    cell_prepare_s: list[float] = []
    for trial in range(cfg.trials):
        for n_index, n in enumerate(cfg.n_grid):
            cseed = cell_seed(cfg.seed, trial, n_index)
            x_star, _ = random_path_vector(graph, (cseed, 0))
            if cfg.model == "spiked":
                y = sample_spiked(SpikedModelParams(x_star, cfg.beta), n, (cseed, 1))
            else:
                y = gaussian_sampler(covariance_with_spectrum(x_star, spectrum),
                                     n, (cseed, 1))
            y = check_samples(y)  # a sampler fault fails the sweep, not a row
            k = (int(np.count_nonzero(x_star)) if cfg.sparsity == "auto"
                 else int(cfg.sparsity))
            cov, prepare_s = None, 0.0
            for solver in solvers:
                t1 = time.perf_counter()
                try:
                    if cov is None:  # built by the first solver, shared by the rest
                        cov = Covariance.from_samples(y, graph.dim)
                        y = None  # only the covariance's own copy may outlive it
                        prepare_s += time.perf_counter() - t1
                    res = _run_one(solver, cov, graph, power,
                                   replace(sample, seed=(cseed, 2)), cfg.cap,
                                   k, (cseed,))
                except InternalInvariantError:
                    raise
                except Exception as exc:
                    records.append(ResultRecord(
                        trial=trial, n=n, solver=solver, seed=cseed,
                        status=type(exc).__name__, objective=None,
                        projector_loss=None, jaccard=None, iterations=None,
                        wall_time=time.perf_counter() - t1))
                    continue
                rep = evaluate(res.x, x_star, cov.matrix)
                records.append(ResultRecord(
                    trial=trial, n=n, solver=solver, seed=cseed, status="ok",
                    objective=res.objective, projector_loss=rep.projector_loss,
                    jaccard=rep.jaccard, iterations=res.iterations,
                    wall_time=time.perf_counter() - t1, starts=res.starts))
            cell_prepare_s.append(prepare_s)
    resolved = {
        "version": __version__,
        "graph": graph_info,
        "paths": str(count_paths(graph)),
        "model": cfg.model,
        "beta": cfg.beta if cfg.model == "spiked" else None,
        "spectrum_exponent": cfg.spectrum_exponent if cfg.model == "spectrum" else None,
        "n_grid": list(cfg.n_grid),
        "trials": cfg.trials,
        "solvers": solvers,
        "rank": cfg.rank,
        "budget": cfg.budget,
        "sparsity": cfg.sparsity,
        "restarts": cfg.restarts,
        "cap": cfg.cap,
        "tol": cfg.tol,
        "max_iters": cfg.max_iters,
        "master_seed": cfg.seed,
        "seed_mixing": "cell=(SeedSequence((master,trial,n_index)).generate_state(1,"
                       "uint64)[0]); streams, one generator each: x_star=(cell,0), "
                       "samples=(cell,1) row i of one block for column i, "
                       "sample-solver=(cell,2) one (budget,rank) block, "
                       "power-restarts=(cell,3) row j of one (restarts,p) block "
                       "for start j, sparse-restarts=(cell,4) likewise",
        "total_wall_time_s": time.perf_counter() - t0,
        "row_wall_time_s": [r.wall_time for r in records],
        "row_starts": [r.starts for r in records],
        "cell_prepare_s": cell_prepare_s,
    }
    return records, resolved


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_sweep_csv(records: list[ResultRecord], path):
    """Fixed column order; wall time deliberately stays out of the CSV so
    reruns of the same config are byte-identical."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for r in records:
            fh.write(",".join(_fmt(getattr(r, c)) for c in CSV_COLUMNS) + "\n")


def write_sidecar(resolved: dict, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- config files -------------------------------------------------------------


def parse_kv_file(path) -> dict[str, str]:
    """'key = value' lines; # comments; later duplicate keys rejected."""
    out: dict[str, str] = {}
    for line_no, text in _content_lines(path):
        if "=" not in text:
            raise ParseError(path, line_no, "expected 'key = value'")
        key, _, val = text.partition("=")
        key, val = key.strip(), val.strip()
        if not key or not val:
            raise ParseError(path, line_no, "expected 'key = value'")
        if key in out:
            raise ParseError(path, line_no, f"duplicate key {key!r}")
        out[key] = val
    return out


def _int_or(word: str):
    return lambda text: text if text == word else int(text)


# config-file key -> (SweepConfig field, parser of its value)
_SWEEP_KEYS = {
    "p": ("p", int), "k": ("k", _int_or("auto")), "d": ("d", _int_or("full")),
    "graph": ("graph_file", str), "model": ("model", str),
    "beta": ("beta", float), "spectrum_exponent": ("spectrum_exponent", float),
    "n": ("n_grid", lambda text: [int(v) for v in text.split(",")]),
    "trials": ("trials", int),
    "solvers": ("solvers", lambda text: [s.strip() for s in text.split(",")]),
    "rank": ("rank", int), "budget": ("budget", int),
    "sparsity": ("sparsity", _int_or("auto")), "restarts": ("restarts", int),
    "seed": ("seed", int), "cap": ("cap", int), "tol": ("tol", float),
    "max_iters": ("max_iters", int),
}


def _parse_keys(mapping: dict[str, str], keys: dict, required) -> dict:
    """Parse the string mapping of a config file with ``keys`` (config key ->
    (name, parser of its value)); returns {name: value}. ValueError for an
    unknown or missing key, or naming the key of a value that does not
    parse."""
    unknown = set(mapping) - set(keys)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    missing = set(required) - set(mapping)
    if missing:
        raise ValueError(f"config must set: {sorted(missing)}")
    values = {}
    for key, text in mapping.items():
        name, parse = keys[key]
        try:
            values[name] = parse(text)
        except ValueError as exc:
            raise ValueError(f"{key} = {text}: {exc}") from exc
    return values


def parse_sweep_config(mapping: dict[str, str]) -> SweepConfig:
    """Build a SweepConfig from the string mapping of a config file; a key
    the file leaves out takes the SweepConfig default."""
    return SweepConfig(**_parse_keys(mapping, _SWEEP_KEYS, ("n", "trials")))
