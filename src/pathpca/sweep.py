"""Experiment sweeps: planted-signal recovery across sample sizes.

A sweep runs ``trials`` independent cells per sample size n: each cell draws
a fresh planted unit vector supported on a random S-T path, samples data,
forms the empirical covariance, runs the selected solvers, and records the
metrics. Seeds derive from one master seed by a fixed mixing rule (below),
so reruns of the same config write byte-identical CSVs.

Seed mixing: the cell seed for (trial, n_index) is
``SeedSequence((master, trial, n_index)).generate_state(1, uint64)[0]``;
the planted vector uses stream (cell_seed, 0), the sampler (cell_seed, 1),
sample-and-project (cell_seed, 2), and random restarts of the two power
methods (cell_seed, 3, j) and (cell_seed, 4, j) for restart j.

The power methods are local, so each cell runs them from the diagonal start
plus ``restarts`` seeded random starts and keeps the best objective. A single
diagonal start stalls far from the planted path on wide graphs (millions of
paths) even when the restricted problem is easy; a handful of restarts fixes
that at known cost. The reported iteration count sums all starts.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .data import (Covariance, SpikedModelParams, covariance_with_spectrum,
                   empirical_covariance, gaussian_sampler, prepare_covariance,
                   random_path_vector, sample_spiked)
from .graph import Dag, build_layer_graph, count_paths, is_st_path
from .metrics import evaluate
from .solvers import (EstimateResult, PowerMethodConfig, SampleProjectConfig,
                      brute_force_solve, graph_truncated_power,
                      sample_and_project, sparse_truncated_power)

SOLVER_NAMES = ("brute", "power", "sample", "sparse-power")
CSV_COLUMNS = ("trial", "n", "solver", "seed", "status", "objective",
               "projector_loss", "jaccard", "iterations")


class InternalInvariantError(RuntimeError):
    """A solver output violated a guaranteed invariant; results are not
    trustworthy and nothing is written."""


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
        if self.model == "spiked" and self.beta < 0:
            raise ValueError("beta must be nonnegative")
        if self.model == "spectrum" and not (self.spectrum_exponent < 0):
            raise ValueError("spectrum_exponent must be negative")
        if self.graph_file is None:
            if self.p is None or self.k is None or self.d is None:
                raise ValueError("need either graph_file or all of p, k, d")
        if self.sparsity != "auto" and int(self.sparsity) < 1:
            raise ValueError('sparsity must be "auto" or a positive integer')
        if self.restarts < 0:
            raise ValueError("restarts must be nonnegative")


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


def nearest_divisor_layers(p: int) -> int:
    """Layer count for 'k = log p': the divisor of p-2 nearest to ln(p),
    ties toward the smaller divisor."""
    if p < 3:
        raise ValueError("p must be at least 3")
    target = math.log(p)
    divisors = [k for k in range(1, p - 1) if (p - 2) % k == 0]
    return min(divisors, key=lambda k: (abs(k - target), k))


def resolve_graph(cfg: SweepConfig, dag: Dag | None = None) -> tuple[Dag, dict]:
    """Build or accept the sweep's graph; returns it plus resolved parameters."""
    if dag is not None:
        return dag, {"graph": "provided", "vertex_count": dag.vertex_count,
                     "dim": dag.dim}
    p = int(cfg.p)
    k = nearest_divisor_layers(p) if cfg.k == "auto" else int(cfg.k)
    width = (p - 2) // k
    d = width if cfg.d == "full" else int(cfg.d)
    g = build_layer_graph(p, k, d)
    return g, {"p": p, "k": k, "d": d, "vertex_count": p, "dim": p}


def cell_seed(master: int, trial: int, n_index: int) -> int:
    return int(np.random.SeedSequence((master, trial, n_index))
               .generate_state(1, np.uint64)[0])


def _spectrum(cfg: SweepConfig, dim: int) -> np.ndarray:
    return np.arange(1, dim + 1, dtype=float) ** cfg.spectrum_exponent


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


def _best_of_starts(run, cfg: SweepConfig, stream: tuple) -> EstimateResult:
    """Diagonal start plus cfg.restarts random starts, best objective kept
    (the diagonal start wins ties). Iterations are summed over all starts."""
    best = run(PowerMethodConfig(max_iters=cfg.max_iters, tol=cfg.tol))
    total = best.iterations
    for j in range(cfg.restarts):
        res = run(PowerMethodConfig(max_iters=cfg.max_iters, tol=cfg.tol,
                                    init="random", seed=stream + (j,)))
        total += res.iterations
        if res.objective > best.objective:
            best = res
    return replace(best, iterations=total)


def _run_one(solver: str, sigma_hat: Covariance, dag: Dag, cfg: SweepConfig,
             cseed: int, truth_nnz: int) -> EstimateResult:
    if solver == "power":
        return _best_of_starts(
            lambda pc: graph_truncated_power(sigma_hat, dag, pc),
            cfg, (cseed, 3))
    if solver == "sample":
        return sample_and_project(
            sigma_hat, dag,
            SampleProjectConfig(rank=cfg.rank, budget=cfg.budget, seed=(cseed, 2)))
    if solver == "brute":
        return brute_force_solve(sigma_hat, dag, cap=cfg.cap)
    if solver == "sparse-power":
        k = truth_nnz if cfg.sparsity == "auto" else int(cfg.sparsity)
        return _best_of_starts(
            lambda pc: sparse_truncated_power(sigma_hat, k, pc),
            cfg, (cseed, 4))
    raise ValueError(f"unknown solver {solver!r}")


def run_sweep(cfg: SweepConfig, dag: Dag | None = None
              ) -> tuple[list[ResultRecord], dict]:
    """Run every (trial, n, solver) cell; returns records plus the resolved
    configuration for the sidecar. Solver errors are recorded per row (the
    exception class name becomes the status) and the sweep continues.

    A cell's covariance is validated and decomposed once, in the row of its
    first solver, whose wall time includes that; the other solvers and all
    restarts share it."""
    t0 = time.perf_counter()
    graph, graph_info = resolve_graph(cfg, dag)
    solvers = sorted(cfg.solvers)
    records: list[ResultRecord] = []
    for trial in range(cfg.trials):
        for n_index, n in enumerate(cfg.n_grid):
            cseed = cell_seed(cfg.seed, trial, n_index)
            x_star, _ = random_path_vector(graph, (cseed, 0))
            if cfg.model == "spiked":
                y = sample_spiked(SpikedModelParams(x_star, cfg.beta), n, (cseed, 1))
            else:
                sigma = covariance_with_spectrum(x_star, _spectrum(cfg, graph.dim))
                y = gaussian_sampler(sigma, n, (cseed, 1))
            sigma_hat = empirical_covariance(y)
            truth_nnz = int(np.count_nonzero(x_star))
            cov = sigma_hat  # prepared by the first solver, shared by the rest
            for solver in solvers:
                t1 = time.perf_counter()
                try:
                    cov = prepare_covariance(cov, graph.dim)
                    res = _run_one(solver, cov, graph, cfg, cseed, truth_nnz)
                except InternalInvariantError:
                    raise
                except Exception as exc:
                    records.append(ResultRecord(
                        trial=trial, n=n, solver=solver, seed=cseed,
                        status=type(exc).__name__, objective=None,
                        projector_loss=None, jaccard=None, iterations=None,
                        wall_time=time.perf_counter() - t1))
                    continue
                if solver != "sparse-power":
                    check_structured_output(graph, res, solver)
                rep = evaluate(res.x, x_star, sigma_hat)
                records.append(ResultRecord(
                    trial=trial, n=n, solver=solver, seed=cseed, status="ok",
                    objective=res.objective, projector_loss=rep.projector_loss,
                    jaccard=rep.jaccard, iterations=res.iterations,
                    wall_time=time.perf_counter() - t1))
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
                       "uint64)[0]); streams: x_star=(cell,0), samples=(cell,1), "
                       "sample-solver=(cell,2), power-restarts=(cell,3,j), "
                       "sparse-restarts=(cell,4,j)",
        "total_wall_time_s": time.perf_counter() - t0,
        "row_wall_time_s": [r.wall_time for r in records],
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
    from .fileio import ParseError, _content_lines

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


_SWEEP_KEYS = {"p", "k", "d", "graph", "model", "beta", "spectrum_exponent",
               "n", "trials", "solvers", "rank", "budget", "sparsity",
               "restarts", "seed", "cap", "tol", "max_iters"}


def parse_sweep_config(mapping: dict[str, str]) -> SweepConfig:
    """Build a SweepConfig from the string mapping of a config file."""
    unknown = set(mapping) - _SWEEP_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if "n" not in mapping or "trials" not in mapping:
        raise ValueError("config must set 'n' and 'trials'")

    def geti(key, default=None):
        return int(mapping[key]) if key in mapping else default

    def getf(key, default=None):
        return float(mapping[key]) if key in mapping else default

    k = mapping.get("k")
    if k is not None and k != "auto":
        k = int(k)
    d = mapping.get("d")
    if d is not None and d != "full":
        d = int(d)
    sparsity = mapping.get("sparsity", "auto")
    if sparsity != "auto":
        sparsity = int(sparsity)
    return SweepConfig(
        n_grid=[int(v) for v in mapping["n"].split(",")],
        trials=int(mapping["trials"]),
        solvers=[s.strip() for s in mapping.get("solvers", "power").split(",")],
        p=geti("p"), k=k, d=d,
        graph_file=mapping.get("graph"),
        model=mapping.get("model", "spiked"),
        beta=getf("beta", 1.0),
        spectrum_exponent=getf("spectrum_exponent", -0.25),
        rank=geti("rank", 2),
        budget=geti("budget", 2000),
        sparsity=sparsity,
        restarts=geti("restarts", 5),
        seed=geti("seed", 0),
        cap=geti("cap", 5000),
        tol=getf("tol", 1e-9),
        max_iters=geti("max_iters", 1000),
    )
