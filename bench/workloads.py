"""The benchmark's four workloads.

A workload makes its inputs from the seed, then runs whole rounds of one
fixed sequence of operations through pathpca's public API or its command
line, and checks every output (checks.py). ``setup`` is the program work
done before the first measured operation, and may be repeated: each call
replaces the previous state. ``prepare_checks`` builds the benchmark's own
references once, untimed. ``round`` returns a Round: the seconds pathpca
spent (the checks' time excluded), the operations attempted and failed,
and the problems the checks found.

All calls into pathpca go through module attributes (``pathpca.sweep.
run_sweep``, not a name imported from it), so a traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import pathpca.cli
import pathpca.graph
import pathpca.projection
import pathpca.sweep

BENCH_DIR = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 150


@dataclass
class Round:
    seconds: float
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)


class SpikedSweep:
    """`pathpca sweep`, called in-process, on a spiked layer graph."""

    name = "spiked-sweep"
    sizes = {"full": dict(p=1026, d=4, n=(40, 1000), trials=2),
             "toy": dict(p=130, d=4, n=(20, 2000), trials=1),
             "p514": dict(p=514, d=4, n=(40, 1000), trials=2)}
    solvers = ("power", "sample", "sparse-power")

    def __init__(self, seed: int, work: Path, size: str = "full"):
        self.seed, self.work = seed, work
        self.size = self.sizes[size]
        self.n_grid = self.size["n"]
        self.csv_bytes = None

    def setup(self):
        s = self.size
        self.config = self.work / "sweep.txt"
        self.config.write_text(
            f"p = {s['p']}\nk = auto\nd = {s['d']}\nbeta = 2\n"
            f"n = {','.join(map(str, s['n']))}\ntrials = {s['trials']}\n"
            f"solvers = {','.join(self.solvers)}\nseed = {self.seed}\n")
        self.out = self.work / "sweep.csv"

    def prepare_checks(self):
        pass

    def _sweep(self) -> bool:
        """One sweep writing ``self.out``; False when it failed as a whole."""
        argv = ["sweep", "--config", str(self.config), "--out", str(self.out)]
        with contextlib.redirect_stdout(io.StringIO()):
            return pathpca.cli.main(argv) == 0

    def _extra_checks(self, rows: list[dict]) -> list[str]:
        return checks.recovery(rows)

    def round(self) -> Round:
        expect = self.size["trials"] * len(self.n_grid) * len(self.solvers)
        t = time.perf_counter()
        ok = self._sweep()
        seconds = time.perf_counter() - t
        if not ok:
            return Round(seconds, expect, expect)
        text = self.out.read_bytes()
        rows = checks.parse_sweep_csv(text)
        problems = (checks.sweep_rows(rows, self.size["trials"], self.n_grid, self.solvers)
                    + self._extra_checks(rows) + self._same_csv(text))
        return Round(seconds, expect, sum(r["status"] != "ok" for r in rows), problems)

    def _same_csv(self, text: bytes) -> list[str]:
        # Reruns of one config must write byte-identical CSVs (README).
        if self.csv_bytes is None:
            self.csv_bytes = text
        return [] if text == self.csv_bytes else ["sweep CSV differs from the first round's"]


class SmallGraphSweep(SpikedSweep):
    """`run_sweep` with all four solvers on a layer graph of 4096 paths."""

    name = "small-graph-sweep"
    sizes = {"full": dict(p=34, k=4, d=8, n=(10, 100), trials=2),
             "toy": dict(p=18, k=4, d=2, n=(10, 100), trials=1)}
    solvers = pathpca.sweep.SOLVER_NAMES

    def setup(self):
        s = self.size
        self.cfg = pathpca.sweep.SweepConfig(
            n_grid=list(s["n"]), trials=s["trials"], solvers=list(self.solvers),
            p=s["p"], k=s["k"], d=s["d"], beta=2.0, seed=self.seed)
        self.out = self.work / "sweep.csv"

    def _sweep(self) -> bool:
        records, _ = pathpca.sweep.run_sweep(self.cfg)
        pathpca.sweep.write_sweep_csv(records, self.out)
        return True

    def _extra_checks(self, rows: list[dict]) -> list[str]:
        return []


class ProjectLarge:
    """`project` on a layer graph of about a million vertices."""

    name = "project-large"
    sizes = {"full": dict(p=1_000_002, k=16, d=4), "toy": dict(p=1002, k=10, d=4),
             "p102": dict(p=102, k=5, d=4), "p1e4": dict(p=10_002, k=10, d=4),
             "p1e5": dict(p=100_002, k=10, d=4)}
    pool = 8  # weight vectors per round, drawn once from the seed

    def __init__(self, seed: int, work: Path, size: str = "full"):
        self.seed = seed
        self.p, self.k, self.d = (self.sizes[size][key] for key in ("p", "k", "d"))
        self.graph = None

    def setup(self):
        self.graph = self.weights = None  # free the previous set-up first
        self.graph = pathpca.graph.build_layer_graph(self.p, self.k, self.d)
        rng = np.random.default_rng(self.seed)
        self.weights = [rng.standard_normal(self.p) for _ in range(self.pool)]
        pathpca.projection.project(self.graph, self.weights[0])  # builds the DP plan

    def prepare_checks(self):
        self.optima = [checks.layer_path_optimum(w, self.p, self.k, self.d)
                       for w in self.weights]

    def round(self) -> Round:
        seconds, failed, problems = 0.0, 0, []
        for w, optimum in zip(self.weights, self.optima):
            t = time.perf_counter()
            try:
                pv = pathpca.projection.project(self.graph, w)
            except Exception as exc:  # a failed operation, counted as such
                seconds += time.perf_counter() - t
                failed += 1
                print(f"project raised {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            seconds += time.perf_counter() - t
            problems += checks.layer_projection(w, pv.path.vertices, pv.x, optimum,
                                                self.p, self.k, self.d)
        return Round(seconds, self.pool, failed, problems)


class CliSolve:
    """A fixed sequence of `pathpca solve` processes at p=2050."""

    name = "cli-solve"
    sizes = {"full": dict(p=2050, n=600), "toy": dict(p=130, n=100)}
    peak_in_children = True  # pathpca runs only in the processes it starts

    def __init__(self, seed: int, work: Path, size: str = "full"):
        self.seed, self.work = seed, work
        self.tracer = None  # set by a traced run
        self.p, self.n = self.sizes[size]["p"], self.sizes[size]["n"]
        self.data = work / "data"
        self.config = work / "generate.txt"

    def _run(self, args: list[str]) -> tuple[subprocess.CompletedProcess, float]:
        """Run one pathpca command in a fresh process; in a traced run through
        traced_cli.py, whose spans land under a ``cli.process`` span here."""
        span = spans_file = None
        cmd = [sys.executable, "-m", "pathpca.cli"] + args
        if self.tracer is not None:
            spans_file = self.work / "child-spans.json"
            cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans_file)] + args
            span = self.tracer.open("cli.process")
        t = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S, check=False)
        finally:
            seconds = time.perf_counter() - t
            if span is not None:
                self.tracer.close(span)
        if spans_file is not None and spans_file.exists():
            self.tracer.merge(json.loads(spans_file.read_text()), span)
            spans_file.unlink()
        return proc, seconds

    def setup(self):
        self.config.write_text(f"p = {self.p}\nk = auto\nd = 4\nbeta = 2\nn = {self.n}\n")
        shutil.rmtree(self.data, ignore_errors=True)
        proc, _ = self._run(["generate", "--config", str(self.config),
                             "--seed", str(self.seed), "--out", str(self.data)])
        if proc.returncode != 0:
            raise RuntimeError(f"pathpca generate exited {proc.returncode}: {proc.stderr}")

    def prepare_checks(self):
        y = np.loadtxt(self.data / "samples.csv", delimiter=",", ndmin=2)
        sigma = y @ y.T / y.shape[1]
        self.sigma = (sigma + sigma.T) * 0.5
        self.lam_max = checks.lambda_max(y)
        self.graph = checks.read_graph_file(self.data / "graph.txt")
        self.sparsity = int(np.count_nonzero(checks.read_vector_file(self.data / "x_star.txt")))
        # The covariance input of the JSON solve: the benchmark's own sigma,
        # written with json's shortest round-trip float repr, one row at a
        # time so the benchmark never holds the whole text.
        with open(self.work / "cov.json", "w", encoding="utf-8") as fh:
            fh.write(f'{{"p": {self.p}, "sigma": [')
            for i, row in enumerate(self.sigma):
                fh.write((", " if i else "") + json.dumps(row.tolist()))
            fh.write("]}")

    def solves(self) -> list[tuple[str, list[str], int | None]]:
        """(label, arguments, sparsity) of each solve in a round."""
        d = self.data
        on_csv = ["--graph", str(d / "graph.txt"), "--data", str(d / "samples.csv"),
                  "--x-star", str(d / "x_star.txt")]
        on_json = ["--graph", str(d / "graph.txt"), "--data", str(self.work / "cov.json")]
        return [
            ("power/csv", on_csv + ["--solver", "power"], None),
            ("sample/csv", on_csv + ["--solver", "sample"], None),
            ("sparse-power/csv", on_csv + ["--solver", "sparse-power"], self.sparsity),
            ("power/json", on_json + ["--solver", "power"], None),
        ]

    def round(self) -> Round:
        result = Round(0.0, 0)
        out = self.work / "x.txt"
        for label, args, sparsity in self.solves():
            out.unlink(missing_ok=True)
            proc, seconds = self._run(["solve"] + args + ["--out", str(out)])
            result.seconds += seconds
            result.attempted += 1
            if proc.returncode != 0:
                result.failed += 1
                continue
            try:
                record = json.loads(proc.stdout.strip().splitlines()[-1])
                x = checks.read_vector_file(out)
            except (ValueError, IndexError, OSError) as exc:
                result.problems.append(f"solve {label}: unreadable output: {exc}")
                continue
            result.problems += [f"solve {label}: {p}" for p in checks.solve_record(
                record, x, self.graph, self.sigma, self.lam_max, sparsity)]
        return result


WORKLOADS = {w.name: w for w in (SpikedSweep, SmallGraphSweep, ProjectLarge, CliSolve)}

