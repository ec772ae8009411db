"""Spans around calls into pathpca's layers, for the benchmark's traced run.

A Tracer replaces each public function listed in TARGETS by a wrapper, at
every module attribute that holds it, since that is where callers look it
up: ``pathpca.sweep.run_sweep`` calls ``build_layer_graph`` through the
``pathpca.sweep`` module, ``cmd_solve`` calls ``graph_truncated_power``
through ``pathpca.cli``, the solvers call ``np.linalg.eigh`` through
``numpy.linalg``. A wrapper records a span (name, start, end, parent) in
memory; ``Dag.has_edge`` is only counted, since it is called per path edge.
Nothing is wrapped until ``install`` is called, and ``install`` returns the
function that puts the originals back.

Times come from ``time.perf_counter``, which on Linux reads the monotonic
clock shared by all processes, so spans recorded by a traced child process
(bench/traced_cli.py) can be merged into the parent's list.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter

SOLVERS = ("power", "sample", "sparse-power", "brute")

# (module, attribute, span name)
TARGETS = (
    ("pathpca.graph", "build_layer_graph", "graph.build_layer_graph"),
    ("pathpca.graph", "count_paths", "graph.count_paths"),
    ("pathpca.graph", "enumerate_paths", "graph.enumerate_paths"),
    ("pathpca.projection", "project", "projection.project"),
    ("pathpca.solvers", "graph_truncated_power", "solvers.power"),
    ("pathpca.solvers", "sample_and_project", "solvers.sample"),
    ("pathpca.solvers", "sparse_truncated_power", "solvers.sparse-power"),
    ("pathpca.solvers", "brute_force_solve", "solvers.brute"),
    ("pathpca.data", "random_path_vector", "data.random_path_vector"),
    ("pathpca.data", "sample_spiked", "data.sample_spiked"),
    ("pathpca.data", "empirical_covariance", "data.empirical_covariance"),
    ("pathpca.data", "low_rank_factor", "data.low_rank_factor"),
    ("pathpca.metrics", "evaluate", "metrics.evaluate"),
    ("pathpca.fileio", "load_data_csv", "fileio.load_data_csv"),
    ("pathpca.fileio", "load_covariance_json", "fileio.load_covariance_json"),
    ("pathpca.fileio", "load_graph", "fileio.load_graph"),
    ("pathpca.fileio", "write_data_csv", "fileio.write_data_csv"),
    ("pathpca.sweep", "run_sweep", "sweep.run_sweep"),
    ("pathpca.sweep", "check_structured_output", "sweep.check_structured_output"),
    ("pathpca.cli", "main", "cli.main"),
    ("numpy.linalg", "eigh", "numpy.eigh"),
    ("numpy.linalg", "eigvalsh", "numpy.eigvalsh"),
)
DECOMPOSITIONS = ("numpy.eigh", "numpy.eigvalsh")


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.round_span = 0
        self.round_counts: Counter = Counter()

    def mark_rounds(self):
        """Note where the measured rounds start; what came before is set-up."""
        self.round_span = len(self.spans)
        self.round_counts = Counter(self.counts)

    # -- recording ------------------------------------------------------------

    def open(self, name: str) -> int:
        """Start a span under the innermost open one; returns its index."""
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        return self._stack[-1]

    def close(self, index: int):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            tracer._observe(name, args, result)
            return result

        return wrapper

    def _observe(self, name: str, args, result):
        if name == "projection.project":
            self.counts["projection.edges"] += args[0].edge_count
            self.counts["projection.degenerate"] += int(result.degenerate)
        elif name in ("solvers.power", "solvers.sparse-power"):
            self.counts[name + ".iterations"] += result.iterations

    def install(self):
        """Wrap every target; returns a function that restores the originals."""
        import pathpca.graph

        patched = []
        for mod_name, attr, span_name in TARGETS:
            original = getattr(sys.modules[mod_name], attr)
            wrapped = self._wrap(span_name, original)
            prefix = mod_name.split(".")[0]
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == prefix or name.startswith(prefix + ".")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        patched.append((mod, key, original))

        dag = pathpca.graph.Dag
        has_edge = dag.has_edge
        counts = self.counts

        def counted_has_edge(self_, u, v):
            counts["graph.has_edge"] += 1
            return has_edge(self_, u, v)

        dag.has_edge = counted_has_edge
        patched.append((dag, "has_edge", has_edge))

        def restore():
            for owner, key, original in reversed(patched):
                setattr(owner, key, original)

        return restore

    # -- merging and output -----------------------------------------------------

    def merge(self, doc: dict, parent: int):
        """Add a child process's spans under the span with index ``parent``."""
        base = len(self.spans)
        for name, start, end, p in doc["spans"]:
            self.spans.append([name, start, end, parent if p < 0 else base + p])
        self.counts.update(doc["counts"])

    def write(self, path, extra: dict):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts), **extra}, fh)


# -- per-layer metrics -----------------------------------------------------------


def layer_metrics(tracer: Tracer, rounds: int, wall_s: float,
                  overhead_s: float, import_s: float) -> dict:
    """Per-layer metrics of a traced run, as {name: (value, unit)}.

    Spans and counts recorded before ``tracer.mark_rounds()`` belong to
    set-up, the rest to the ``rounds`` measured rounds. Counts and
    ``projection.s`` are per measured round. Each ``*_pct`` metric is the
    share of the traced wall time ``wall_s`` (set-up plus rounds) that the
    named spans cover. Self times subtract the direct child spans.
    """
    spans = tracer.spans
    first_round_span = tracer.round_span
    counts = tracer.counts - tracer.round_counts
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * len(spans)
    in_solver = [False] * len(spans)
    for i, (name, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += dur[i]
            in_solver[i] = in_solver[parent]
        if name.startswith("solvers."):
            in_solver[i] = True

    def pick(name, start=0):
        return [i for i in range(start, len(spans)) if spans[i][0] == name]

    def total(name):
        return sum(dur[i] for i in pick(name))

    def pct(seconds):
        return 100.0 * seconds / wall_s

    def per_round(x):
        return x / rounds

    m: dict[str, tuple[float, str]] = {}
    builds = pick("graph.build_layer_graph")
    m["graph.build_s"] = (statistics.median(dur[i] for i in builds) if builds else 0.0, "s")
    m["graph.has_edge_calls"] = (per_round(counts["graph.has_edge"]), "count")
    m["graph.enumerate_paths_pct"] = (pct(total("graph.enumerate_paths")), "%")
    m["graph.count_paths_pct"] = (pct(total("graph.count_paths")), "%")

    proj_all = pick("projection.project")
    proj = pick("projection.project", first_round_span)
    proj_s = sum(dur[i] for i in proj)
    m["projection.calls"] = (per_round(len(proj)), "count")
    m["projection.s"] = (per_round(proj_s), "s")
    m["projection.call_us"] = (1e6 * statistics.median(dur[i] for i in proj) if proj else 0.0, "us")
    m["projection.first_call_s"] = (dur[proj_all[0]] if proj_all else 0.0, "s")
    m["projection.edges_per_s"] = (
        counts["projection.edges"] / proj_s if proj_s else 0.0, "edges/s")
    m["projection.degenerate"] = (per_round(counts["projection.degenerate"]), "count")

    for solver in SOLVERS:
        name = "solvers." + solver
        m[name + ".calls"] = (per_round(len(pick(name, first_round_span))), "count")
        m[name + ".pct"] = (pct(total(name)), "%")
        m[name + ".self_pct"] = (pct(sum(dur[i] - child_time[i] for i in pick(name))), "%")
    for solver in ("power", "sparse-power"):
        key = f"solvers.{solver}.iterations"
        m[key] = (per_round(counts[key]), "count")
    # Decompositions made directly by brute_force_solve are its per-path
    # eigenpairs (plus its one covariance set-up), counted apart, so that
    # solvers.decompositions keeps to covariance set-up and validation.
    decomp, brute = [], []
    for i, (name, _, _, parent) in enumerate(spans):
        if name in DECOMPOSITIONS and in_solver[i]:
            (brute if parent >= 0 and spans[parent][0] == "solvers.brute" else decomp).append(i)
    m["solvers.decompositions"] = (
        per_round(sum(1 for i in decomp if i >= first_round_span)), "count")
    m["solvers.decomposition_pct"] = (pct(sum(dur[i] for i in decomp)), "%")
    m["solvers.brute.decompositions"] = (
        per_round(sum(1 for i in brute if i >= first_round_span)), "count")

    for fn in ("random_path_vector", "sample_spiked", "empirical_covariance",
               "low_rank_factor"):
        m[f"data.{fn}_pct"] = (pct(total("data." + fn)), "%")
    m["metrics.evaluate_pct"] = (pct(total("metrics.evaluate")), "%")
    for fn in ("load_data_csv", "load_covariance_json", "load_graph", "write_data_csv"):
        m[f"fileio.{fn}_pct"] = (pct(total("fileio." + fn)), "%")

    m["sweep.run_sweep_pct"] = (pct(total("sweep.run_sweep")), "%")
    m["sweep.self_pct"] = (pct(sum(dur[i] - child_time[i] for i in pick("sweep.run_sweep"))), "%")
    m["sweep.check_structured_output_pct"] = (pct(total("sweep.check_structured_output")), "%")

    m["cli.import_s"] = (import_s, "s")
    m["cli.main_pct"] = (pct(total("cli.main")), "%")

    top = sum(dur[i] for i in range(len(spans)) if spans[i][3] < 0)
    m["trace.coverage_pct"] = (pct(top), "%")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m
