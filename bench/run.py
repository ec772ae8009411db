"""Benchmark of pathpca: four seeded workloads, checked outputs, end-to-end
metrics, and a traced run for per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout: pathpca is imported from its ``src/``. With --trace 0
the run sets up the workload three times, then runs whole rounds of its
operations until S seconds have passed, and reports the end-to-end metrics.
With --trace 1 it runs the same rounds twice, first untraced and then with
spans around every layer call (tracing.py), and reports the per-layer
metrics. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = 1  # at most nproc; one thread keeps timings steady on a shared host
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the thread pinning, which it reads at import)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 3
IMPORT_REPEATS = 9
WORKLOAD_NAMES = ("spiked-sweep", "small-graph-sweep", "project-large", "cli-solve")


def use_checkout() -> bool:
    """Import pathpca from this checkout's src/, in this process and the
    processes it starts; False when the checkout has no pathpca sources."""
    if not (SRC / "pathpca" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)
    return True


def fresh_import_s() -> float:
    """Median wall time of a fresh interpreter that imports pathpca.cli."""
    times = []
    for _ in range(IMPORT_REPEATS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import pathpca.cli"], check=True)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def run_rounds(workload, seconds: float) -> tuple[list, float]:
    """Whole rounds until ``seconds`` have passed; returns them and the wall time."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(workload.round())
    return rounds, time.perf_counter() - start


def peak_rss_mib(workload) -> float:
    """Peak RSS of the largest process that ran pathpca: this one, or for a
    workload that runs pathpca only in child processes, the largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    in_children = getattr(workload, "peak_in_children", False)
    print(f"peak RSS: this process {own:.1f} MiB, largest child {child:.1f} MiB; "
          f"reported: {'largest child' if in_children else 'the larger'}")
    return child if in_children else max(own, child)


def run_record(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "machine": platform.machine(),
    }


def measure(workload, seconds: float) -> tuple[dict, list]:
    """End-to-end metrics of an untraced run."""
    import_s = fresh_import_s()
    setups = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t)
    workload.prepare_checks()
    rounds, _ = run_rounds(workload, seconds)
    rates = [(r.attempted - r.failed) / r.seconds for r in rounds]
    print(f"set-ups: {len(setups)}, median {statistics.median(setups):.4f} s "
          f"plus import {import_s:.4f} s; rounds: {len(rounds)}, "
          f"median {statistics.median(r.seconds for r in rounds):.4f} s")
    return {
        "setup_s": (import_s + statistics.median(setups), "s"),
        "ops_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mib": (peak_rss_mib(workload), "MiB"),
    }, rounds


def measure_traced(workload, seconds: float, trace_file: Path) -> tuple[dict, list]:
    """Per-layer metrics: the same rounds untraced, then traced."""
    import tracing

    workload.setup()
    workload.prepare_checks()
    plain, plain_wall = run_rounds(workload, seconds)
    import_s = fresh_import_s()

    tracer = tracing.Tracer()
    restore = tracer.install()
    workload.tracer = tracer
    try:
        start = time.perf_counter()
        workload.setup()
        tracer.mark_rounds()
        t = time.perf_counter()
        traced = [workload.round() for _ in plain]
        end = time.perf_counter()
    finally:
        restore()
        workload.tracer = None
    overhead = (end - t) - plain_wall
    metrics = tracing.layer_metrics(tracer, len(traced), end - start, overhead, import_s)
    tracer.write(trace_file, {"rounds": len(traced), "wall_s": end - start})
    print(f"rounds: {len(traced)} untraced then traced; spans: {len(tracer.spans)} "
          f"written to {trace_file.relative_to(ROOT)}")
    return metrics, plain + traced


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not use_checkout():
        print(f"error: no pathpca sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    import workloads

    record = run_record(args)
    print("run " + json.dumps(record, sort_keys=True), flush=True)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    work.mkdir()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        if args.trace:
            metrics, rounds = measure_traced(workload, args.seconds, OUT / f"trace-{tag}.json")
        else:
            metrics, rounds = measure(workload, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = [p for r in rounds for p in r.problems]
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value!r} {unit}")
    print(f"operations: {result['attempted']} attempted, {result['failed']} failed; "
          f"checks: {'pass' if not problems else f'{len(problems)} problems'}")
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"run": record, **result,
                   "round_seconds": [r.seconds for r in rounds]}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
