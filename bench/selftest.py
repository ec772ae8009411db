"""Fast self-test of the benchmark: every workload at toy size, and every
output check shown to reject a corrupted output.

    python3 bench/selftest.py

Prints one PASS/FAIL line per case and exits 1 if any case fails. It also
checks that the metrics a run prints are exactly those BENCHMARK.json lists.
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import sys
from pathlib import Path

import run

FAILURES = []


def case(name: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'}: {name}" + (f" ({detail})" if detail and not ok else ""))
    if not ok:
        FAILURES.append(name)


def rejects(name: str, problems: list[str], expect: str, alone: bool = True):
    """The check whose message holds ``expect`` fired; with ``alone``, no
    other check did, so the corruption shows that one check failing."""
    hit = [p for p in problems if expect in p]
    ok = bool(hit) and (not alone or len(problems) == len(hit))
    case(f"rejects {name}", ok, f"expected {expect!r}{' alone' if alone else ''}, got {problems}")


def listed_metrics(key: str) -> list[str]:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[key]]


def toy_runs(work: Path):
    """Each workload at toy size, untraced and traced, with clean checks."""
    import workloads

    for name, cls in workloads.WORKLOADS.items():
        wdir = work / name
        wdir.mkdir()
        metrics, rounds = run.measure(cls(7, wdir, "toy"), 0.0)
        bad = [p for r in rounds for p in r.problems]
        case(f"{name}: toy run passes its checks", not bad and not any(r.failed for r in rounds),
             "; ".join(bad[:3]))
        case(f"{name}: end-to-end metrics match BENCHMARK.json",
             list(metrics) == listed_metrics("end_to_end"), str(list(metrics)))
        metrics, rounds = run.measure_traced(cls(7, wdir, "toy"), 0.0, wdir / "trace.json")
        bad = [p for r in rounds for p in r.problems]
        case(f"{name}: traced toy run passes its checks", not bad, "; ".join(bad[:3]))
        case(f"{name}: per-layer metrics match BENCHMARK.json",
             list(metrics) == listed_metrics("per_layer"), str(list(metrics)))


def projection_checks():
    import numpy as np

    import checks
    import pathpca

    p, k, d = 18, 4, 2
    m = (p - 2) // k
    rng = np.random.default_rng(3)
    w = rng.standard_normal(p)
    # The reference DP against plain enumeration of the layer graph's paths.
    best = max(w[0] ** 2 + w[p - 1] ** 2 + sum(w[1 + i * m + c] ** 2 for i, c in enumerate(cols))
               for first in range(m)
               for steps in itertools.product(range(d), repeat=k - 1)
               for cols in [list(itertools.accumulate((first,) + steps, lambda a, t: (a + t) % m))])
    optimum = checks.layer_path_optimum(w, p, k, d)
    case("layer DP equals enumeration of all paths", math.isclose(optimum, best, rel_tol=1e-12))

    pv = pathpca.project(pathpca.build_layer_graph(p, k, d), w)
    verts, x = list(pv.path.vertices), pv.x
    case("projection output passes", not checks.layer_projection(w, verts, x, optimum, p, k, d))
    off = next(v for v in range(p) if v not in verts)
    y = x.copy()
    y[off] = 1e-7  # small enough to leave the norm 1 within the check's tolerance
    rejects("an off-path vector", checks.layer_projection(w, verts, y, optimum, p, k, d),
            "support off its path")
    # Scaling x also moves it off w restricted to the path, normalized.
    rejects("a non-unit x", checks.layer_projection(w, verts, 1.1 * x, optimum, p, k, d),
            "not 1", alone=False)
    # Step to a vertex of the last layer that the previous vertex does not
    # feed; x is w on that path, normalized, and the optimum given is its
    # weight, so only the edge arithmetic is wrong.
    bad = list(verts)
    col = (verts[k - 1] - 1 - (k - 2) * m + d) % m
    bad[k] = 1 + (k - 1) * m + col
    xb = np.zeros(p)
    xb[bad] = w[bad] / np.linalg.norm(w[bad])
    rejects("a path along a non-edge",
            checks.layer_projection(w, bad, xb, float(np.sum(w[bad] ** 2)), p, k, d),
            "not an edge")
    # Another valid path: a different successor for the last layer.
    alt = list(verts)
    here = (verts[k] - 1 - (k - 1) * m)
    prev = (verts[k - 1] - 1 - (k - 2) * m)
    alt[k] = 1 + (k - 1) * m + (prev + (here - prev + 1) % d) % m
    xa = np.zeros(p)
    xa[alt] = w[alt] / np.linalg.norm(w[alt])
    rejects("a feasible but suboptimal path", checks.layer_projection(w, alt, xa, optimum, p, k, d),
            "differs from the optimum")


def sweep_checks():
    import checks

    rows = [
        {"trial": "0", "n": n, "solver": s, "status": "ok", "objective": obj,
         "projector_loss": loss, "jaccard": "0.5"}
        for n, loss in (("10", "1.0"), ("100", "0.2"))
        for s, obj in (("brute", "3.0"), ("power", "2.9"), ("sample", "2.8"))
    ]
    args = (1, ("10", "100"), ("brute", "power", "sample"))
    case("sweep rows pass", not checks.sweep_rows(rows, *args) and not checks.recovery(rows))

    def changed(i, **kw):
        return [dict(r, **kw) if j == i else r for j, r in enumerate(rows)]

    rejects("power beating brute", checks.sweep_rows(changed(1, objective="3.5"), *args),
            "power objective")
    rejects("sample beating brute", checks.sweep_rows(changed(2, objective="3.5"), *args),
            "sample objective")
    rejects("a projector loss above sqrt 2",
            checks.sweep_rows(changed(1, projector_loss="1.5"), *args), "projector loss")
    rejects("a negative projector loss",
            checks.sweep_rows(changed(1, projector_loss="-0.1"), *args), "projector loss")
    rejects("a jaccard above 1", checks.sweep_rows(changed(1, jaccard="1.2"), *args), "jaccard")
    rejects("a missing row", checks.sweep_rows(rows[:-1], *args), "rows, expected")
    rejects("loss not falling with n", checks.recovery(changed(4, projector_loss="1.2")),
            "is not below")

    import workloads

    w = workloads.SpikedSweep(0, Path("."))
    w._same_csv(b"a,b\n1,2\n")
    rejects("a sweep CSV that changes between rounds", w._same_csv(b"a,b\n1,3\n"),
            "differs from the first")


def solve_checks(work: Path):
    import numpy as np

    import checks
    import workloads

    (work / "solve").mkdir()
    w = workloads.CliSolve(5, work / "solve", "toy")
    w.setup()
    w.prepare_checks()
    out = w.work / "x.txt"
    for label, args, sparsity in w.solves()[::2]:  # power and sparse-power on the CSV
        proc, _ = w._run(["solve"] + args + ["--out", str(out)])
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        x = checks.read_vector_file(out)

        def check(rec=record, vec=x, lam=w.lam_max):
            return checks.solve_record(rec, vec, w.graph, w.sigma, lam, sparsity)

        case(f"solve {label} passes", proc.returncode == 0 and not check())

        def as_output(vec):
            # A record that matches vec, so only the corrupted property is wrong.
            return dict(record, support=np.flatnonzero(vec).tolist(),
                        objective=float(vec @ w.sigma @ vec))

        rejects(f"{label}: a wrong objective",
                check(rec=dict(record, objective=record["objective"] * 1.01)), "is not x^T sigma x")
        rejects(f"{label}: a non-unit x", check(rec=as_output(1.1 * x), vec=1.1 * x), "not 1")
        rejects(f"{label}: an objective above lambda_max",
                check(lam=0.5 * record["objective"]), "exceeds lambda_max")
        off = next(v for v in range(x.size) if x[v] == 0.0 and v not in (record["path"] or []))
        if sparsity is None:
            moved = x.copy()
            on = np.flatnonzero(x)[0]
            moved[off], moved[on] = moved[on], 0.0
            rejects(f"{label}: support moved off the path",
                    check(rec=as_output(moved), vec=moved), "support leaves the path")
            # Both corrupted paths keep every vertex of the real one, so the
            # support still lies on them and only the S-T path check fires.
            path = record["path"]
            rejects(f"{label}: a path along a non-edge",
                    check(rec=dict(record, path=path[:1] + [path[2], path[1]] + path[3:])),
                    "not a source-terminal path")
            rejects(f"{label}: a path that does not end at the terminal",
                    check(rec=dict(record, path=path + [off])), "not a source-terminal path")
        else:
            wider = x.copy()
            wider[off] = 0.1
            wider /= np.linalg.norm(wider)
            rejects(f"{label}: a support of the wrong size",
                    check(rec=as_output(wider), vec=wider), "entries, expected")


def main() -> int:
    if not run.use_checkout():
        print("error: no pathpca sources in this checkout", file=sys.stderr)
        return 2
    work = run.OUT / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        projection_checks()
        sweep_checks()
        solve_checks(work)
        toy_runs(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
