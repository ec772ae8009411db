"""Release checklist: one end-to-end check per shipped guarantee.

Every test prints a single [criterion NN] PASS/FAIL line through the capture
plug, so a plain pytest run shows the checklist verdict line by line, then
asserts. Numbered to match the README's guarantee list.
"""

import json
import math
import time

import numpy as np
import pytest

from helpers import (
    assert_feasible,
    oracle_best_objective,
    random_dag,
    random_psd,
    record_projections,
)
from pathpca import (
    build_group_graph,
    build_layer_graph,
    count_paths,
    empirical_covariance,
    project,
    random_path_vector,
    sample_spiked,
)
from pathpca.cli import main as cli_main
from pathpca.data import SpikedModelParams, low_rank_factor
from pathpca.solvers import (
    PowerMethodConfig,
    SampleProjectConfig,
    brute_force_solve,
    graph_truncated_power,
    sample_and_project,
)
from pathpca.sweep import SweepConfig, cell_seed, run_sweep


@pytest.fixture()
def report(capsys):
    def _report(num, ok, desc, detail=""):
        verdict = "PASS" if ok else "FAIL"
        tail = f" ({detail})" if detail else ""
        with capsys.disabled():
            print(f"[criterion {num:02d}] {verdict}: {desc}{tail}")
    return _report


def median_loss(records, **match):
    vals = [r.projector_loss for r in records
            if all(getattr(r, k) == v for k, v in match.items())]
    return float(np.median(vals))


def test_01_projection_equals_enumeration(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        dag = random_dag(rng)
        for _ in range(5):
            w = rng.standard_normal(dag.dim)
            res = project(dag, w)
            assert_feasible(dag, res.x, res.path)
            achieved = abs(float(w @ res.x))
            best = oracle_best_objective(dag, w)
            worst = max(worst, abs(achieved - best))
    wall = time.perf_counter() - t0
    ok = worst <= 1e-10 and wall < 30.0
    report(1, ok, "projection matches exhaustive path search on 1000 random "
                  "instances and always returns a feasible unit vector",
           f"max objective gap {worst:.2e}, {wall:.1f}s")
    assert ok


def test_02_projection_scales_linearly(report):
    t0 = time.perf_counter()
    cases = []
    for k in (246, 492, 984, 1968):
        p = 813 * k + 2
        dag = build_layer_graph(p, k, 4)
        w = np.random.default_rng(17).standard_normal(p)
        project(dag, w)  # warm-up
        cases.append((dag, w))
    # Round-robin, best of 5 per size: a slow spell of the host then slows
    # one timing of several sizes instead of every timing of one size.
    times = [math.inf] * len(cases)
    for _ in range(5):
        for i, (dag, w) in enumerate(cases):
            times[i] = min(times[i], _timed_projection(dag, w))
    ratios = [b / a for a, b in zip(times, times[1:])]
    wall = time.perf_counter() - t0
    ok = all(r <= 2.5 for r in ratios) and wall < 60.0
    report(2, ok, "projection time grows at most 2.5x per graph doubling "
                  "up to 1.6 million vertices",
           f"ratios {['%.2f' % r for r in ratios]}, {wall:.1f}s")
    assert ok


def _timed_projection(dag, w):
    t0 = time.perf_counter()
    project(dag, w)
    return time.perf_counter() - t0


def test_03_power_method_monotone_and_feasible(report, monkeypatch):
    rng = np.random.default_rng(301)
    worst_dip = 0.0
    iterates = record_projections(monkeypatch)
    for _ in range(100):
        dag = random_dag(rng)
        sigma = random_psd(dag.dim, rng)
        iterates.clear()
        res = graph_truncated_power(sigma, dag)
        dips = [a - b for a, b in zip(res.trace, res.trace[1:])]
        worst_dip = max([worst_dip] + dips)
        assert len(iterates) == res.iterations + 1
        for pv in iterates:
            assert_feasible(dag, pv.x, pv.path)
    ok = worst_dip <= 1e-10
    report(3, ok, "power method objectives never decrease and every iterate "
                  "is a feasible unit vector on 100 random instances",
           f"worst dip {worst_dip:.2e}")
    assert ok


def test_04_recovery_error_falls_with_sample_size(report):
    t0 = time.perf_counter()
    cfg = SweepConfig(n_grid=[50, 200, 800, 3200], trials=100,
                      solvers=["power"], p=66, k=4, d=16, beta=1.0, seed=20)
    records, _ = run_sweep(cfg)
    assert all(r.status == "ok" for r in records)
    meds = [median_loss(records, n=n) for n in cfg.n_grid]
    jac = float(np.median([r.jaccard for r in records if r.n == 3200]))
    wall = time.perf_counter() - t0
    ok = (all(b < a for a, b in zip(meds, meds[1:]))
          and jac <= 0.1 and wall < 300.0)
    report(4, ok, "median recovery error strictly falls across n=50..3200 "
                  "and the median support error at n=3200 is at most 0.1",
           f"medians {['%.3f' % m for m in meds]}, "
           f"jaccard {jac:.3f}, {wall:.0f}s")
    assert ok


def test_05_path_constraint_beats_plain_sparsity(report):
    t0 = time.perf_counter()
    cfg = SweepConfig(n_grid=[400], trials=100,
                      solvers=["power", "sparse-power"],
                      p=202, k=10, d=5, model="spectrum",
                      spectrum_exponent=-0.25, seed=21)
    records, _ = run_sweep(cfg)
    # "ok" rows mean every structured support was verified to be a path
    assert all(r.status == "ok" for r in records)
    graph_med = median_loss(records, solver="power")
    sparse_med = median_loss(records, solver="sparse-power")
    wall = time.perf_counter() - t0
    ok = graph_med <= sparse_med and wall < 300.0
    report(5, ok, "under a power-law spectrum the path-constrained solver's "
                  "median error is at most the k-sparse baseline's",
           f"{graph_med:.3f} vs {sparse_med:.3f}, {wall:.0f}s")
    assert ok


def _sampling_instances():
    rng = np.random.default_rng(601)
    for i in range(50):
        dag = random_dag(rng, max_paths=200)
        yield i, dag, random_psd(dag.dim, rng)


def test_06_sampling_solver_near_optimal(report):
    worst = np.inf
    for i, dag, sigma in _sampling_instances():
        v = low_rank_factor(sigma, 2)
        opt = brute_force_solve(v @ v.T, dag, cap=200).objective
        res = sample_and_project(
            sigma, dag, SampleProjectConfig(rank=2, budget=2000, seed=(602, i)))
        worst = min(worst, res.rank_objective / opt)
        if i < 10:
            v1 = low_rank_factor(sigma, 1)[:, 0]
            direct = project(dag, v1)
            for budget in (1, 50):
                r1 = sample_and_project(
                    sigma, dag, SampleProjectConfig(rank=1, budget=budget,
                                                    seed=(603, i)))
                assert np.array_equal(r1.x, direct.x)
                assert r1.path == direct.path
    ok = worst >= 0.95
    report(6, ok, "rank-2 sampling reaches 95% of the enumerated optimum on "
                  "50 instances and rank-1 output is budget-independent",
           f"min ratio {worst:.4f}")
    assert ok


def test_07_exhaustive_search_dominates_heuristics(report):
    slack = 1e-9
    worst = -np.inf
    for i, dag, sigma in _sampling_instances():
        best = brute_force_solve(sigma, dag, cap=200).objective
        pw = graph_truncated_power(sigma, dag).objective
        sp = sample_and_project(
            sigma, dag,
            SampleProjectConfig(rank=2, budget=300, seed=(702, i))).objective
        worst = max(worst, pw - best, sp - best)
    dag = build_layer_graph(66, 4, 16)
    for trial in range(4):
        for n_index, n in ((0, 50), (3, 3200)):
            cseed = cell_seed(20, trial, n_index)
            x_star, _ = random_path_vector(dag, (cseed, 0))
            y = sample_spiked(SpikedModelParams(x_star, 1.0), n, (cseed, 1))
            s_hat = empirical_covariance(y)
            best = brute_force_solve(s_hat, dag, cap=70000).objective
            pw = graph_truncated_power(s_hat, dag).objective
            sp = sample_and_project(
                s_hat, dag,
                SampleProjectConfig(rank=2, budget=2000,
                                    seed=(cseed, 2))).objective
            worst = max(worst, pw - best, sp - best)
    ok = worst <= slack
    report(7, ok, "exhaustive search dominates both heuristics on every "
                  "instance small enough to enumerate",
           f"max heuristic excess {worst:.2e}")
    assert ok


def test_08_group_graphs_select_one_per_group(report):
    rng = np.random.default_rng(801)
    for i in range(20):
        sizes = rng.integers(2, 31, size=int(rng.integers(3, 11)))
        perm = rng.permutation(int(sizes.sum()))
        groups, at = [], 0
        for s in sizes:
            groups.append(perm[at:at + int(s)].tolist())
            at += int(s)
        dag = build_group_graph(groups)
        assert count_paths(dag) == math.prod(int(s) for s in sizes)
        x_star, _ = random_path_vector(dag, (802, i))
        y = sample_spiked(SpikedModelParams(x_star, 3.0), 150, (803, i))
        s_hat = empirical_covariance(y)
        outputs = [
            graph_truncated_power(s_hat, dag).x,
            sample_and_project(
                s_hat, dag,
                SampleProjectConfig(rank=2, budget=200, seed=(804, i))).x,
        ]
        if count_paths(dag) <= 2000:
            outputs.append(brute_force_solve(s_hat, dag, cap=2000).x)
        for x in outputs:
            nz = set(np.flatnonzero(x).tolist())
            assert all(len(nz & set(g)) == 1 for g in groups)
    report(8, True, "group graphs count paths exactly and every solver "
                    "selects exactly one variable per group",
           "20 random groupings")


def test_09_error_curves_collapse_on_effective_dimension(report):
    nus = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    meds = {}
    for p in (34, 66, 130):
        m = (p - 2) // 4
        denom = math.log((p - 2) / 4) + 4 * math.log(m)
        n_of = {nu: max(8, round(nu * denom)) for nu in nus}
        cfg = SweepConfig(n_grid=sorted(set(n_of.values())), trials=50,
                          solvers=["power"], p=p, k=4, d="full", beta=1.0,
                          seed=30)
        records, _ = run_sweep(cfg)
        assert all(r.status == "ok" for r in records)
        for nu in nus:
            meds[(p, nu)] = median_loss(records, n=n_of[nu])
    ratios = []
    for nu in nus:
        row = [meds[(p, nu)] for p in (34, 66, 130)]
        ratios.append(max(row) / min(row))
    ok = all(r <= 2.0 for r in ratios)
    report(9, ok, "median error curves for p=34/66/130 collapse within a "
                  "factor of 2 at matched normalized sample sizes",
           f"max spread {max(ratios):.2f}")
    assert ok


def test_10_sweeps_are_byte_identical_across_reruns(report, tmp_path, capsys):
    cfg = tmp_path / "sweep.txt"
    cfg.write_text("p = 14\nk = 3\nd = 2\nn = 40,80\ntrials = 2\n"
                   "solvers = brute,power,sample,sparse-power\n"
                   "budget = 30\ncap = 100\nseed = 7\n")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(a)]) == 0
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(b)]) == 0
    capsys.readouterr()
    ok = a.read_bytes() == b.read_bytes()
    sidecar = json.loads((tmp_path / "a.csv.json").read_text())
    ok = ok and sidecar["master_seed"] == 7
    report(10, ok, "rerunning a sweep config writes a byte-identical CSV",
           f"{len(a.read_bytes())} bytes compared")
    assert ok
