"""The experiment harness: seeded sweeps over (trial, n, solver) cells."""

import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from pathpca import (
    Dag,
    InternalInvariantError,
    ParseError,
    SweepConfig,
    build_layer_graph,
    make_path,
    run_sweep,
    write_graph,
    write_sweep_csv,
)
from pathpca import sweep
from pathpca.solvers import EstimateResult
from pathpca.sweep import (
    CSV_COLUMNS,
    cell_seed,
    check_structured_output,
    nearest_divisor_layers,
    parse_kv_file,
    parse_sweep_config,
    resolve_graph,
    write_sidecar,
)

from helpers import count_factorizations


def small_cfg(**over):
    base = dict(n_grid=[40, 80], trials=2, solvers=["brute", "power", "sample",
                                                    "sparse-power"],
                p=14, k=3, d=2, budget=30, cap=100, seed=7)
    base.update(over)
    return SweepConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            small_cfg(n_grid=[])
        with pytest.raises(ValueError):
            small_cfg(n_grid=[100, 50])  # not increasing
        with pytest.raises(ValueError):
            small_cfg(n_grid=[50, 50])
        with pytest.raises(ValueError):
            small_cfg(trials=0)
        with pytest.raises(ValueError):
            small_cfg(solvers=["power", "power"])
        with pytest.raises(ValueError):
            small_cfg(solvers=["bogus"])
        with pytest.raises(ValueError):
            small_cfg(model="other")
        with pytest.raises(ValueError):
            SweepConfig(n_grid=[10], trials=1, p=None, k=None, d=None)
        with pytest.raises(ValueError):
            small_cfg(model="spectrum", spectrum_exponent=0.5)
        for bad in ({"budget": 0}, {"rank": 0}, {"max_iters": 0}, {"tol": -1},
                    {"cap": 0}):
            with pytest.raises(ValueError):
                small_cfg(**bad)

    @pytest.mark.parametrize("shape", [dict(p=13), dict(p=2, k=1, d=1),
                                       dict(d=9), dict(k=0, d="full"),
                                       dict(p=2, k="auto")])
    def test_layer_shape_checked_when_built(self, shape):
        # the shapes build_layer_graph rejects fail with the config, before
        # any graph is built; a graph file needs no shape
        with pytest.raises(ValueError):
            small_cfg(**shape)
        small_cfg(graph_file="g.txt", **shape)

    def test_nearest_divisor_layers(self):
        assert nearest_divisor_layers(66) == 4    # ln 66 = 4.19, 4 divides 64
        assert nearest_divisor_layers(12) == 2    # ln 12 = 2.48, divisors 1,2,5,10
        assert nearest_divisor_layers(34) == 4    # ln 34 = 3.53, divisors of 32
        assert nearest_divisor_layers(130) == 4   # ln 130 = 4.87, divisors of 128

    def test_resolve_graph_auto(self):
        cfg = small_cfg(p=66, k="auto", d="full")
        g, info = resolve_graph(cfg)
        assert info["k"] == 4 and info["d"] == 16
        assert g == build_layer_graph(66, 4, 16)

    def test_resolve_graph_provided(self, tmp_path):
        # a graph file wins over p, k, d
        f = tmp_path / "g.txt"
        write_graph(build_layer_graph(12, 2, 5), f)
        g, info = resolve_graph(small_cfg(graph_file=str(f)))
        assert g == build_layer_graph(12, 2, 5)
        assert info == {"graph": "provided", "vertex_count": 12, "dim": 12}


class TestSeedMixing:
    def test_cell_seed_formula(self):
        expect = int(np.random.SeedSequence((5, 2, 1)).generate_state(1, np.uint64)[0])
        assert cell_seed(5, 2, 1) == expect

    def test_cells_are_distinct(self):
        seeds = {cell_seed(0, t, i) for t in range(10) for i in range(4)}
        assert len(seeds) == 40


class TestRunSweep:
    def test_record_grid_and_order(self):
        records, resolved = run_sweep(small_cfg())
        assert len(records) == 2 * 2 * 4
        keys = [(r.trial, r.n, r.solver) for r in records]
        assert keys == sorted(keys)
        assert all(r.status == "ok" for r in records)
        assert all(r.wall_time >= 0 for r in records)
        assert resolved["graph"] == {"p": 14, "k": 3, "d": 2,
                                     "vertex_count": 14, "dim": 14}
        assert resolved["paths"] == str(4 * 2 * 2)

    def test_rerun_is_identical(self):
        a, _ = run_sweep(small_cfg())
        b, _ = run_sweep(small_cfg())
        for ra, rb in zip(a, b):
            assert (ra.trial, ra.n, ra.solver, ra.seed, ra.status) == \
                   (rb.trial, rb.n, rb.solver, rb.seed, rb.status)
            assert ra.objective == rb.objective
            assert ra.projector_loss == rb.projector_loss
            assert ra.jaccard == rb.jaccard
            assert ra.iterations == rb.iterations

    def test_master_seed_changes_results(self):
        a, _ = run_sweep(small_cfg())
        b, _ = run_sweep(small_cfg(seed=8))
        assert any(ra.objective != rb.objective for ra, rb in zip(a, b))

    def test_solver_error_recorded_per_row(self):
        # 16 paths > cap 5: brute fails per cell, the others keep running
        records, _ = run_sweep(small_cfg(cap=5))
        brute = [r for r in records if r.solver == "brute"]
        rest = [r for r in records if r.solver != "brute"]
        assert all(r.status == "ValueError" for r in brute)
        assert all(r.objective is None for r in brute)
        assert all(r.status == "ok" for r in rest)

    def test_recovery_improves_with_n(self):
        cfg = SweepConfig(n_grid=[30, 400], trials=6, solvers=["power"],
                          p=14, k=3, d=2, beta=3.0, seed=11)
        records, _ = run_sweep(cfg)
        lo = np.median([r.projector_loss for r in records if r.n == 30])
        hi = np.median([r.projector_loss for r in records if r.n == 400])
        assert hi < lo

    def test_restarts_never_hurt_the_objective(self):
        base = small_cfg(solvers=["power", "sparse-power"], restarts=0)
        more = small_cfg(solvers=["power", "sparse-power"], restarts=4)
        a, _ = run_sweep(base)
        b, resolved = run_sweep(more)
        assert resolved["restarts"] == 4
        for ra, rb in zip(a, b):
            assert rb.objective >= ra.objective - 1e-12
            # each extra start adds at least one iteration to the total
            assert rb.iterations > ra.iterations

    def test_zero_restarts_rejected_below_zero(self):
        with pytest.raises(ValueError):
            small_cfg(restarts=-1)

    def test_spectrum_model(self):
        cfg = small_cfg(model="spectrum", spectrum_exponent=-0.25,
                        n_grid=[60], trials=2)
        records, resolved = run_sweep(cfg)
        assert all(r.status == "ok" for r in records)
        assert resolved["beta"] is None
        assert resolved["spectrum_exponent"] == -0.25

    def test_sparse_auto_matches_truth_nnz(self):
        cfg = small_cfg(solvers=["sparse-power"], n_grid=[50], trials=1)
        records, _ = run_sweep(cfg)
        assert records[0].status == "ok"

    def test_provided_graph(self, tmp_path):
        f = tmp_path / "g.txt"
        write_graph(build_layer_graph(12, 2, 5), f)
        records, resolved = run_sweep(small_cfg(n_grid=[40], trials=1,
                                                graph_file=str(f)))
        assert all(r.status == "ok" for r in records)
        assert resolved["graph"]["graph"] == "provided"

    def test_graph_file_equals_provided_graph(self, tmp_path):
        # the file holds the layer graph that small_cfg's p, k, d build
        f = tmp_path / "g.txt"
        write_graph(build_layer_graph(14, 3, 2), f)
        from_file, info = run_sweep(small_cfg(p=None, k=None, d=None,
                                              graph_file=str(f)))
        built, _ = run_sweep(small_cfg())
        assert all(r.status == "ok" for r in from_file)
        assert ([replace(r, wall_time=0.0) for r in from_file]
                == [replace(r, wall_time=0.0) for r in built])
        assert info["graph"] == {"graph": "provided", "vertex_count": 14, "dim": 14}

    def test_invalid_graph_file_raises_parse_error(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("p=3 source=0 terminal=2\nedge 0 1\nedge 1 0\nedge 1 2\n")
        with pytest.raises(ParseError, match=r"bad\.txt.*cycle"):
            run_sweep(SweepConfig(n_grid=[20], trials=1, graph_file=str(f)))

    @pytest.mark.parametrize("model", ["spiked", "spectrum"])
    def test_metrics_read_the_prepared_covariance(self, monkeypatch, model):
        # one covariance per cell: evaluate gets the matrix the solvers got
        received, evaluated = [], []

        def run_one(solver, cov, *args):
            received.append(cov)
            return original_run_one(solver, cov, *args)

        def evaluate(x, x_star, sigma):
            evaluated.append(sigma)
            return original_evaluate(x, x_star, sigma)

        original_run_one, original_evaluate = sweep._run_one, sweep.evaluate
        monkeypatch.setattr(sweep, "_run_one", run_one)
        monkeypatch.setattr(sweep, "evaluate", evaluate)
        records, _ = run_sweep(small_cfg(model=model, trials=1))
        assert all(r.status == "ok" for r in records)
        assert len(evaluated) == len(received) == len(records)
        for cov, sigma in zip(received, evaluated):
            assert sigma is cov.matrix


class TestCellDecompositions:
    """A cell gates its covariance once and decomposes it only when the
    sampler reads the eigenpairs, inside the sampler's row."""

    @pytest.mark.parametrize("solvers,eigh,cholesky", [
        (["brute", "power", "sample", "sparse-power"], 1, 1),
        (["sample"], 1, 1),
        (["brute", "power", "sparse-power"], 0, 1),
    ])
    def test_factorizations_per_cell(self, monkeypatch, solvers, eigh, cholesky):
        cfg = small_cfg(n_grid=[40], trials=2, solvers=solvers)
        counts = count_factorizations(monkeypatch, 14)
        records, resolved = run_sweep(cfg)
        assert all(r.status == "ok" for r in records)
        assert counts == {"eigh": 2 * eigh, "cholesky": 2 * cholesky}
        assert len(resolved["cell_prepare_s"]) == 2

    def test_the_eigh_runs_in_the_sample_row(self, monkeypatch):
        cfg = small_cfg(n_grid=[40], trials=2, solvers=["power", "sample"])
        counts = count_factorizations(monkeypatch, 14)
        rows = []
        original = sweep._run_one

        def run_one(solver, cov, *args):
            decomposed, before = cov.decomposed, counts["eigh"]
            res = original(solver, cov, *args)
            rows.append((solver, decomposed, counts["eigh"] - before))
            return res

        monkeypatch.setattr(sweep, "_run_one", run_one)
        records, _ = run_sweep(cfg)
        assert all(r.status == "ok" for r in records)
        # power runs first in each cell and finds the covariance undecomposed
        assert rows == [("power", False, 0), ("sample", False, 1)] * 2


class TestStructuredOutputCheck:
    def test_support_outside_path_raises(self):
        dag = build_layer_graph(12, 2, 5)
        path = make_path(dag, (0, 1, 6, 11))
        x = np.zeros(12)
        x[2] = 1.0  # vertex 2 is not on the path
        bad = EstimateResult(x=x, path=path, objective=1.0, iterations=1)
        with pytest.raises(InternalInvariantError):
            check_structured_output(dag, bad, "power")

    def test_missing_path_raises(self):
        dag = build_layer_graph(12, 2, 5)
        x = np.zeros(12)
        x[0] = 1.0
        bad = EstimateResult(x=x, path=None, objective=1.0, iterations=1)
        with pytest.raises(InternalInvariantError):
            check_structured_output(dag, bad, "power")

    def test_non_st_path_raises(self):
        dag = build_layer_graph(12, 2, 5)
        other = build_layer_graph(18, 4, 4)
        stray = make_path(other, (0, 1, 5, 9, 13, 17))
        x = np.zeros(12)
        x[0] = 1.0
        bad = EstimateResult(x=x, path=stray, objective=1.0, iterations=1)
        with pytest.raises(InternalInvariantError):
            check_structured_output(dag, bad, "power")

    def test_good_output_passes(self):
        dag = build_layer_graph(12, 2, 5)
        path = make_path(dag, (0, 1, 6, 11))
        x = np.zeros(12)
        x[[0, 1, 6, 11]] = 0.5
        check_structured_output(
            dag, EstimateResult(x=x, path=path, objective=1.0, iterations=1), "power")


class TestCsvAndSidecar:
    def test_csv_layout(self, tmp_path):
        records, resolved = run_sweep(small_cfg(n_grid=[40], trials=1))
        f = tmp_path / "out.csv"
        write_sweep_csv(records, f)
        lines = f.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert "wall_time" not in lines[0]
        assert len(lines) == 1 + len(records)
        # float cells round-trip exactly through repr
        first = lines[1].split(",")
        assert float(first[CSV_COLUMNS.index("objective")]) == records[0].objective

    def test_csv_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        r1, _ = run_sweep(small_cfg())
        r2, _ = run_sweep(small_cfg())
        write_sweep_csv(r1, a)
        write_sweep_csv(r2, b)
        assert a.read_bytes() == b.read_bytes()

    def test_error_rows_have_empty_metric_cells(self, tmp_path):
        records, _ = run_sweep(small_cfg(cap=5, n_grid=[40], trials=1))
        f = tmp_path / "out.csv"
        write_sweep_csv(records, f)
        brute_line = [l for l in f.read_text().splitlines()[1:]
                      if ",brute," in l][0]
        cells = brute_line.split(",")
        assert cells[CSV_COLUMNS.index("status")] == "ValueError"
        assert cells[CSV_COLUMNS.index("objective")] == ""

    def test_sidecar_contents(self, tmp_path):
        import json
        records, resolved = run_sweep(small_cfg(n_grid=[40], trials=1))
        f = tmp_path / "out.json"
        write_sidecar(resolved, f)
        doc = json.loads(f.read_text())
        assert doc["master_seed"] == 7
        assert "seed_mixing" in doc
        assert doc["total_wall_time_s"] >= 0
        rows = doc["row_wall_time_s"]
        assert len(rows) == len(records) == 4
        assert all(t >= 0 for t in rows)
        assert sum(rows) <= doc["total_wall_time_s"]
        # one preparation per cell, inside its first solver row
        prep = doc["cell_prepare_s"]
        assert len(prep) == 1
        assert 0 <= prep[0] <= rows[0]

    def test_sidecar_seed_mixing_names_the_streams(self):
        # random start j of power / sparse-power draws from the stream
        # (cell, 3, j, 0) / (cell, 4, j, 0), as solvers._starts keys it
        _, resolved = run_sweep(small_cfg(n_grid=[40], trials=1,
                                          solvers=["power"]))
        assert resolved["seed_mixing"] == (
            "cell=(SeedSequence((master,trial,n_index)).generate_state(1,"
            "uint64)[0]); streams: x_star=(cell,0), samples=(cell,1), "
            "sample-solver=(cell,2) one stream for the whole (budget,rank) "
            "draw, power-restarts=(cell,3,j,0), sparse-restarts=(cell,4,j,0)")

    def test_sidecar_row_starts(self, tmp_path):
        # one entry per CSV row: each power start's (objective, iterations,
        # stop reason) in start order, null for brute force and the sampler;
        # the row's objective is the first maximum, its iterations the sum
        import json
        records, resolved = run_sweep(small_cfg(n_grid=[40], trials=1))
        f = tmp_path / "out.json"
        write_sidecar(resolved, f)
        starts = json.loads(f.read_text())["row_starts"]
        assert [r.solver for r in records] == ["brute", "power", "sample",
                                               "sparse-power"]
        assert starts[0] is None and starts[2] is None
        assert starts[1] == [
            [3.138460426189446, 10, "stable"], [1.389929946690729, 102, "stable"],
            [3.1384604261948796, 14, "stable"], [3.138460426196542, 33, "stable"],
            [1.3899299464356534, 77, "stable"], [1.3899299466500932, 92, "stable"]]
        assert starts[3] == [
            [3.4758356498509637, 13, "stable"], [3.4548644501279338, 13, "stable"],
            [3.4758356498393526, 15, "stable"], [3.4758356498373084, 18, "stable"],
            [3.4758356498334777, 19, "stable"], [3.4758356498487593, 16, "stable"]]
        for rec, row in zip(records[1::2], starts[1::2]):
            objs = [o for o, _, _ in row]
            assert rec.objective == max(objs)
            assert rec.iterations == sum(i for _, i, _ in row)
        # the power row's winner is its fourth start, the sparse row's its first
        assert records[1].objective == starts[1][3][0]
        assert records[3].objective == starts[3][0][0]


GOLDEN_DIR = Path(__file__).parent / "data"
GOLDEN_CONFIGS = {
    "sweep_spiked.csv": dict(model="spiked", beta=2.0),
    "sweep_spectrum.csv": dict(model="spectrum", spectrum_exponent=-0.5),
}


class TestGoldenCsv:
    """Sweep CSVs pinned byte for byte across commits: the float formatting,
    the lexicographic tie-breaks and the seed streams of every solver.

    The files were written by ``write_sweep_csv(run_sweep(cfg)[0], path)``
    with the configs below; rewrite them only for a change that is meant to
    alter sweep output, and say so in CHANGES.md."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    def test_matches_golden_bytes(self, name, tmp_path):
        cfg = small_cfg(restarts=2, trials=1, **GOLDEN_CONFIGS[name])
        out = tmp_path / name
        write_sweep_csv(run_sweep(cfg)[0], out)
        assert out.read_bytes() == (GOLDEN_DIR / name).read_bytes()


class TestConfigFiles:
    def test_parse_kv_file(self, tmp_path):
        f = tmp_path / "cfg.txt"
        f.write_text("# sweep config\np = 14\nn = 40,80  # grid\ntrials = 2\n")
        assert parse_kv_file(f) == {"p": "14", "n": "40,80", "trials": "2"}

    def test_duplicate_key_rejected(self, tmp_path):
        from pathpca import ParseError
        f = tmp_path / "cfg.txt"
        f.write_text("p = 14\np = 15\n")
        with pytest.raises(ParseError):
            parse_kv_file(f)

    def test_malformed_line_rejected(self, tmp_path):
        from pathpca import ParseError
        f = tmp_path / "cfg.txt"
        f.write_text("p 14\n")
        with pytest.raises(ParseError):
            parse_kv_file(f)

    def test_parse_sweep_config_full(self):
        cfg = parse_sweep_config({
            "p": "66", "k": "auto", "d": "full", "model": "spiked",
            "beta": "1.5", "n": "50,200", "trials": "3",
            "solvers": "power, sparse-power", "rank": "3", "budget": "500",
            "sparsity": "6", "restarts": "2", "seed": "9", "cap": "100",
            "tol": "1e-8", "max_iters": "50",
        })
        assert cfg.p == 66 and cfg.k == "auto" and cfg.d == "full"
        assert cfg.n_grid == [50, 200]
        assert cfg.solvers == ["power", "sparse-power"]
        assert cfg.beta == 1.5
        assert cfg.sparsity == 6
        assert cfg.restarts == 2
        assert cfg.tol == 1e-8

    def test_parse_sweep_config_defaults(self):
        cfg = parse_sweep_config({"p": "14", "k": "3", "d": "2",
                                  "n": "40", "trials": "1"})
        assert cfg.solvers == ["power"]
        assert cfg.beta == 1.0
        assert cfg.budget == 2000
        assert cfg.sparsity == "auto"
        assert cfg.restarts == 5
        assert cfg.seed == 0

    def test_parse_sweep_config_takes_the_dataclass_defaults(self):
        parsed = parse_sweep_config({"p": "14", "k": "3", "d": "2",
                                     "n": "40", "trials": "1"})
        built = SweepConfig(n_grid=[40], trials=1, p=14, k=3, d=2)
        for f in fields(SweepConfig):
            assert getattr(parsed, f.name) == getattr(built, f.name), f.name

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            parse_sweep_config({"p": "14", "n": "40", "trials": "1",
                                "zebra": "1"})

    def test_missing_required_rejected(self):
        with pytest.raises(ValueError):
            parse_sweep_config({"p": "14", "k": "3", "d": "2", "n": "40"})

    def test_readme_key_table_lists_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Config files", 1)[1].split("\n### ", 1)[0]
        keys = [key for line in section.splitlines() if line.startswith("| `")
                for key in re.findall(r"`([^`]+)`", line.split("|")[1])]
        assert sorted(keys) == sorted(sweep._SWEEP_KEYS)
