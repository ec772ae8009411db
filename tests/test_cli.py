"""Command-line interface: subcommands, file round trips, exit codes."""

import json
from dataclasses import fields
from pathlib import Path as FsPath

import numpy as np
import pytest

from pathpca import (build_layer_graph, load_graph, load_vector, validate,
                     write_covariance_json, write_graph, write_vector)
from pathpca import cli
from pathpca.cli import _build_parser, main
from pathpca.sweep import SweepConfig


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_generate_config(tmp_path, **over):
    vals = {"p": 14, "k": 3, "d": 2, "beta": 1.0, "n": 60}
    vals.update(over)
    f = tmp_path / "gen.txt"
    f.write_text("".join(f"{k} = {v}\n" for k, v in vals.items()))
    return str(f)


def write_sweep_config(tmp_path, **over):
    """A sweep config; a key set to None is left out."""
    vals = {"p": 14, "k": 3, "d": 2, "beta": 1.0, "n": "40,80", "trials": 2,
            "solvers": "brute,power,sample,sparse-power", "budget": 30,
            "cap": 100, "seed": 7}
    vals.update(over)
    f = tmp_path / "sweep.txt"
    f.write_text("".join(f"{k} = {v}\n" for k, v in vals.items() if v is not None))
    return str(f)


def chain_graph_file(tmp_path):
    f = tmp_path / "chain.txt"
    f.write_text("p=4 source=0 terminal=3\n"
                 "edge 0 1\nedge 1 2\nedge 2 3\n"
                 "bind 1 0\nbind 2 1\n")
    return str(f)


class TestGenerate:
    def test_writes_graph_truth_and_samples(self, tmp_path, capsys):
        cfg = write_generate_config(tmp_path)
        out = tmp_path / "data"
        code, stdout, _ = run(capsys, "generate", "--config", cfg,
                              "--seed", "3", "--out", str(out))
        assert code == 0
        dag = load_graph(out / "graph.txt")
        assert dag.vertex_count == 14
        assert validate(dag).ok
        x = load_vector(out / "x_star.txt")
        assert abs(np.linalg.norm(x) - 1.0) < 1e-12
        samples = (out / "samples.csv").read_text().splitlines()
        assert len(samples) == 14 and len(samples[0].split(",")) == 60
        assert "graph:" in stdout

    def test_deterministic_given_seed(self, tmp_path, capsys):
        cfg = write_generate_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "generate", "--config", cfg, "--seed", "5", "--out", str(a))
        run(capsys, "generate", "--config", cfg, "--seed", "5", "--out", str(b))
        for name in ("graph.txt", "x_star.txt", "samples.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_auto_layer_count_and_full_degree(self, tmp_path, capsys):
        cfg = write_generate_config(tmp_path, p=12, k="auto", d="full")
        out = tmp_path / "data"
        code, stdout, _ = run(capsys, "generate", "--config", cfg, "--out", str(out))
        assert code == 0
        assert "p=12 k=2 d=5" in stdout

    def test_unknown_key_exits_3(self, tmp_path, capsys):
        cfg = write_generate_config(tmp_path, zebra=1)
        code, _, err = run(capsys, "generate", "--config", cfg,
                           "--out", str(tmp_path / "d"))
        assert code == 3
        assert "zebra" in err

    @pytest.mark.parametrize("key,value", [("n", "abc"), ("k", "three"),
                                           ("beta", "big")])
    def test_unparsable_value_names_key_and_file(self, tmp_path, capsys, key,
                                                 value):
        cfg = write_generate_config(tmp_path, **{key: value})
        out = tmp_path / "d"
        code, _, err = run(capsys, "generate", "--config", cfg, "--out", str(out))
        assert code == 3
        assert "gen.txt" in err and f"{key} = {value}" in err
        assert not out.exists()

    @pytest.mark.parametrize("key,value,message", [
        ("beta", -1, "beta must be nonnegative"),
        ("n", 0, "sample sizes must be positive"),
        ("n", "10,20", "n must be one sample size, got [10, 20]")])
    def test_invalid_value_names_the_file(self, tmp_path, capsys, key, value,
                                          message):
        # checked by SweepConfig, as a sweep config is, before anything runs
        cfg = write_generate_config(tmp_path, **{key: value})
        out = tmp_path / "d"
        code, stdout, err = run(capsys, "generate", "--config", cfg,
                                "--out", str(out))
        assert code == 3
        assert f"error: {cfg}: {message}" in err
        assert stdout == ""
        assert sorted(f.name for f in tmp_path.iterdir()) == ["gen.txt"]


# layer shapes build_layer_graph rejects, with the error it gives
BAD_LAYER_SHAPES = [({"p": 13, "k": 3, "d": 2}, "(p-2)=11 is not divisible by k=3"),
                    ({"p": 2, "k": 1, "d": 1}, "p must be at least 3"),
                    ({"p": 14, "k": 3, "d": 9}, "d=9 must be in 1..4 (the layer width)"),
                    ({"p": 14, "k": 0, "d": "full"}, "k must be at least 1")]


@pytest.mark.parametrize("command", ["generate", "sweep"])
@pytest.mark.parametrize("shape,message", BAD_LAYER_SHAPES)
def test_bad_layer_shape_names_the_config(tmp_path, capsys, command, shape,
                                          message):
    write = write_generate_config if command == "generate" else write_sweep_config
    cfg = write(tmp_path, **shape)
    out = tmp_path / "out"
    code, _, err = run(capsys, command, "--config", cfg, "--out", str(out))
    assert code == 3
    assert f"error: {cfg}: {message}" in err
    assert sorted(f.name for f in tmp_path.iterdir()) == [FsPath(cfg).name]


class TestSolve:
    @pytest.fixture()
    def dataset(self, tmp_path, capsys):
        cfg = write_generate_config(tmp_path, beta=3.0, n=300)
        out = tmp_path / "data"
        run(capsys, "generate", "--config", cfg, "--seed", "1", "--out", str(out))
        return out

    @pytest.mark.parametrize("solver", ["power", "sample", "brute", "sparse-power"])
    def test_each_solver_runs(self, dataset, capsys, solver):
        code, stdout, _ = run(capsys, "solve", "--graph", str(dataset / "graph.txt"),
                              "--data", str(dataset / "samples.csv"),
                              "--solver", solver,
                              "--x-star", str(dataset / "x_star.txt"),
                              "--cap", "100")
        assert code == 0
        record = json.loads(stdout)
        assert record["solver"] == solver
        assert record["objective"] > 0
        assert "projector_loss" in record and "jaccard" in record
        if solver == "sparse-power":
            assert record["path"] is None
        else:
            assert record["path"][0] == 0
            assert set(record["support"]) <= set(record["path"])
        if solver == "sample":
            assert "rank_objective" in record
        if solver in ("power", "sparse-power"):
            assert record["stop_reason"] in ("step", "stable", "max_iters")
        else:
            assert "stop_reason" not in record

    # the records of the four solvers on this dataset, pinned so that a change
    # to the dispatch behind `pathpca solve` cannot move them unnoticed
    PINNED = {
        "power": (3.446757408806359, [0, 2, 7, 12, 13], 10, "stable", None, None),
        "sample": (3.4466696622969812, [0, 2, 7, 12, 13], 2000, None,
                   3.4077602975084793, None),
        "brute": (3.4467574088083683, [0, 2, 7, 12, 13], 16, None, None, 16),
        "sparse-power": (3.446757408806359, None, 10, "stable", None, None),
    }

    @pytest.mark.parametrize("solver", sorted(PINNED))
    def test_record_is_pinned(self, dataset, capsys, solver):
        code, stdout, _ = run(capsys, "solve", "--graph", str(dataset / "graph.txt"),
                              "--data", str(dataset / "samples.csv"),
                              "--solver", solver,
                              "--x-star", str(dataset / "x_star.txt"),
                              "--cap", "100")
        assert code == 0
        record = json.loads(stdout)
        (objective, path, iterations, stop_reason, rank_objective,
         evaluated) = self.PINNED[solver]
        assert record["objective"] == objective
        assert record["path"] == path
        assert record["support"] == [0, 2, 7, 12, 13]
        assert record["iterations"] == iterations
        assert record.get("stop_reason") == stop_reason
        assert record.get("rank_objective") == rank_objective
        if evaluated is None:  # only brute force decomposes paths
            assert "evaluated" not in record
        else:
            assert record["evaluated"] == evaluated

    @pytest.mark.parametrize("solver", sorted(PINNED))
    def test_record_pins_starts(self, dataset, capsys, solver):
        # the power methods record each start's (objective, iterations, stop
        # reason); `pathpca solve` runs one start, the diagonal one
        code, stdout, _ = run(capsys, "solve", "--graph", str(dataset / "graph.txt"),
                              "--data", str(dataset / "samples.csv"),
                              "--solver", solver,
                              "--x-star", str(dataset / "x_star.txt"),
                              "--cap", "100")
        assert code == 0
        record = json.loads(stdout)
        if solver in ("power", "sparse-power"):
            assert record["starts"] == [[3.446757408806359, 10, "stable"]]
        else:
            assert "starts" not in record

    def test_estimate_file_round_trips(self, dataset, tmp_path, capsys):
        est = tmp_path / "estimate.txt"
        code, stdout, _ = run(capsys, "solve", "--graph", str(dataset / "graph.txt"),
                              "--data", str(dataset / "samples.csv"),
                              "--out", str(est))
        assert code == 0
        x = load_vector(est)
        assert abs(np.linalg.norm(x) - 1.0) < 1e-12
        record = json.loads(stdout)
        assert np.flatnonzero(x).tolist() == record["support"]

    def test_covariance_json_input(self, tmp_path, capsys):
        g = chain_graph_file(tmp_path)
        sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
        f = tmp_path / "sigma.json"
        write_covariance_json(sigma, f)
        code, stdout, _ = run(capsys, "solve", "--graph", g, "--data", str(f))
        assert code == 0
        record = json.loads(stdout)
        assert record["objective"] == pytest.approx(
            float(np.linalg.eigvalsh(sigma)[-1]), rel=1e-9)

    @pytest.mark.parametrize("solver", ["power", "sample", "brute", "sparse-power"])
    def test_record_times_the_stages(self, tmp_path, capsys, solver):
        # one prepared covariance serves the solver and the metrics: the
        # explained variance is read off the symmetrized matrix
        g = chain_graph_file(tmp_path)
        sigma = np.array([[2.0, 0.3 + 1e-12], [0.3, 1.0]])
        f = tmp_path / "sigma.json"
        write_covariance_json(sigma, f)
        xs = tmp_path / "x_star.txt"
        write_vector(np.array([0.6, 0.8]), xs)
        est = tmp_path / "estimate.txt"
        code, stdout, _ = run(capsys, "solve", "--graph", g, "--data", str(f),
                              "--solver", solver, "--x-star", str(xs),
                              "--out", str(est))
        assert code == 0
        record = json.loads(stdout)
        assert sorted(record["timing"]) == ["load_s", "prepare_s", "solve_s"]
        assert all(t >= 0 for t in record["timing"].values())
        assert record["eigendecomposed"] is (solver == "sample")
        x = load_vector(est)
        sym = (sigma + sigma.T) * 0.5
        assert record["explained_variance"] == float(x @ sym @ x)

    def test_dimension_mismatch_exits_3(self, tmp_path, capsys):
        g = chain_graph_file(tmp_path)  # dim 2
        f = tmp_path / "y.csv"
        f.write_text("1.0,2.0\n1.0,2.0\n1.0,2.0\n")  # 3 variables
        code, _, err = run(capsys, "solve", "--graph", g, "--data", str(f))
        assert code == 3
        assert "dimensional" in err

    @pytest.mark.parametrize("x_star,message", [
        ("nan\n0.0\n", "x-star must be finite"),
        ("1.0\n0.0\n0.0\n", "x-star has length 3, expected 2")])
    def test_bad_x_star_exits_3_before_solving(self, tmp_path, capsys,
                                               monkeypatch, x_star, message):
        # checked as it loads: no solver runs and no record is printed
        calls = []
        monkeypatch.setattr(cli, "_run_one", lambda *a: calls.append(a))
        g = chain_graph_file(tmp_path)  # dim 2
        f = tmp_path / "sigma.json"
        write_covariance_json(np.eye(2), f)
        x = tmp_path / "x_star.txt"
        x.write_text(x_star)
        code, out, err = run(capsys, "solve", "--graph", g, "--data", str(f),
                             "--x-star", str(x))
        assert code == 3
        assert f"error: {message}" in err
        assert out == ""
        assert calls == []

    def test_non_psd_exits_4(self, tmp_path, capsys):
        g = chain_graph_file(tmp_path)
        f = tmp_path / "sigma.json"
        write_covariance_json(np.diag([1.0, -1.0]), f)
        code, _, err = run(capsys, "solve", "--graph", g, "--data", str(f))
        assert code == 4
        assert "numeric" in err

    def test_brute_non_psd_exits_4(self, tmp_path, capsys):
        g = tmp_path / "diamond.txt"
        g.write_text("p=4 source=0 terminal=3\n"
                     "edge 0 1\nedge 0 2\nedge 1 3\nedge 2 3\n"
                     "bind 0 0\nbind 1 1\nbind 2 2\nbind 3 3\n")
        f = tmp_path / "sigma.json"
        write_covariance_json(np.diag([1.0, -5.0, -3.0, 1.0]), f)
        code, out, err = run(capsys, "solve", "--graph", str(g), "--data", str(f),
                             "--solver", "brute")
        assert code == 4
        assert out == ""
        assert "positive semidefinite" in err

    def test_brute_without_st_path_exits_3(self, tmp_path, capsys):
        g = tmp_path / "split.txt"
        g.write_text("p=4 source=0 terminal=3\nedge 0 1\nedge 2 3\n")
        f = tmp_path / "sigma.json"
        write_covariance_json(np.eye(4), f)
        code, out, err = run(capsys, "solve", "--graph", str(g), "--data", str(f),
                             "--solver", "brute")
        assert code == 3
        assert out == ""
        assert "no path from source to terminal" in err

    def test_non_finite_exits_4(self, tmp_path, capsys):
        g = chain_graph_file(tmp_path)
        f = tmp_path / "sigma.json"
        f.write_text('{"sigma": [[1.0, 0.0], [0.0, NaN]]}')
        code, _, _ = run(capsys, "solve", "--graph", g, "--data", str(f))
        assert code == 4

    @pytest.mark.parametrize("solver", ["power", "sample", "brute", "sparse-power"])
    def test_overflowing_covariance_exits_4(self, tmp_path, capsys, solver):
        # symmetrizing this matrix as (s + s.T) / 2 would overflow to inf
        g = chain_graph_file(tmp_path)
        f = tmp_path / "sigma.json"
        write_covariance_json(np.array([[1e308, 0.0], [0.0, 1.0]]), f)
        code, out, err = run(capsys, "solve", "--graph", g, "--data", str(f),
                             "--solver", solver, "--sparsity", "1")
        assert code == 4
        assert out == ""
        assert "too large" in err

    def test_malformed_covariance_json_names_the_file(self, tmp_path, capsys):
        g = chain_graph_file(tmp_path)
        f = tmp_path / "sigma.json"
        f.write_text('{"p": "two", "sigma": [[1.0, 0.0], [0.0, 1.0]]}')
        code, out, err = run(capsys, "solve", "--graph", g, "--data", str(f))
        assert code == 3
        assert out == ""
        assert "sigma.json" in err and "'p' must be an integer" in err

    @pytest.mark.parametrize("setting", [("--budget", "0"), ("--rank", "0"),
                                         ("--max-iters", "0"), ("--tol", "-1")])
    def test_invalid_setting_exits_3_before_solving(self, tmp_path, capsys, setting):
        # both solver configs are built, and checked, before anything runs
        g = chain_graph_file(tmp_path)
        f = tmp_path / "sigma.json"
        write_covariance_json(np.eye(2), f)
        code, out, _ = run(capsys, "solve", "--graph", g, "--data", str(f),
                           "--solver", "power", *setting)
        assert code == 3
        assert out == ""

    @pytest.mark.parametrize("sigma", ['[[1.0, null], [null, 1.0]]',
                                       '[["1.5", 0.0], [0.0, 1.0]]',
                                       '[[true, false], [false, true]]',
                                       '[[1.0, true], [true, 2]]'])
    def test_non_numeric_covariance_cell_exits_3(self, tmp_path, capsys, sigma):
        g = chain_graph_file(tmp_path)
        f = tmp_path / "sigma.json"
        f.write_text('{"sigma": %s}' % sigma)
        code, out, err = run(capsys, "solve", "--graph", g, "--data", str(f))
        assert code == 3
        assert out == ""
        assert "sigma.json" in err and "matrix of numbers" in err

    def test_integer_cells_must_fit_in_64_bits(self, tmp_path, capsys):
        g = chain_graph_file(tmp_path)
        f = tmp_path / "sigma.json"
        f.write_text('{"sigma": [[100000000000000000000, 0], [0, 1]]}')
        code, out, err = run(capsys, "solve", "--graph", g, "--data", str(f))
        assert code == 3
        assert out == ""
        assert "sigma.json" in err and "matrix of numbers" in err
        f.write_text('{"sigma": [[1e20, 0], [0, 1]]}')  # the same value as a float
        code, out, _ = run(capsys, "solve", "--graph", g, "--data", str(f))
        assert code == 0
        assert json.loads(out)["objective"] == 1e20

    @pytest.mark.parametrize("solver", ["power", "brute"])
    @pytest.mark.parametrize("setting,message", [
        (("--cap", "0"), "cap must be at least 1"),
        (("--sparsity", "0"), "sparsity must be"),
    ])
    def test_cap_and_sparsity_checked_before_reading_files(
            self, tmp_path, capsys, solver, setting, message):
        missing = str(tmp_path / "missing.json")  # never opened
        code, out, err = run(capsys, "solve", "--graph", missing,
                             "--data", missing, "--solver", solver, *setting)
        assert code == 3
        assert out == ""
        assert message in err and "missing.json" not in err

    def test_defaults_are_the_sweep_defaults(self):
        args = _build_parser().parse_args(["solve", "--graph", "g", "--data", "d"])
        defaults = {f.name: f.default for f in fields(SweepConfig)}
        for name in ("rank", "budget", "seed", "tol", "max_iters", "cap"):
            assert getattr(args, name) == defaults[name], name

    def test_sparse_power_needs_a_size(self, tmp_path, capsys):
        g = chain_graph_file(tmp_path)
        f = tmp_path / "sigma.json"
        write_covariance_json(np.eye(2), f)
        code, _, err = run(capsys, "solve", "--graph", g, "--data", str(f),
                           "--solver", "sparse-power")
        assert code == 3
        assert "sparsity" in err
        code, stdout, _ = run(capsys, "solve", "--graph", g, "--data", str(f),
                              "--solver", "sparse-power", "--sparsity", "1")
        assert code == 0

    def test_invalid_graph_exits_3(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("p=3 source=0 terminal=2\nedge 0 1\nedge 1 0\nedge 1 2\n")
        s = tmp_path / "sigma.json"
        write_covariance_json(np.eye(3), s)
        code, _, err = run(capsys, "solve", "--graph", str(f), "--data", str(s))
        assert code == 3
        assert "source" in err or "cycle" in err

    def test_malformed_graph_exits_3(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("not a graph\n")
        s = tmp_path / "sigma.json"
        write_covariance_json(np.eye(2), s)
        code, _, err = run(capsys, "solve", "--graph", str(f), "--data", str(s))
        assert code == 3
        assert "bad.txt" in err


class TestProject:
    def test_projects_and_prints(self, tmp_path, capsys):
        g = chain_graph_file(tmp_path)
        v = tmp_path / "w.txt"
        write_vector([0.6, 0.8], v)
        code, stdout, _ = run(capsys, "project", "--graph", g, "--vector", str(v))
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "path: 0 1 2 3"
        assert float(lines[1].split(": ")[1]) == pytest.approx(1.0, abs=1e-12)

    def test_out_file(self, tmp_path, capsys):
        g = chain_graph_file(tmp_path)
        v = tmp_path / "w.txt"
        write_vector([0.6, 0.8], v)
        out = tmp_path / "x.txt"
        code, _, _ = run(capsys, "project", "--graph", g, "--vector", str(v),
                         "--out", str(out))
        assert code == 0
        np.testing.assert_allclose(load_vector(out), [0.6, 0.8], rtol=1e-15)

    def test_degenerate_flagged(self, tmp_path, capsys):
        g = chain_graph_file(tmp_path)
        v = tmp_path / "w.txt"
        write_vector([0.0, 0.0], v)
        code, stdout, _ = run(capsys, "project", "--graph", g, "--vector", str(v))
        assert code == 0
        assert "degenerate: true" in stdout

    def test_length_mismatch_exits_3(self, tmp_path, capsys):
        g = chain_graph_file(tmp_path)
        v = tmp_path / "w.txt"
        write_vector([1.0, 2.0, 3.0], v)
        code, _, _ = run(capsys, "project", "--graph", g, "--vector", str(v))
        assert code == 3


class TestSweep:
    def test_runs_and_reruns_byte_identical(self, tmp_path, capsys):
        cfg = write_sweep_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        code, stdout, _ = run(capsys, "sweep", "--config", cfg, "--out", str(a))
        assert code == 0
        assert "rows: 16" in stdout
        run(capsys, "sweep", "--config", cfg, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()
        sidecar = json.loads((tmp_path / "a.csv.json").read_text())
        assert sidecar["master_seed"] == 7
        assert sidecar["graph"] == {"p": 14, "k": 3, "d": 2,
                                    "vertex_count": 14, "dim": 14}

    def test_seed_override_changes_output(self, tmp_path, capsys):
        cfg = write_sweep_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "sweep", "--config", cfg, "--out", str(a))
        run(capsys, "sweep", "--config", cfg, "--seed", "99", "--out", str(b))
        assert a.read_bytes() != b.read_bytes()

    def test_graph_file_override(self, tmp_path, capsys):
        cfg = write_sweep_config(tmp_path, n="30", trials=1, solvers="power")
        gf = tmp_path / "g.txt"
        write_graph(build_layer_graph(12, 2, 5), gf)
        out = tmp_path / "c.csv"
        code, _, _ = run(capsys, "sweep", "--config", cfg, "--graph", str(gf),
                         "--out", str(out))
        assert code == 0
        sidecar = json.loads((out.parent / "c.csv.json").read_text())
        assert sidecar["graph"]["graph"] == "provided"

    def test_graph_flag_needs_no_layer_shape(self, tmp_path, capsys):
        # --graph and --seed act as the config's graph and seed keys
        gf = tmp_path / "g.txt"
        write_graph(build_layer_graph(14, 3, 2), gf)
        flags, keys = tmp_path / "flags.csv", tmp_path / "keys.csv"
        cfg = write_sweep_config(tmp_path, p=None, k=None, d=None)
        code, _, err = run(capsys, "sweep", "--config", cfg, "--graph", str(gf),
                           "--seed", "99", "--out", str(flags))
        assert code == 0, err
        cfg = write_sweep_config(tmp_path, p=None, k=None, d=None, graph=gf, seed=99)
        code, _, err = run(capsys, "sweep", "--config", cfg, "--out", str(keys))
        assert code == 0, err
        assert flags.read_bytes() == keys.read_bytes()
        sidecar = json.loads((tmp_path / "flags.csv.json").read_text())
        assert sidecar["master_seed"] == 99
        assert sidecar["graph"] == {"graph": "provided", "vertex_count": 14,
                                    "dim": 14}

    @pytest.mark.parametrize("setting", [{"budget": 0}, {"rank": 0},
                                         {"max_iters": 0}, {"tol": -1},
                                         {"cap": 0}])
    def test_invalid_solver_setting_exits_3_without_csv(self, tmp_path, capsys,
                                                        setting):
        cfg = write_sweep_config(tmp_path, **setting)
        out = tmp_path / "r.csv"
        code, _, err = run(capsys, "sweep", "--config", cfg, "--out", str(out))
        assert code == 3
        assert next(iter(setting)) in err
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [("budget", "abc"), ("tol", "small"),
                                           ("n", "40,x"), ("k", "three")])
    def test_unparsable_value_names_key_and_file(self, tmp_path, capsys, key,
                                                 value):
        cfg = write_sweep_config(tmp_path, **{key: value})
        out = tmp_path / "r.csv"
        code, _, err = run(capsys, "sweep", "--config", cfg, "--out", str(out))
        assert code == 3
        assert "sweep.txt" in err and f"{key} = {value}" in err
        assert not out.exists()

    def test_nan_beta_exits_3_without_csv(self, tmp_path, capsys):
        # the rule SpikedModelParams applies, so NaN fails before any cell
        cfg = write_sweep_config(tmp_path, beta="nan")
        out = tmp_path / "r.csv"
        code, _, err = run(capsys, "sweep", "--config", cfg, "--out", str(out))
        assert code == 3
        assert f"error: {cfg}: beta must be nonnegative" in err
        assert not out.exists()

    def test_bad_config_exits_3(self, tmp_path, capsys):
        f = tmp_path / "cfg.txt"
        f.write_text("p = 14\n")  # missing n and trials
        code, _, _ = run(capsys, "sweep", "--config", str(f),
                         "--out", str(tmp_path / "x.csv"))
        assert code == 3


class TestGroupGraphAndValidate:
    def test_group_graph_build(self, tmp_path, capsys):
        f = tmp_path / "groups.txt"
        f.write_text("0 a\n1 a\n2 b\n3 b\n4 b\n")
        out = tmp_path / "g.txt"
        code, stdout, _ = run(capsys, "group-graph", "--grouping", str(f),
                              "--out", str(out))
        assert code == 0
        assert "paths: 6 = 2*3" in stdout
        d = load_graph(out)
        assert validate(d).ok
        assert d.dim == 5

    def test_validate_ok(self, tmp_path, capsys):
        g = chain_graph_file(tmp_path)
        code, stdout, _ = run(capsys, "validate", "--graph", g)
        assert code == 0
        assert stdout.startswith("ok:")

    def test_validate_reports_violations(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("p=4 source=0 terminal=3\nedge 0 1\nedge 1 2\nedge 2 1\nedge 2 3\n")
        code, stdout, _ = run(capsys, "validate", "--graph", str(f))
        assert code == 3
        assert "violation: " in stdout


class TestUsage:
    def test_missing_required_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--data", "x.csv"])
        assert exc.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
