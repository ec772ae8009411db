"""Command-line interface: subcommands, file round trips, exit codes."""

import json

import numpy as np
import pytest

from pathpca import load_graph, load_vector, validate, write_covariance_json, write_graph, write_vector
from pathpca.cli import main


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
    vals = {"p": 14, "k": 3, "d": 2, "beta": 1.0, "n": "40,80", "trials": 2,
            "solvers": "brute,power,sample,sparse-power", "budget": 30,
            "cap": 100, "seed": 7}
    vals.update(over)
    f = tmp_path / "sweep.txt"
    f.write_text("".join(f"{k} = {v}\n" for k, v in vals.items()))
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

    def test_dimension_mismatch_exits_3(self, tmp_path, capsys):
        g = chain_graph_file(tmp_path)  # dim 2
        f = tmp_path / "y.csv"
        f.write_text("1.0,2.0\n1.0,2.0\n1.0,2.0\n")  # 3 variables
        code, _, err = run(capsys, "solve", "--graph", g, "--data", str(f))
        assert code == 3
        assert "dimensional" in err

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

    def test_non_finite_exits_4(self, tmp_path, capsys):
        g = chain_graph_file(tmp_path)
        f = tmp_path / "sigma.json"
        f.write_text('{"sigma": [[1.0, 0.0], [0.0, NaN]]}')
        code, _, _ = run(capsys, "solve", "--graph", g, "--data", str(f))
        assert code == 4

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
        from pathpca import build_layer_graph
        cfg = write_sweep_config(tmp_path, n="30", trials=1, solvers="power")
        gf = tmp_path / "g.txt"
        write_graph(build_layer_graph(12, 2, 5), gf)
        out = tmp_path / "c.csv"
        code, _, _ = run(capsys, "sweep", "--config", cfg, "--graph", str(gf),
                         "--out", str(out))
        assert code == 0
        sidecar = json.loads((out.parent / "c.csv.json").read_text())
        assert sidecar["graph"]["graph"] == "provided"

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
