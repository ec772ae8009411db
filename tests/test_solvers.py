"""Estimation algorithms: truncated power, sample-and-project, brute force,
and the unstructured sparse baseline."""

import math
from dataclasses import replace

import numpy as np
import pytest

from pathpca import (
    Dag,
    GraphStructureError,
    NumericError,
    PowerMethodConfig,
    SampleProjectConfig,
    SpikedModelParams,
    brute_force_solve,
    build_group_graph,
    build_layer_graph,
    empirical_covariance,
    enumerate_paths,
    graph_truncated_power,
    low_rank_factor,
    prepare_covariance,
    project,
    random_path_vector,
    sample_and_project,
    sample_spiked,
    sparse_truncated_power,
)
from pathpca import projection, solvers
from pathpca.data import seed_key

from helpers import (assert_feasible, count_factorizations, one_start,
                     oracle_best_rayleigh, random_dag, random_psd,
                     record_projections, sequential_power)


def diamond():
    return Dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)], 0, 3)


class TestConfigs:
    def test_power_defaults(self):
        cfg = PowerMethodConfig()
        assert cfg.max_iters == 1000
        assert cfg.tol == 1e-9
        assert (cfg.restarts, cfg.seed) == (0, 0)

    def test_power_validation(self):
        with pytest.raises(ValueError):
            PowerMethodConfig(max_iters=0)
        with pytest.raises(ValueError):
            PowerMethodConfig(tol=0.0)
        with pytest.raises(ValueError, match="restarts"):
            PowerMethodConfig(restarts=-1)

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            SampleProjectConfig(rank=0)
        with pytest.raises(ValueError):
            SampleProjectConfig(budget=0)


class TestGraphTruncatedPower:
    def test_identity_covariance_one_iteration(self):
        dag = build_layer_graph(12, 2, 5)
        res = graph_truncated_power(np.eye(12), dag)
        assert res.iterations == 1
        assert res.objective == pytest.approx(1.0, abs=1e-12)
        assert_feasible(dag, res.x, res.path)

    def test_rank_one_recovers_in_one_step(self, monkeypatch):
        dag = build_layer_graph(18, 4, 4)
        v, _ = random_path_vector(dag, seed=3)
        sigma = np.outer(v, v)
        one_start(monkeypatch, np.full(18, 1.0 / np.sqrt(18.0)))
        iterates = record_projections(monkeypatch)
        res = graph_truncated_power(sigma, dag)
        assert abs(v @ iterates[0].x) > 1e-3  # the start overlaps v
        first = iterates[1].x  # after one multiply
        assert abs(float(first @ v)) == pytest.approx(1.0, abs=1e-12)
        assert abs(float(res.x @ v)) == pytest.approx(1.0, abs=1e-12)
        assert res.iterations <= 3

    def test_monotone_trace_and_feasible_iterates(self, monkeypatch):
        rng = np.random.default_rng(41)
        iterates = record_projections(monkeypatch)
        for _ in range(25):
            dag = random_dag(rng, max_interior=16)
            sigma = random_psd(dag.dim, rng)
            iterates.clear()
            res = graph_truncated_power(sigma, dag)
            t = np.asarray(res.trace)
            assert np.all(np.diff(t) >= -1e-10)
            assert res.objective >= 0.0
            assert len(iterates) == res.iterations + 1
            for pv in iterates:
                assert_feasible(dag, pv.x, pv.path)
            assert res.objective == pytest.approx(max(res.trace), abs=0)

    def test_returns_best_iterate(self):
        rng = np.random.default_rng(43)
        dag = random_dag(rng, max_interior=12)
        sigma = random_psd(dag.dim, rng)
        res = graph_truncated_power(sigma, dag)
        assert res.objective == max(res.trace)
        assert float(res.x @ sigma @ res.x) == pytest.approx(res.objective, abs=1e-12)

    def test_random_init_is_seeded(self, monkeypatch):
        dag = build_layer_graph(12, 2, 5)
        rng = np.random.default_rng(44)
        sigma = random_psd(12, rng)
        iterates = record_projections(monkeypatch)
        runs = []
        for seed in (5, 5, 6):
            iterates.clear()
            res = graph_truncated_power(sigma, dag, PowerMethodConfig(restarts=3, seed=seed))
            runs.append((res, [pv.x.tobytes() for pv in iterates]))
        (a, a_xs), (b, b_xs), (c, c_xs) = runs
        assert a.x.tobytes() == b.x.tobytes() and a.trace == b.trace
        assert a_xs == b_xs
        # a different seed starts elsewhere, even if it converges to the same x
        assert a_xs != c_xs

    def test_matches_brute_force_on_spiked_instances(self):
        # frozen instance family: planted path spike, beta=2, n=400; the local
        # method matches the exact solver on 89 of these 100 seeds and must
        # never beat it
        dag = build_layer_graph(20, 3, 6)
        hits = 0
        for t in range(100):
            x_star, _ = random_path_vector(dag, seed=(8100, t))
            y = sample_spiked(SpikedModelParams(x_star=x_star, beta=2.0), 400,
                              seed=(8200, t))
            sigma = empirical_covariance(y)
            b = brute_force_solve(sigma, dag, cap=300)
            g = graph_truncated_power(sigma, dag)
            assert g.objective <= b.objective + 1e-9
            if abs(g.objective - b.objective) <= 1e-9 * max(1.0, b.objective):
                hits += 1
        assert hits >= 70

    def test_rank_deficient_covariance(self, monkeypatch):
        rng = np.random.default_rng(331)
        iterates = record_projections(monkeypatch)
        for _ in range(15):
            dag = random_dag(rng, max_interior=14, max_paths=400)
            sigma = _rank_deficient(dag, rng)
            iterates.clear()
            res = graph_truncated_power(sigma, dag)
            assert np.all(np.diff(np.asarray(res.trace)) >= -1e-10)
            assert len(iterates) == res.iterations + 1
            for pv in iterates:
                assert_feasible(dag, pv.x, pv.path)
            assert res.objective >= -1e-12
            assert res.objective <= brute_force_solve(sigma, dag, cap=400).objective + 1e-9

    def test_zero_weight_falls_back_to_a_binding_path(self):
        # the tie-break path (0, 1, 3) binds nothing: every iterate takes the
        # first path that binds a variable, (0, 2, 3)
        d = Dag(4, [(0, 1), (1, 3), (0, 2), (2, 3)], 0, 3, binding={2: 0})
        res = graph_truncated_power(np.zeros((1, 1)), d)
        assert res.path.vertices == (0, 2, 3)
        assert res.x.tolist() == [1.0]
        assert res.degenerate >= 1

    def test_rejects_bad_input(self):
        dag = diamond()
        with pytest.raises(NumericError):
            graph_truncated_power(np.diag([1.0, 1.0, 1.0, -0.5]), dag)
        with pytest.raises(NumericError):
            graph_truncated_power(np.triu(np.ones((4, 4))), dag)  # asymmetric
        with pytest.raises(ValueError):
            graph_truncated_power(np.eye(5), dag)  # dimension mismatch


class TestTerminalWithOutEdge:
    """No S-T path uses an edge leaving the terminal, so every solver sees the
    one path 0-1-2 of this graph, as enumeration does."""

    def test_solvers_agree_with_enumeration(self):
        dag = Dag(4, [(0, 1), (1, 2), (2, 3)], 0, 2)
        only = [p.vertices for p in enumerate_paths(dag)]
        assert only == [(0, 1, 2)]
        rng = np.random.default_rng(12)
        sigma = random_psd(4, rng)
        w = rng.standard_normal(4)
        pv = project(dag, w)
        assert pv.path.vertices == only[0]
        assert np.allclose(pv.x[:3], w[:3] / np.linalg.norm(w[:3])) and pv.x[3] == 0.0
        power = graph_truncated_power(sigma, dag)
        brute = brute_force_solve(sigma, dag)
        assert power.path.vertices == brute.path.vertices == only[0]
        lam = np.linalg.eigvalsh(sigma[:3, :3])[-1]
        assert brute.objective == pytest.approx(lam, rel=1e-12)
        assert power.objective == pytest.approx(lam, rel=1e-6)


class TestSampleAndProject:
    def test_rank_one_ignores_budget_bit_for_bit(self):
        dag = build_layer_graph(18, 4, 4)
        rng = np.random.default_rng(47)
        sigma = random_psd(18, rng)
        v1 = low_rank_factor(sigma, 1)[:, 0]
        direct = project(dag, v1)
        for budget, seed in [(1, 0), (77, 123)]:
            res = sample_and_project(sigma, dag,
                                     SampleProjectConfig(rank=1, budget=budget, seed=seed))
            assert np.array_equal(res.x, direct.x)
            assert res.path == direct.path

    def test_deterministic(self):
        dag = build_layer_graph(12, 2, 5)
        rng = np.random.default_rng(53)
        sigma = random_psd(12, rng)
        cfg = SampleProjectConfig(rank=3, budget=40, seed=9)
        a = sample_and_project(sigma, dag, cfg)
        b = sample_and_project(sigma, dag, cfg)
        assert np.array_equal(a.x, b.x)
        assert a.trace == b.trace

    def test_budget_prefix_property(self):
        dag = build_layer_graph(12, 2, 5)
        rng = np.random.default_rng(59)
        sigma = random_psd(12, rng)
        small = sample_and_project(sigma, dag, SampleProjectConfig(rank=2, budget=10, seed=4))
        large = sample_and_project(sigma, dag, SampleProjectConfig(rank=2, budget=50, seed=4))
        assert large.trace[:10] == small.trace
        assert large.rank_objective >= small.rank_objective

    def test_selection_is_max_of_its_own_candidates(self):
        dag = build_layer_graph(12, 2, 5)
        rng = np.random.default_rng(61)
        sigma = random_psd(12, rng)
        res = sample_and_project(sigma, dag, SampleProjectConfig(rank=2, budget=60, seed=2))
        assert res.rank_objective == max(res.trace)
        assert_feasible(dag, res.x, res.path)
        assert res.objective == pytest.approx(float(res.x @ sigma @ res.x), abs=1e-12)

    def test_near_optimal_at_small_scale(self):
        # exact rank-2 optimum by enumeration: leading eigenvalue of V V^T
        # restricted to each path support
        dag = build_layer_graph(12, 2, 5)
        rng = np.random.default_rng(67)
        sigma = random_psd(12, rng)
        v = low_rank_factor(sigma, 2)
        opt = oracle_best_rayleigh(dag, v @ v.T)
        res = sample_and_project(sigma, dag, SampleProjectConfig(rank=2, budget=2000, seed=0))
        assert res.rank_objective >= 0.95 * opt

    def test_rejects_bad_rank(self):
        dag = diamond()
        with pytest.raises(ValueError):
            sample_and_project(np.eye(4), dag, SampleProjectConfig(rank=5, budget=10))


class TestBruteForce:
    def test_diamond_dominant_diagonal(self):
        sigma = np.diag([0.5, 2.0, 1.0, 0.5])
        res = brute_force_solve(sigma, diamond(), cap=10)
        assert res.path.vertices == (0, 1, 3)
        assert res.objective == pytest.approx(2.0, abs=1e-12)
        assert res.x.tolist() == [0.0, 1.0, 0.0, 0.0]

    def test_identity_ties_resolve_to_first_path(self):
        res = brute_force_solve(np.eye(4), diamond(), cap=10)
        assert res.path.vertices == (0, 1, 3)
        assert res.objective == pytest.approx(1.0, abs=1e-12)

    def test_trace_lists_per_path_eigenvalues(self):
        # the trace holds the leading eigenvalue of each decomposed path, in
        # enumeration order, as the path's own eigh gives it
        dag = build_layer_graph(34, 4, 8)
        sigma = _spiked(dag, 100, 71)
        res, decomposed = _brute_recording(sigma, dag)
        paths = enumerate_paths(dag)
        expect = [np.linalg.eigh(sigma[np.ix_(paths[i].sorted_support(),
                                              paths[i].sorted_support())])[0][-1]
                  for i in decomposed]
        assert np.array(res.trace).tobytes() == np.array(expect).tobytes()
        assert res.objective == max(res.trace)
        assert len(res.trace) < res.iterations == 4096

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(73)
        for _ in range(15):
            dag = random_dag(rng, max_interior=14, max_paths=400)
            sigma = random_psd(dag.dim, rng)
            res = brute_force_solve(sigma, dag, cap=400)
            assert res.objective == pytest.approx(
                oracle_best_rayleigh(dag, sigma), abs=1e-10)
            assert_feasible(dag, res.x, res.path)

    def test_dominates_heuristics(self):
        rng = np.random.default_rng(79)
        for _ in range(10):
            dag = random_dag(rng, max_interior=14, max_paths=400)
            sigma = random_psd(dag.dim, rng)
            best = brute_force_solve(sigma, dag, cap=400).objective
            g = graph_truncated_power(sigma, dag).objective
            s = sample_and_project(sigma, dag,
                                   SampleProjectConfig(rank=2, budget=50)).objective
            assert g <= best + 1e-9
            assert s <= best + 1e-9

    def test_rank_deficient_covariance(self):
        rng = np.random.default_rng(337)
        for n in (1, 2, 3):
            dag = random_dag(rng, max_interior=14, max_paths=400)
            sigma = _rank_deficient(dag, rng, n=n)
            res = brute_force_solve(sigma, dag, cap=400)
            assert res.objective == pytest.approx(
                oracle_best_rayleigh(dag, sigma), abs=1e-10)
            assert_feasible(dag, res.x, res.path)

    def test_cap_refusal(self):
        dag = build_layer_graph(12, 2, 5)
        with pytest.raises(ValueError):
            brute_force_solve(np.eye(12), dag, cap=24)

    def test_no_st_path_raises_like_the_other_solvers(self):
        dag = Dag(4, [(0, 1), (2, 3)], 0, 3)
        for solve in (brute_force_solve, graph_truncated_power,
                      lambda s, d: sample_and_project(s, d, SampleProjectConfig())):
            with pytest.raises(GraphStructureError,
                               match="terminal unreachable from source"):
                solve(np.eye(4), dag)

    def test_paths_binding_nothing_keep_their_message(self):
        dag = Dag(3, [(0, 1), (1, 2)], 0, 2, binding={}, dim=1)
        with pytest.raises(ValueError, match="no S-T path binds any variable") as err:
            brute_force_solve(np.eye(1), dag)
        assert not isinstance(err.value, GraphStructureError)
        # checked before the cap: two paths, neither binding, over a cap of 1
        dag = Dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)], 0, 3, binding={}, dim=1)
        with pytest.raises(ValueError, match="no S-T path binds any variable"):
            brute_force_solve(np.eye(1), dag, cap=1)


def _reference_brute(sigma, dag, cap=10000):
    """brute_force_solve as a loop over enumerate_paths with one eigh per
    path and a strict > (the first path wins ties): the definition the array
    implementation must reproduce bit for bit. Returns x, path, objective and
    iterations, then each path's leading eigenvalue (None where the path
    binds no variable), in enumeration order."""
    s = prepare_covariance(sigma, dag.dim).matrix
    best, best_obj, lams = None, -np.inf, []
    for path in enumerate_paths(dag, cap):
        sup = path.sorted_support()
        if sup.size == 0:
            lams.append(None)
            continue
        evals, evecs = np.linalg.eigh(s[np.ix_(sup, sup)])
        lam = float(evals[-1])
        lams.append(lam)
        if lam > best_obj:
            q = evecs[:, -1]
            if q[np.argmax(np.abs(q))] < 0:
                q = -q
            best, best_obj = (path, sup, q), lam
    path, sup, q = best
    x = np.zeros(dag.dim)
    x[sup] = q
    return x, path, best_obj, sum(lam is not None for lam in lams), lams


def _brute_recording(sigma, dag):
    """brute_force_solve, and the ascending enumeration indices of the paths
    whose submatrices it decomposed, each decomposed once."""
    decomposed = []

    def per_path(f, row_floats, s, var, sizes, paths):
        if f is solvers._top_eigenvalues:
            decomposed.extend(paths.tolist())
        return original(f, row_floats, s, var, sizes, paths)

    original = solvers._per_path
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_per_path", per_path)
        res = brute_force_solve(sigma, dag)
    assert len(set(decomposed)) == len(decomposed)
    return res, sorted(decomposed)


def _assert_same_as_loop(res, decomposed, ref):
    """x, path, objective and iterations equal the loop's bit for bit; the
    trace is the loop's eigenvalue of each decomposed path, and every path
    left out has an eigenvalue below the objective, so it could not have
    won or tied."""
    x, path, objective, iterations, lams = ref
    assert res.x.tobytes() == x.tobytes()
    assert res.path == path
    assert np.float64(res.objective).tobytes() == np.float64(objective).tobytes()
    assert res.iterations == iterations
    assert np.array(res.trace).tobytes() == np.array([lams[i] for i in decomposed]).tobytes()
    left_out = set(range(len(lams))) - set(decomposed)
    assert all(lams[i] is None or lams[i] < objective for i in left_out)


def _spiked(dag, n, seed, beta=2.0):
    """Empirical covariance of n samples of a spike planted on a uniformly
    random S-T path of dag, drawn as a sweep cell draws its data."""
    x_star, _ = random_path_vector(dag, seed=(seed, 0))
    y = sample_spiked(SpikedModelParams(x_star=x_star, beta=beta), n, seed=(seed, 1))
    return empirical_covariance(y)


class TestBruteForceArray:
    # hand-made graphs for the cases random_dag rarely or never draws
    SPECIAL = (
        # paths of 2, 3 and 4 vertices from an unbound source
        Dag(6, [(0, 1), (1, 2), (2, 5), (0, 3), (3, 5), (0, 5), (1, 4), (4, 5)],
            0, 5, binding={1: 0, 2: 1, 3: 2, 4: 3, 5: 4}),
        # unbound source and terminal
        build_group_graph([[3, 0], [1, 4, 2], [5]]),
        # a variable bound twice on every path, and twice more on one
        Dag(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)], 0, 4,
            binding={0: 0, 1: 1, 2: 1, 3: 2, 4: 0}),
        # the first path binds nothing
        Dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)], 0, 3, binding={2: 1}, dim=2),
        # source == terminal: the one-vertex path
        Dag(3, [(0, 1), (1, 2)], 1, 1),
    )

    @staticmethod
    def _covariances(dag, rng):
        p = dag.dim
        yield random_psd(p, rng)
        yield np.zeros((p, p))  # every path ties at 0
        yield np.eye(p)  # every path ties at 1
        yield _rank_deficient(dag, rng)  # n < p
        yield _spiked(dag, 10, int(rng.integers(1 << 30)), beta=8.0)

    def _cases(self):
        rng = np.random.default_rng(347)
        for dag in self.SPECIAL:
            for sigma in self._covariances(dag, rng):
                yield sigma, dag
        for _ in range(24):
            dag = random_dag(rng, max_interior=16, max_paths=600)
            for sigma in self._covariances(dag, rng):
                yield sigma, dag

    def test_equals_loop_of_eigh_bit_for_bit(self):
        for sigma, dag in self._cases():
            _assert_same_as_loop(*_brute_recording(sigma, dag),
                                 _reference_brute(sigma, dag))

    def test_one_path_incumbent_prunes_and_keeps_the_winner(self, monkeypatch):
        # these graphs have at most a few dozen paths, all inside the default
        # incumbent head; a head of one path makes the bounds prune
        monkeypatch.setattr(solvers, "_INCUMBENT_PATHS", 1)
        pruned = 0
        for sigma, dag in self._cases():
            res, decomposed = _brute_recording(sigma, dag)
            _assert_same_as_loop(res, decomposed, _reference_brute(sigma, dag))
            pruned += len(res.trace) < res.iterations
        assert pruned >= 40

    def test_ties_go_to_the_first_path(self):
        # every path ties, so every bound reaches the incumbent: nothing prunes
        dag = build_layer_graph(34, 4, 8)
        first = enumerate_paths(dag)[0]
        for sigma in (np.zeros((34, 34)), np.eye(34)):
            res, decomposed = _brute_recording(sigma, dag)
            assert res.path == first
            assert len(res.trace) == res.iterations == 4096
            _assert_same_as_loop(res, decomposed, _reference_brute(sigma, dag))

    def test_spiked_instance_prunes(self):
        # a sweep-sized cell: only a small share of the 4,096 paths can win,
        # so a fall-back to decomposing every path shows here
        dag = build_layer_graph(34, 4, 8)
        sigma = _spiked(dag, 100, 359)
        res, decomposed = _brute_recording(sigma, dag)
        assert len(res.trace) < res.iterations // 4
        _assert_same_as_loop(res, decomposed, _reference_brute(sigma, dag))

    @pytest.mark.parametrize("exponent", [-1000, -600, 0, 1000])
    def test_bounds_are_scale_safe(self, exponent):
        # squares of entries near 2^-1000 underflow to 0 and near 2^1000
        # overflow, so unscaled Frobenius norms would prune the winner
        dag = build_layer_graph(34, 4, 8)
        sigma = np.ldexp(_spiked(dag, 10, 361), exponent)
        res, decomposed = _brute_recording(sigma, dag)
        assert len(res.trace) < res.iterations
        _assert_same_as_loop(res, decomposed, _reference_brute(sigma, dag))

    def test_bounds_scale_per_path(self):
        # a variance no path binds, 2^1200 times the paths' entries: scaled
        # by it, every path's entries would underflow to bounds of 0
        layers = build_layer_graph(34, 4, 8)
        dag = Dag(34, layers.edges(), layers.source, layers.terminal, dim=35)
        sigma = np.zeros((35, 35))
        sigma[:34, :34] = np.ldexp(_spiked(layers, 10, 361), -600)
        sigma[34, 34] = 2.0 ** 600
        res, decomposed = _brute_recording(sigma, dag)
        assert len(res.trace) < res.iterations
        _assert_same_as_loop(res, decomposed, _reference_brute(sigma, dag))

    def test_stacks_fit_the_budget(self, monkeypatch):
        # every stacked eigh input, with its eigenvectors and eigenvalues,
        # fits 8 * m * (2k^2 + k) <= _BLOCK_BYTES, and every bound gather,
        # with its row sums, 8 * m * (k^2 + k), on criterion 07's graph
        stacks, gathers = [], []

        def eigh(a, *args, **kwargs):
            if a.ndim == 3:
                m, k, _ = a.shape
                assert 8 * m * (2 * k * k + k) <= solvers._BLOCK_BYTES
                stacks.append(m)
            return original(a, *args, **kwargs)

        def bounds(sub):
            m, k, _ = sub.shape
            assert 8 * m * (k * k + k) <= solvers._BLOCK_BYTES
            gathers.append(m)
            return bound(sub)

        original, bound = np.linalg.eigh, solvers._eigenvalue_bounds
        dag = build_layer_graph(66, 4, 16)
        sigma = random_psd(66, np.random.default_rng(349))
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        monkeypatch.setattr(solvers, "_eigenvalue_bounds", bounds)
        res = brute_force_solve(sigma, dag, cap=70000)
        assert sum(gathers) == res.iterations == 65536
        assert sum(stacks) == len(res.trace) < res.iterations
        # the incumbent's stack, then chunks as wide as the budget allows
        # but the last; likewise for the bounds
        assert stacks[0] == solvers._INCUMBENT_PATHS
        rest = stacks[1:]
        assert len(rest) > 1 and len(set(rest[:-1])) == 1 and rest[-1] <= rest[0]
        assert 8 * (rest[0] + 1) * (2 * 36 + 6) > solvers._BLOCK_BYTES
        assert len(set(gathers[:-1])) == 1 and gathers[-1] <= gathers[0]
        assert 8 * (gathers[0] + 1) * (36 + 6) > solvers._BLOCK_BYTES

    @pytest.mark.parametrize("matrices", [1, 2])
    def test_independent_of_chunking(self, monkeypatch, matrices):
        # chunks of one or two 6x6 submatrices give the default's bytes
        dag = build_layer_graph(34, 4, 8)
        sigma = _rank_deficient(dag, np.random.default_rng(353), n=5)
        want = brute_force_solve(sigma, dag)
        monkeypatch.setattr(solvers, "_BLOCK_BYTES", matrices * 8 * (2 * 36 + 6))
        got, decomposed = _brute_recording(sigma, dag)
        for a, b in ((got.x, want.x), (got.objective, want.objective),
                     (got.trace, want.trace)):
            assert np.array(a).tobytes() == np.array(b).tobytes()
        assert (got.path, got.iterations) == (want.path, want.iterations)
        _assert_same_as_loop(got, decomposed, _reference_brute(sigma, dag))

    def test_mixed_support_sizes_one_matrix_per_chunk(self, monkeypatch):
        monkeypatch.setattr(solvers, "_BLOCK_BYTES", 1)
        for sigma, dag in list(self._cases())[::5]:
            _assert_same_as_loop(*_brute_recording(sigma, dag),
                                 _reference_brute(sigma, dag))


class TestSparseTruncatedPower:
    def test_diagonal_selects_top_entry(self):
        res = sparse_truncated_power(np.diag([3.0, 2.0, 1.0]), k=1)
        assert res.x.tolist() == [1.0, 0.0, 0.0]
        assert res.objective == pytest.approx(3.0, abs=1e-12)
        assert res.path is None

    def test_k_equals_p_is_plain_power_method(self):
        rng = np.random.default_rng(83)
        sigma = random_psd(8, rng)
        lam = float(np.linalg.eigvalsh(sigma)[-1])
        res = sparse_truncated_power(sigma, k=8, config=PowerMethodConfig(max_iters=5000))
        assert res.objective == pytest.approx(lam, rel=1e-6)

    def test_support_size_at_most_k(self):
        rng = np.random.default_rng(89)
        for _ in range(10):
            sigma = random_psd(11, rng)
            res = sparse_truncated_power(sigma, k=4)
            assert np.count_nonzero(res.x) <= 4
            assert abs(np.linalg.norm(res.x) - 1.0) <= 1e-12

    def test_monotone_trace(self):
        rng = np.random.default_rng(97)
        sigma = random_psd(10, rng)
        res = sparse_truncated_power(sigma, k=3)
        assert np.all(np.diff(np.asarray(res.trace)) >= -1e-10)

    def test_rank_deficient_covariance(self):
        rng = np.random.default_rng(347)
        for n in (1, 2, 4):
            sigma = empirical_covariance(rng.standard_normal((12, n)))
            for k in (1, 3, 12):
                res = sparse_truncated_power(sigma, k=k)
                assert np.count_nonzero(res.x) <= k
                assert abs(np.linalg.norm(res.x) - 1.0) <= 1e-12
                assert np.all(np.diff(np.asarray(res.trace)) >= -1e-10)
                assert res.objective <= np.linalg.eigvalsh(sigma)[-1] + 1e-10
            # k = p is plain power iteration, which finds the top eigenvalue
            full = sparse_truncated_power(sigma, k=12, config=PowerMethodConfig(max_iters=5000))
            assert full.objective == pytest.approx(np.linalg.eigvalsh(sigma)[-1], rel=1e-6)

    def test_threshold_tie_breaks_ascending(self):
        # k=2 over equal magnitudes keeps the two lowest indices, from the
        # diagonal start (column 0) on
        res = sparse_truncated_power(np.ones((3, 3)), k=2)
        assert np.flatnonzero(res.x).tolist() == [0, 1]

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            sparse_truncated_power(np.eye(3), k=0)
        with pytest.raises(ValueError):
            sparse_truncated_power(np.eye(3), k=4)


def _top_k_lexsort(w, k):
    # keep-top-k by a full sort: magnitude descending, then index ascending
    sel = np.sort(np.lexsort((np.arange(w.size), -np.abs(w)))[:k])
    x = np.zeros(w.size)
    nrm = float(np.linalg.norm(w[sel]))
    x[sel] = 1.0 / np.sqrt(k) if nrm == 0.0 else w[sel] / nrm
    return x


def _dense_power(s, step, w, cfg):
    """One start of the truncated power loop with dense products, s @ x and
    x @ s @ x, and supports compared as sets: the definition the
    support-restricted loop must reproduce. ``step(w)`` returns (x, support
    set, item); the start weight w is stepped first. Returns (trace, items,
    iterations, stop reason)."""
    x, prev, item = step(w)
    trace, items = [float(x @ s @ x)], [item]
    stable, reason = 0, "max_iters"
    for iterations in range(1, cfg.max_iters + 1):
        nxt, sup, item = step(s @ x)
        trace.append(float(nxt @ s @ nxt))
        items.append(item)
        moved = float(np.linalg.norm(nxt - x))
        same = sup == prev and abs(trace[-1] - trace[-2]) <= cfg.tol
        stable = stable + 1 if same else 0
        x, prev = nxt, sup
        if moved <= cfg.tol:
            reason = "step"
            break
        if stable >= 2:
            reason = "stable"
            break
    return trace, items, iterations, reason


def _start_weights(s, cfg):
    # the documented starts: the max-diagonal column, then restart j as row j
    # of one (restarts, p) draw of the generator keyed by the seed
    draw = np.random.default_rng(seed_key(cfg.seed)).standard_normal(
        (cfg.restarts, s.shape[0]))
    return [s[:, int(np.argmax(np.diag(s)))]] + list(draw)


def _best_of_starts(run, weights):
    """Reference multi-start: ``run(w)`` solves from the one start weight w;
    the best objective is kept (the first start wins ties), with the winner's
    x, trace, path, stop reason and degenerate count, and the iterations are
    summed over all starts."""
    best = run(weights[0])
    total = best.iterations
    for w in weights[1:]:
        res = run(w)
        total += res.iterations
        if res.objective > best.objective:
            best = res
    return replace(best, iterations=total)


def _solve_from(monkeypatch, solve, w):
    # solve() run from the one start weight w
    with monkeypatch.context() as m:
        one_start(m, w)
        return solve()


def _power_cases(rng, count):
    # random DAGs with PSD, rank-deficient, zero and rank-one covariances
    for t in range(count):
        dag = random_dag(rng, max_interior=16)
        a = rng.standard_normal((dag.dim, 1))
        yield dag, (random_psd(dag.dim, rng), _rank_deficient(dag, rng),
                    np.zeros((dag.dim, dag.dim)), a @ a.T)[t % 4]


class TestStartLayout:
    """The random starts are the rows of one (restarts, p) standard normal
    draw of the generator keyed by the seed, after the diagonal column."""

    def test_restart_j_is_row_j_of_one_draw(self):
        s = random_psd(9, np.random.default_rng(481))
        starts = list(solvers._starts(s, PowerMethodConfig(restarts=4, seed=(5, 3))))
        draw = np.random.default_rng((5, 3)).standard_normal((4, 9))
        assert len(starts) == 5
        assert starts[0].tobytes() == s[:, int(np.argmax(np.diag(s)))].tobytes()
        for j in range(4):
            assert starts[j + 1].tobytes() == draw[j].tobytes()

    def test_fewer_restarts_are_a_prefix(self):
        # the draw fills in order, so the starts of restarts=2 are the first
        # starts of restarts=5, and each start's result does not change
        rng = np.random.default_rng(483)
        dag = random_dag(rng, max_interior=16)
        sigma = random_psd(dag.dim, rng)
        few, many = (PowerMethodConfig(restarts=r, seed=11) for r in (2, 5))
        a, b = list(solvers._starts(sigma, few)), list(solvers._starts(sigma, many))
        assert [w.tobytes() for w in a] == [w.tobytes() for w in b[:3]]
        for run in (lambda c: graph_truncated_power(sigma, dag, c),
                    lambda c: sparse_truncated_power(sigma, min(3, dag.dim), c)):
            assert run(few).starts == run(many).starts[:3]


class TestMultiStart:
    """Both power methods run the diagonal start, then ``restarts`` seeded
    random starts, and keep the best; they must equal the reference
    ``_best_of_starts`` over single starts byte for byte."""

    @staticmethod
    def _assert_same(got, want):
        assert got.x.tobytes() == want.x.tobytes()
        assert (got.trace, got.objective, got.iterations, got.stop_reason,
                got.degenerate, got.path) == \
            (want.trace, want.objective, want.iterations, want.stop_reason,
             want.degenerate, want.path)

    def _check(self, monkeypatch, sigma, solve, restarts, seed):
        cfg = PowerMethodConfig(restarts=restarts, seed=seed)
        got = solve(cfg)
        want = _best_of_starts(
            lambda w: _solve_from(monkeypatch, lambda: solve(PowerMethodConfig()), w),
            _start_weights(sigma, cfg))
        self._assert_same(got, want)
        return got

    def test_equals_reference_over_single_starts(self, monkeypatch):
        rng = np.random.default_rng(451)
        later_wins = 0
        for t, (dag, sigma) in enumerate(_power_cases(rng, 24)):
            k = int(rng.integers(1, dag.dim + 1))
            first = graph_truncated_power(sigma, dag)
            for restarts in (0, 1, 5):
                got = self._check(monkeypatch, sigma,
                                  lambda c: graph_truncated_power(sigma, dag, c),
                                  restarts, (t, 3))
                later_wins += got.objective > first.objective
                self._check(monkeypatch, sigma,
                            lambda c: sparse_truncated_power(sigma, k, c),
                            restarts, (t, 4))
        assert later_wins > 0  # some random start beats the diagonal one

    def test_spiked_instance(self, monkeypatch):
        dag = build_layer_graph(130, 8, 4)
        x_star, _ = random_path_vector(dag, seed=409)
        sigma = empirical_covariance(sample_spiked(
            SpikedModelParams(x_star=x_star, beta=2.0), 60, seed=419))
        for restarts in (0, 1, 5):
            self._check(monkeypatch, sigma,
                        lambda c: graph_truncated_power(sigma, dag, c), restarts, 3)
            self._check(monkeypatch, sigma,
                        lambda c: sparse_truncated_power(sigma, 17, c), restarts, 4)

    def test_best_start_keeps_its_diagnostics(self, monkeypatch):
        # zero covariance, one iteration per start: every start ties at 0 and
        # the diagonal start wins with its x, stop reason and degenerate
        # count; the iterations are summed over all three starts
        dag = build_layer_graph(12, 2, 5)
        sigma = np.zeros((12, 12))
        cfg = PowerMethodConfig(max_iters=1, restarts=2, seed=1)
        res = graph_truncated_power(sigma, dag, cfg)
        assert (res.objective, res.iterations) == (0.0, 3)
        assert (res.stop_reason, res.degenerate) == ("step", 2)
        assert res.path == enumerate_paths(dag, cap=25)[0]
        # alone, a random start ends otherwise: its start is not degenerate,
        # and its one step falls back to the uniform loading
        for w in _start_weights(sigma, cfg)[1:]:
            alone = _solve_from(monkeypatch,
                                lambda: graph_truncated_power(sigma, dag, cfg), w)
            assert (alone.objective, alone.iterations) == (0.0, 1)
            assert (alone.stop_reason, alone.degenerate) == ("max_iters", 1)
            assert alone.x.tobytes() != res.x.tobytes()

    def test_later_winner_keeps_its_diagnostics(self, monkeypatch):
        # a random start beats the diagonal one and stops for another reason
        # (a few iterations make "max_iters" stops common): the result
        # carries its x, trace, stop reason and degenerate count, and all
        # starts' iterations. Such a case is rare (at start seed 7 none of
        # the 40 instances is one), so the search runs each instance with
        # the start seeds 7 to 11 in turn: 200 (instance, seed) pairs
        rng = np.random.default_rng(461)
        for dag, sigma in _power_cases(rng, 40):
            for seed in range(7, 12):
                cfg = PowerMethodConfig(max_iters=6, restarts=3, seed=seed)
                single = [_solve_from(monkeypatch, lambda: graph_truncated_power(
                              sigma, dag, replace(cfg, restarts=0)), w)
                          for w in _start_weights(sigma, cfg)]
                objs = [r.objective for r in single]
                win = objs.index(max(objs))
                if win == 0 or single[win].stop_reason == single[0].stop_reason:
                    continue
                res = graph_truncated_power(sigma, dag, cfg)
                assert res.x.tobytes() == single[win].x.tobytes()
                assert res.trace == single[win].trace
                assert (res.stop_reason, res.degenerate) == \
                    (single[win].stop_reason, single[win].degenerate)
                assert res.iterations == sum(r.iterations for r in single)
                return
        pytest.fail("no instance where a later start wins with another stop reason")


class TestSupportRestrictedLoop:
    """Both power methods multiply only on the iterate's support; they must
    agree with the dense loop to 1e-12 and take the same discrete steps."""

    def _cases(self):
        # each start the power methods may take, run alone: the diagonal
        # column, a seeded random draw and an arbitrary vector
        rng = np.random.default_rng(401)
        for t in range(16):
            dag = random_dag(rng, max_interior=16)
            sigma = (random_psd(dag.dim, rng), _rank_deficient(dag, rng),
                     empirical_covariance(rng.standard_normal((dag.dim, 3 * dag.dim))),
                     np.zeros((dag.dim, dag.dim)))[t % 4]
            for w in _start_weights(sigma, PowerMethodConfig(restarts=1, seed=(t, 1))):
                yield dag, sigma, w
            yield dag, sigma, rng.standard_normal(dag.dim)
        dag = build_layer_graph(130, 8, 4)
        x_star, _ = random_path_vector(dag, seed=409)
        sigma = empirical_covariance(sample_spiked(
            SpikedModelParams(x_star=x_star, beta=2.0), 60, seed=419))
        for w in _start_weights(sigma, PowerMethodConfig(restarts=1, seed=3)):
            yield dag, sigma, w

    @staticmethod
    def _assert_trace_close(got, want):
        assert len(got) == len(want)
        scale = max(1.0, max(abs(v) for v in want))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)

    def test_graph_power_matches_dense_loop(self, monkeypatch):
        made = record_projections(monkeypatch)
        cfg = PowerMethodConfig()
        for dag, sigma, w in self._cases():
            def step(w):
                pv = project(dag, w)
                return pv.x, pv.path.support, pv
            trace, iterates, iterations, reason = _dense_power(sigma, step, w, cfg)
            made.clear()
            res = _solve_from(monkeypatch, lambda: graph_truncated_power(sigma, dag), w)
            self._assert_trace_close(res.trace, trace)
            assert [pv.path for pv in made] == [pv.path for pv in iterates]
            assert res.iterations == iterations
            assert res.stop_reason == reason
            assert res.degenerate == sum(pv.degenerate for pv in iterates)
            best = iterates[int(np.argmax(trace))]
            assert res.path == best.path
            np.testing.assert_allclose(res.x, best.x, rtol=0, atol=1e-12)
            assert res.objective == pytest.approx(max(trace), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 3, "p"])
    def test_sparse_power_matches_dense_loop(self, monkeypatch, k):
        seen = []

        def top_k(w, kk):
            x = original(w, kk)
            seen.append(x)
            return x

        original = solvers._top_k_unit
        monkeypatch.setattr(solvers, "_top_k_unit", top_k)
        cfg = PowerMethodConfig()
        for dag, sigma, w in self._cases():
            kk = dag.dim if k == "p" else min(k, dag.dim)

            def step(w):
                x = _top_k_lexsort(w, kk)
                return x, frozenset(np.flatnonzero(x).tolist()), x
            trace, iterates, iterations, reason = _dense_power(sigma, step, w, cfg)
            seen.clear()
            res = _solve_from(monkeypatch, lambda: sparse_truncated_power(sigma, kk), w)
            self._assert_trace_close(res.trace, trace)
            assert [np.flatnonzero(x).tolist() for x in seen] == \
                [np.flatnonzero(x).tolist() for x in iterates]
            assert res.iterations == iterations
            assert res.stop_reason == reason
            assert res.degenerate == 0
            best = iterates[int(np.argmax(trace))]
            np.testing.assert_allclose(res.x, best, rtol=0, atol=1e-12)

    def test_stop_reasons(self):
        rng = np.random.default_rng(421)
        dag = random_dag(rng, max_interior=16)
        sigma = random_psd(dag.dim, rng)
        for run in (lambda c: graph_truncated_power(sigma, dag, c),
                    lambda c: sparse_truncated_power(sigma, min(3, dag.dim), c)):
            once = run(PowerMethodConfig(max_iters=1))
            assert (once.iterations, once.stop_reason) == (1, "max_iters")
            full = run(PowerMethodConfig())
            assert full.stop_reason == "stable" and full.iterations > 2
        # the iterate stops moving: a fixed point reached in one step
        res = graph_truncated_power(np.eye(12), build_layer_graph(12, 2, 5))
        assert (res.iterations, res.stop_reason) == (1, "step")
        res = sparse_truncated_power(np.diag([3.0, 2.0, 1.0]), k=1)
        assert (res.iterations, res.stop_reason) == (1, "step")

    def test_degenerate_count(self, monkeypatch):
        dag = build_layer_graph(12, 2, 5)
        sigma = random_psd(12, np.random.default_rng(431))
        assert graph_truncated_power(sigma, dag).degenerate == 0
        # the diagonal start and the one step after it both see w = 0
        res = graph_truncated_power(np.zeros((12, 12)), dag)
        assert (res.degenerate, res.iterations, res.stop_reason) == (2, 1, "step")
        assert res.path == enumerate_paths(dag, cap=25)[0]
        # a random start is not degenerate, its steps are
        iterates = record_projections(monkeypatch)
        one_start(monkeypatch, np.random.default_rng(2).standard_normal(12))
        res = graph_truncated_power(np.zeros((12, 12)), dag)
        assert not iterates[0].degenerate
        assert res.degenerate == len(iterates) - 1 >= 1
        assert sparse_truncated_power(np.zeros((12, 12)), 3).degenerate == 0

    def test_keeps_only_the_best_iterate(self, monkeypatch):
        # every start keeps the walk rows of its best iterate, and only the
        # winner's become a Path: make_path runs once per solve, whatever
        # the iterations and starts, and the result is the untracked one
        made = []

        def counted(*args, **kwargs):
            made.append(args[1])
            return original(*args, **kwargs)

        original = projection.make_path
        dag = build_layer_graph(130, 8, 4)
        x_star, _ = random_path_vector(dag, seed=409)
        sigma = empirical_covariance(sample_spiked(
            SpikedModelParams(x_star=x_star, beta=2.0), 60, seed=419))
        # a tiny tol runs on into exact float ties and dips of the objective,
        # where the best iterate is not the latest one
        for restarts in (0, 3):
            cfg = PowerMethodConfig(restarts=restarts, seed=3, tol=1e-300)
            made.clear()
            with monkeypatch.context() as m:
                m.setattr(projection, "make_path", counted)
                res = graph_truncated_power(sigma, dag, cfg)
            assert len(made) == 1
            assert res.iterations > 1 + restarts
            assert tuple(made[0].tolist()) == res.path.vertices
            untracked = graph_truncated_power(sigma, dag, cfg)
            assert untracked.x.tobytes() == res.x.tobytes()
            assert (untracked.trace, untracked.path) == (res.trace, res.path)
            assert res.trace.index(max(res.trace)) < len(res.trace) - 1


def _assert_identical(got, want):
    # x, trace, objectives and per-start diagnostics byte for byte
    def floats(v):
        return np.asarray(v, dtype=float).tobytes()

    assert got.x.tobytes() == want.x.tobytes()
    assert floats(got.trace) == floats(want.trace)
    assert floats(got.objective) == floats(want.objective)
    assert (got.iterations, got.stop_reason, got.degenerate, got.path) == \
        (want.iterations, want.stop_reason, want.degenerate, want.path)
    assert floats([o for o, _, _ in got.starts]) == \
        floats([o for o, _, _ in want.starts])
    assert got.starts == want.starts


class TestLockstep:
    """The power methods run all starts in lockstep, as the columns of one
    block; they must equal ``sequential_power``, the starts one after
    another with one ``project`` per iteration, byte for byte."""

    def _check(self, sigma, dag, k, cfg):
        got = graph_truncated_power(sigma, dag, cfg)
        _assert_identical(got, sequential_power(sigma, dag, None, cfg))
        sparse = sparse_truncated_power(sigma, k, cfg)
        _assert_identical(sparse, sequential_power(sigma, None, k, cfg))
        return got, sparse

    def test_equals_sequential_starts(self):
        # columns retire at different iterations: few iterations stop many
        # starts at "max_iters", many let each stop at its own rule
        rng = np.random.default_rng(471)
        retired_apart = 0
        for t, (dag, sigma) in enumerate(_power_cases(rng, 16)):
            k = int(rng.integers(1, dag.dim + 1))
            for restarts in (0, 1, 5):
                for max_iters in (1, 6, 1000):
                    cfg = PowerMethodConfig(max_iters=max_iters,
                                            restarts=restarts, seed=(t, 5))
                    got, _ = self._check(sigma, dag, k, cfg)
                    assert len(got.starts) == restarts + 1
                    assert got.iterations == sum(i for _, i, _ in got.starts)
                    retired_apart += len({i for _, i, _ in got.starts}) > 1
        assert retired_apart > 0

    def test_one_block_per_iteration(self, monkeypatch):
        # each iteration projects the running starts as one block, which
        # shrinks as starts stop: the start block holds every start, and
        # block i the starts that run at least i iterations
        widths = []

        def counted(dag_, w):
            widths.append(w.shape[1])
            return original(dag_, w)

        original = solvers._paths
        monkeypatch.setattr(solvers, "_paths", counted)
        rng = np.random.default_rng(475)
        for dag, sigma in _power_cases(rng, 8):
            widths.clear()
            res = graph_truncated_power(
                sigma, dag, PowerMethodConfig(restarts=5, seed=1))
            runs = [i for _, i, _ in res.starts]
            assert widths == [6] + [sum(r >= i for r in runs)
                                    for i in range(1, max(runs) + 1)]

    def test_ties_go_to_the_earliest_start(self):
        # a zero covariance ties every start at objective 0: the diagonal
        # start wins, with its own degenerate count
        rng = np.random.default_rng(473)
        for _ in range(4):
            dag = random_dag(rng, max_interior=16)
            sigma = np.zeros((dag.dim, dag.dim))
            cfg = PowerMethodConfig(restarts=5, seed=2)
            got, sparse = self._check(sigma, dag, min(3, dag.dim), cfg)
            for res in (got, sparse):
                assert [o for o, _, _ in res.starts] == [0.0] * 6
            alone = graph_truncated_power(sigma, dag, replace(cfg, restarts=0))
            assert got.x.tobytes() == alone.x.tobytes()
            assert got.degenerate == alone.degenerate

    def test_rescaled_and_unscaled_columns(self):
        # TestTopOfCovarianceRange's scaled covariance: the diagonal start's
        # squares could overflow, so its column is rescaled, while the
        # random starts' columns are stepped as they are
        dag = build_layer_graph(6, 2, 2)
        top = np.finfo(float).max / 12
        limit = np.finfo(float).max / 6
        cfg = PowerMethodConfig(tol=1e-12, restarts=3)
        for seed in range(10):
            s = random_psd(6, np.random.default_rng(seed))
            big = s * 2.0**int(np.floor(np.log2(top / np.abs(s).max())))
            tops = [float(np.abs(w).max()) for w in solvers._starts(big, cfg)]
            assert tops[0] * tops[0] >= limit
            assert all(t * t < limit for t in tops[1:])
            for k in (2, 3):
                self._check(big, dag, k, cfg)


class TestTopOfCovarianceRange:
    def test_scaled_covariance_gives_the_same_answer(self):
        # s * 2**j with entries just under the float max / 2p that
        # prepare_covariance accepts: s @ x is finite but its squares
        # overflow. tol is absolute, so on the scaled matrix only the step
        # rule can stop a start; a tight tol makes both runs converge.
        dag = build_layer_graph(6, 2, 2)
        cfg = PowerMethodConfig(tol=1e-12, restarts=2)
        top = np.finfo(float).max / 12
        for seed in range(10):
            s = random_psd(6, np.random.default_rng(seed))
            j = int(np.floor(np.log2(top / np.abs(s).max())))
            big = s * 2.0**j
            pairs = [(graph_truncated_power(s, dag, cfg), graph_truncated_power(big, dag, cfg))]
            pairs += [(sparse_truncated_power(s, k, cfg), sparse_truncated_power(big, k, cfg))
                      for k in (2, 3)]
            for a, b in pairs:
                assert a.path == b.path
                assert np.array_equal(np.flatnonzero(a.x), np.flatnonzero(b.x))
                assert b.objective / 2.0**j == pytest.approx(a.objective, rel=1e-12)


class TestTopK:
    def test_matches_full_sort_with_ties_and_zeros(self):
        rng = np.random.default_rng(433)
        vectors = [np.zeros(9), -np.zeros(9), np.ones(9), np.array([1.0, -1.0, 0.0, -0.0, 1.0])]
        for _ in range(60):
            p = int(rng.integers(1, 40))
            w = rng.integers(-2, 3, size=p).astype(float)
            w[rng.random(p) < 0.2] = -0.0
            vectors.append(w)
        vectors.append(rng.standard_normal(50))
        for w in vectors:
            for k in range(1, w.size + 1):
                want = _top_k_lexsort(w, k)
                got = solvers._top_k_unit(w, k)
                assert got.tobytes() == want.tobytes(), (w, k)


class TestPreparedCovariance:
    def test_every_solver_matches_on_raw_and_prepared_input(self):
        dag = build_layer_graph(12, 2, 5)
        sigma = random_psd(12, np.random.default_rng(101))
        cov = prepare_covariance(sigma, dag.dim)
        runs = [
            lambda s: graph_truncated_power(s, dag),
            lambda s: graph_truncated_power(
                s, dag, PowerMethodConfig(restarts=2, seed=(4, 1))),
            lambda s: sample_and_project(s, dag, SampleProjectConfig(budget=20)),
            lambda s: brute_force_solve(s, dag, cap=25),
            lambda s: sparse_truncated_power(s, 3),
        ]
        for run in runs:
            a, b = run(sigma), run(cov)
            assert np.array_equal(a.x, b.x)
            assert a.objective == b.objective
            assert a.trace == b.trace

    def test_brute_force_rejects_non_psd(self):
        with pytest.raises(NumericError):
            brute_force_solve(np.diag([1.0, -5.0, -3.0, 1.0]), diamond(), cap=10)


class TestDecompositionCounts:
    """Every solver gates the covariance once; only sample-and-project reads
    eigenpairs, so only it decomposes the full covariance."""

    def test_power_sparse_and_brute_run_no_full_eigh(self, monkeypatch):
        dag = build_layer_graph(12, 2, 5)
        sigma = random_psd(12, np.random.default_rng(102))
        runs = [
            lambda: graph_truncated_power(sigma, dag),
            lambda: sparse_truncated_power(sigma, 3),
            lambda: brute_force_solve(sigma, dag, cap=25),
        ]
        counts = count_factorizations(monkeypatch, 12)
        for run in runs:
            run()
        assert counts["eigh"] == 0
        assert counts["cholesky"] == len(runs)  # the gate's first Cholesky

    def test_sample_and_project_decomposes_once(self, monkeypatch):
        dag = build_layer_graph(12, 2, 5)
        sigma = random_psd(12, np.random.default_rng(103))
        counts = count_factorizations(monkeypatch, 12)
        sample_and_project(sigma, dag, SampleProjectConfig(budget=20))
        assert counts == {"eigh": 1, "cholesky": 1}


def _reference_sample(sigma, dag, cfg):
    """sample_and_project written as a loop of project() calls, one candidate
    at a time: the definition the block implementation must reproduce.

    The directions are the rows of one (budget, rank) standard normal draw,
    each normalized and signed in scalar arithmetic, and w = sum_i v_i c_i is
    summed term by term in the block's order. A candidate is scored as the
    block scores it, with sums taken in order down its support: mathematical
    ties (a rank-deficient factor makes many) are broken by rounding, so only
    the same arithmetic picks the same winner. Returns the winner's
    projection, objective and score, the scores, and the scores as
    ``np.sum((V.T @ x) ** 2)``."""
    cov = prepare_covariance(sigma, dag.dim)
    v = low_rank_factor(cov, cfg.rank)
    draws = np.random.default_rng(seed_key(cfg.seed)).standard_normal(
        (cfg.budget, cfg.rank))
    best, best_ro, trace, dense = None, -np.inf, [], []
    for g in draws.tolist():
        sq = g[0] * g[0]
        for gi in g[1:]:
            sq += gi * gi
        nrm = math.sqrt(sq)
        c = [gi / nrm for gi in g] if nrm else [1.0] + [0.0] * (cfg.rank - 1)
        if next(ci for ci in c if ci != 0.0) < 0.0:
            c = [-ci for ci in c]
        w = v[:, 0] * c[0]
        for i in range(1, cfg.rank):
            w = w + v[:, i] * c[i]
        pv = project(dag, w)
        sup = pv.path.sorted_support()
        x = w[sup]
        nrm = np.sqrt(np.cumsum(x * x)[-1])
        x = x / nrm if nrm else np.full(sup.size, 1.0 / np.sqrt(sup.size))
        t = np.cumsum(v[sup] * x[:, None], axis=0)[-1]
        ro = t[0] * t[0]
        for ti in t[1:]:
            ro += ti * ti
        trace.append(float(ro))
        dense.append(float(np.sum((v.T @ pv.x) ** 2)))
        if best is None or ro > best_ro:
            best, best_ro = pv, float(ro)
    return best, float(best.x @ cov.matrix @ best.x), best_ro, trace, dense


def _assert_same_as_reference(res, ref):
    # everything bit for bit; the scores also agree to 1e-12 with the matrix
    # product, which sums in another order
    pv, objective, rank_objective, trace, dense = ref
    assert res.x.tobytes() == pv.x.tobytes()
    assert res.path == pv.path
    assert res.objective == objective
    assert res.rank_objective == rank_objective
    assert res.trace == trace
    np.testing.assert_allclose(res.trace, dense, rtol=1e-12, atol=1e-12)


def _rank_deficient(dag, rng, n=None):
    # empirical covariance of n < p samples: rank n, zero eigenvalues that
    # come out of eigh slightly negative
    n = n if n is not None else max(1, dag.dim // 3)
    return empirical_covariance(rng.standard_normal((dag.dim, n)))


class TestSampleAndProjectBlock:
    def _cases(self):
        rng = np.random.default_rng(307)
        for t in range(12):
            dag = random_dag(rng, max_interior=16)
            sigma = random_psd(dag.dim, rng) if t % 2 else _rank_deficient(dag, rng)
            for rank in (1, 2, 3):
                if rank <= dag.dim:
                    yield sigma, dag, SampleProjectConfig(
                        rank=rank, budget=(1, 7, 64, 150)[t % 4], seed=(t, rank))

    def test_equals_loop_of_project(self):
        for sigma, dag, cfg in self._cases():
            _assert_same_as_reference(sample_and_project(sigma, dag, cfg),
                                      _reference_sample(sigma, dag, cfg))

    def test_rank_deficient_layer_graph(self):
        dag = build_layer_graph(34, 4, 8)
        sigma = _rank_deficient(dag, np.random.default_rng(311), n=5)
        assert np.linalg.matrix_rank(sigma) == 5
        for rank in (1, 2, 3):
            cfg = SampleProjectConfig(rank=rank, budget=200, seed=rank)
            res = sample_and_project(sigma, dag, cfg)
            _assert_same_as_reference(res, _reference_sample(sigma, dag, cfg))
            assert_feasible(dag, res.x, res.path)

    def test_zero_covariance_every_candidate_degenerate(self):
        dag = build_layer_graph(12, 2, 5)
        cfg = SampleProjectConfig(rank=2, budget=30, seed=4)
        res = sample_and_project(np.zeros((12, 12)), dag, cfg)
        ref = _reference_sample(np.zeros((12, 12)), dag, cfg)
        assert ref[0].degenerate
        _assert_same_as_reference(res, ref)
        assert res.trace == [0.0] * 30
        assert res.path == enumerate_paths(dag, cap=25)[0]

    def test_tie_break_path_without_variables_falls_back(self):
        # only vertex 2 bound: a zero weight's tie-break path (0, 1, 3) binds
        # nothing, so every candidate takes the first path that binds a
        # variable, (0, 2, 3), as project does
        d = Dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)], 0, 3, binding={2: 0})
        cfg = SampleProjectConfig(rank=1, budget=3)
        res = sample_and_project(np.zeros((1, 1)), d, cfg)
        _assert_same_as_reference(res, _reference_sample(np.zeros((1, 1)), d, cfg))
        assert res.path.vertices == (0, 2, 3)
        assert res.x.tolist() == [1.0]
        assert res.trace == [0.0] * 3

    def test_fallback_support_longer_than_the_walk(self):
        # a zero weight's tie-break path (0, 1, 7) binds nothing; the first
        # path that binds a variable, (0, 2, 3, 4, 5, 7), binds four, more
        # than the three rows of the chunk's walk
        d = Dag(8, [(0, 1), (1, 7), (0, 2), (2, 3), (3, 4), (4, 5), (5, 7),
                    (0, 6), (6, 7)], 0, 7, binding={2: 0, 3: 1, 4: 2, 5: 3, 6: 4})
        cfg = SampleProjectConfig(rank=2, budget=12, seed=3)
        zero = np.zeros((5, 5))
        res = sample_and_project(zero, d, cfg)
        _assert_same_as_reference(res, _reference_sample(zero, d, cfg))
        assert res.path.vertices == (0, 2, 3, 4, 5, 7)
        assert res.x.tolist() == [0.5] * 4 + [0.0]
        # a weight on variable 4 alone takes the path through vertex 6
        sigma = np.diag([0.0, 0.0, 0.0, 0.0, 1.0])
        res = sample_and_project(sigma, d, cfg)
        _assert_same_as_reference(res, _reference_sample(sigma, d, cfg))
        assert res.path.vertices == (0, 6, 7)

    def test_ties_across_chunks_go_to_the_first_index(self, monkeypatch):
        # each path binds one variable of an identity covariance, so every
        # candidate is +-e_j and scores exactly 1; two candidates per chunk
        d = Dag(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)], 0, 4,
                binding={1: 0, 2: 1, 3: 2})
        cfg = SampleProjectConfig(rank=3, budget=9, seed=11)
        monkeypatch.setattr(solvers, "_BLOCK_BYTES", 2 * 8 * 43)  # 43 floats a column
        assert solvers._block_width(d, solvers._BLOCK_BYTES, 3) == 2
        res = sample_and_project(np.eye(3), d, cfg)
        assert res.trace == [1.0] * 9
        v = low_rank_factor(np.eye(3), 3)
        c = solvers._directions(np.random.default_rng(seed_key(cfg.seed)), 9, 3)
        xs = [project(d, v[:, 0] * c[0, i] + v[:, 1] * c[1, i] + v[:, 2] * c[2, i]).x
              for i in range(9)]
        # the first candidate of every later chunk is another vector
        assert all(xs[i].tolist() != xs[0].tolist() for i in (2, 4, 6, 8))
        assert res.x.tolist() == xs[0].tolist()

    @pytest.mark.parametrize("block_bytes", [1, 1 << 40])
    def test_independent_of_chunking(self, monkeypatch, block_bytes):
        # one column per chunk, then the whole budget in one chunk
        cases = list(self._cases())[::3]
        expect = [sample_and_project(*case) for case in cases]
        monkeypatch.setattr(solvers, "_BLOCK_BYTES", block_bytes)
        for case, want in zip(cases, expect):
            got = sample_and_project(*case)
            assert got.x.tobytes() == want.x.tobytes()
            assert got.path == want.path
            assert got.trace == want.trace

    def test_long_supports_independent_of_chunking(self, monkeypatch):
        # 32 variables a path: numpy sums 8 or more terms of a lone column
        # pairwise, so only sums taken in order keep a one-column chunk's
        # scores equal to a wide chunk's
        dag = build_layer_graph(66, 32, 2)
        sigma = random_psd(66, np.random.default_rng(317))
        cases = [SampleProjectConfig(rank=rank, budget=40, seed=rank) for rank in (1, 2, 9)]
        expect = [sample_and_project(sigma, dag, cfg) for cfg in cases]
        monkeypatch.setattr(solvers, "_BLOCK_BYTES", 1)
        for cfg, want in zip(cases, expect):
            got = sample_and_project(sigma, dag, cfg)
            assert got.x.tobytes() == want.x.tobytes()
            assert got.trace == want.trace

    @pytest.mark.parametrize("block_bytes", [40_000, 100_000, solvers._BLOCK_BYTES])
    def test_block_arrays_stay_within_budget(self, monkeypatch, block_bytes):
        # every chunk's arrays fit the budget, 8 bytes per entry and column:
        # the direction draw and its normalized copy (rank rows each), the
        # weights (dim rows) and their padded squares (dim + 1 rows), the DP
        # values (|V| + 1 rows), the gather of the largest neighbour table,
        # padding included, and for each of L rows (L bounding the walk's
        # rows) the vertex rows, the sorted supports, the gathered weights,
        # their squares and the rank factor rows
        widths, walks = [], []

        def paths(dag_, w):
            assert w.shape[0] == dag_.dim
            widths.append(w.shape[1])
            out = original_paths(dag_, w)
            walks.append(out[0].shape[0])
            return out

        original_paths = solvers._paths
        monkeypatch.setattr(solvers, "_BLOCK_BYTES", block_bytes)
        monkeypatch.setattr(solvers, "_paths", paths)
        dag = build_layer_graph(130, 8, 4)
        waves = dag._projection_plan.waves
        table = max(tab.size for wave in waves for _, tab in wave)
        steps = len(waves) + 1
        sigma = random_psd(130, np.random.default_rng(313))
        cfg = SampleProjectConfig(rank=2, budget=500, seed=1)
        res = sample_and_project(sigma, dag, cfg)
        assert sum(widths) == cfg.budget
        assert max(walks) <= steps
        per_col = (2 * cfg.rank + 2 * dag.dim + 1 + dag.vertex_count + 1 + table
                   + steps * (4 + cfg.rank))
        for b in widths:
            assert 8 * b * per_col <= block_bytes
        assert max(widths) > 1  # it did batch
        monkeypatch.undo()
        assert res.trace == sample_and_project(sigma, dag, cfg).trace


class TestDirections:
    """The sampler's directions: uniform on the unit sphere up to the sign
    rule, one stream for the whole (budget, rank) draw."""

    def test_one_stream_for_the_whole_draw(self):
        key = seed_key((5, 2))
        whole = solvers._directions(np.random.default_rng(key), 1000, 3)
        rng = np.random.default_rng(key)
        parts = [solvers._directions(rng, b, 3) for b in (1, 7, 300, 692)]
        assert whole.tobytes() == np.hstack(parts).tobytes()
        g = np.random.default_rng(key).standard_normal((1000, 3)).T
        np.testing.assert_allclose(np.abs(whole), np.abs(g) / np.linalg.norm(g, axis=0),
                                   rtol=1e-15)

    @pytest.mark.parametrize("rank", [1, 2, 3, 5])
    def test_unit_norm_and_positive_first_nonzero(self, rank):
        c = solvers._directions(np.random.default_rng(17), 5000, rank)
        assert c.shape == (rank, 5000)
        np.testing.assert_allclose(np.linalg.norm(c, axis=0), 1.0, rtol=1e-15)
        assert (c[np.argmax(c != 0.0, axis=0), np.arange(5000)] > 0).all()

    def test_zero_draw_becomes_e1(self):
        class Zeros:
            def standard_normal(self, shape):
                return np.zeros(shape)

        assert solvers._directions(Zeros(), 2, 3).T.tolist() == [[1.0, 0.0, 0.0]] * 2

    @pytest.mark.parametrize("rank", [2, 3, 5])
    def test_moments_match_the_sphere(self, rank):
        # uniform on the sphere: E[c c^T] = I / rank, which the sign rule
        # keeps; the coordinates after the first keep mean 0, and the first
        # becomes |c_0|, of mean Gamma(r/2) / (sqrt(pi) Gamma((r+1)/2))
        n = 200_000
        c = solvers._directions(np.random.default_rng(23), n, rank)
        np.testing.assert_allclose(c @ c.T / n, np.eye(rank) / rank, atol=5e-3)
        assert np.abs(c[1:].mean(axis=1)).max() < 5e-3
        first = math.gamma(rank / 2) / (math.sqrt(math.pi) * math.gamma((rank + 1) / 2))
        assert c[0].mean() == pytest.approx(first, abs=5e-3)

    def test_rank_two_angle_is_uniform(self):
        # chi-square on the angle of c in (-pi/2, pi/2], 36 equal bins
        n, bins = 100_000, 36
        c = solvers._directions(np.random.default_rng(29), n, 2)
        angle = np.arctan2(c[1], c[0])
        assert (np.abs(angle) <= np.pi / 2).all()
        counts = np.histogram(angle, bins=bins, range=(-np.pi / 2, np.pi / 2))[0]
        chi2 = float(((counts - n / bins) ** 2 / (n / bins)).sum())
        assert chi2 < 66.6  # the 0.999 quantile of chi-square with 35 df
