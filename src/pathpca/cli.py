"""Command-line interface.

Subcommands: generate, solve, sweep, project, group-graph, validate.
Exit codes: 0 ok, 2 usage, 3 parse/invalid input (a non-finite vector
included), 4 numeric failure (non-finite samples or covariance, non-PSD),
5 internal invariant violation. ``SweepConfig`` checks the ``generate`` and
``sweep`` configs, ``check_unit_vector`` the ``--x-star`` vector.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path as FsPath

import numpy as np

from .data import (NumericError, SpikedModelParams, check_unit_vector,
                   empirical_covariance, prepare_covariance,
                   random_path_vector, sample_spiked)
from .fileio import (ParseError, load_covariance_json, load_data_csv,
                     load_graph, load_grouping, load_vector, write_data_csv,
                     write_graph, write_vector)
from .graph import build_group_graph, count_paths, validate
from .metrics import evaluate
from .projection import project
from .sweep import (_SWEEP_KEYS, SOLVER_NAMES, InternalInvariantError,
                    SweepConfig, _load_valid_graph, _parse_keys, _run_one,
                    parse_kv_file, parse_sweep_config, resolve_graph,
                    run_sweep, solver_configs, write_sidecar, write_sweep_csv)

OK, USAGE, PARSE, NUMERIC, INTERNAL = 0, 2, 3, 4, 5

# the sweep's entries for the generate config's keys, every one required
_GENERATE_KEYS = {key: _SWEEP_KEYS[key] for key in ("p", "k", "d", "beta", "n")}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="pathpca",
        description="PCA constrained to source-terminal path supports of a DAG")
    sub = top.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate",
                       help="write a layer graph, planted vector, and samples")
    g.add_argument("--config", required=True,
                   help="key=value file with p, k, d, beta, n")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--header", action="store_true",
                   help="write a header row in the sample CSV")

    s = sub.add_parser("solve", help="estimate the path-supported component")
    s.add_argument("--graph", required=True)
    s.add_argument("--data", required=True,
                   help="sample CSV, or covariance JSON if the name ends in .json")
    s.add_argument("--header", action="store_true",
                   help="the sample CSV has a header row")
    s.add_argument("--solver", default="power", choices=SOLVER_NAMES)
    s.add_argument("--rank", type=int, default=SweepConfig.rank)
    s.add_argument("--budget", type=int, default=SweepConfig.budget)
    s.add_argument("--seed", type=int, default=SweepConfig.seed)
    s.add_argument("--sparsity", type=int,
                   help="support size for sparse-power (defaults to the "
                        "planted support size when --x-star is given)")
    s.add_argument("--tol", type=float, default=SweepConfig.tol)
    s.add_argument("--max-iters", type=int, default=SweepConfig.max_iters)
    s.add_argument("--cap", type=int, default=SweepConfig.cap)
    s.add_argument("--x-star", help="planted vector file; adds metrics to the record")
    s.add_argument("--out", help="write the estimate as a vector file")

    w = sub.add_parser("sweep", help="run a recovery sweep from a config file")
    w.add_argument("--config", required=True)
    w.add_argument("--graph", help="graph file; sets the config's graph key, "
                                   "so the config needs no p/k/d")
    w.add_argument("--seed", type=int, help="override the config's master seed")
    w.add_argument("--out", required=True, help="CSV output path")

    p = sub.add_parser("project", help="project a vector onto path supports")
    p.add_argument("--graph", required=True)
    p.add_argument("--vector", required=True, help="input vector file")
    p.add_argument("--out", help="write the projection as a vector file")

    gg = sub.add_parser("group-graph",
                        help="build the one-variable-per-group graph")
    gg.add_argument("--grouping", required=True,
                    help="file of '<var-index> <group-label>' lines")
    gg.add_argument("--out", required=True, help="graph file to write")

    v = sub.add_parser("validate", help="check a graph file's invariants")
    v.add_argument("--graph", required=True)
    return top


def _load_sigma(args) -> np.ndarray:
    if str(args.data).endswith(".json"):
        return load_covariance_json(args.data)
    return empirical_covariance(load_data_csv(args.data, header=args.header))


def cmd_generate(args) -> int:
    mapping = parse_kv_file(args.config)
    try:
        cfg = SweepConfig(trials=1, **_parse_keys(mapping, _GENERATE_KEYS,
                                                  _GENERATE_KEYS))
        if len(cfg.n_grid) > 1:
            raise ValueError(f"n must be one sample size, got {cfg.n_grid}")
    except ValueError as exc:
        raise ParseError(args.config, None, str(exc)) from exc
    dag, shape = resolve_graph(cfg)
    p, k, d = shape["p"], shape["k"], shape["d"]
    beta, n = cfg.beta, cfg.n_grid[0]
    x_star, path = random_path_vector(dag, (args.seed, 0))
    y = sample_spiked(SpikedModelParams(x_star, beta), n, (args.seed, 1))

    out = FsPath(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_graph(dag, out / "graph.txt")
    write_vector(x_star, out / "x_star.txt",
                 comment="path: " + " ".join(map(str, path.vertices)))
    write_data_csv(y, out / "samples.csv", header=args.header)
    print(f"graph: {out / 'graph.txt'} (p={p} k={k} d={d})")
    print(f"x_star: {out / 'x_star.txt'}")
    print(f"samples: {out / 'samples.csv'} (n={n}, beta={beta})")
    return OK


def cmd_solve(args) -> int:
    # built first so that bad settings fail before any file is read
    power, sample = solver_configs(
        "auto" if args.sparsity is None else args.sparsity, args.cap,
        args.max_iters, args.tol, args.rank, args.budget, args.seed)
    t0 = time.perf_counter()
    dag = _load_valid_graph(args.graph)
    sigma = _load_sigma(args)  # its dimension is checked by the preparation
    x_star = (check_unit_vector(load_vector(args.x_star), "x-star", dag.dim)
              if args.x_star else None)
    k = args.sparsity
    if args.solver == "sparse-power" and k is None:
        if x_star is None:
            raise ValueError("sparse-power needs --sparsity (or --x-star "
                             "to default to the planted support size)")
        k = int(np.count_nonzero(x_star))

    t1 = time.perf_counter()
    cov = prepare_covariance(sigma, dag.dim)
    del sigma
    t2 = time.perf_counter()
    res = _run_one(args.solver, cov, dag, power, sample, args.cap, k,
                   (args.seed,))
    t3 = time.perf_counter()

    record = {
        "solver": args.solver,
        "objective": res.objective,
        "iterations": res.iterations,
        "support": sorted(np.flatnonzero(res.x != 0.0).tolist()),
        "path": list(res.path.vertices) if res.path is not None else None,
        "timing": {"load_s": t1 - t0, "prepare_s": t2 - t1, "solve_s": t3 - t2},
        "eigendecomposed": cov.decomposed,
    }
    if res.rank_objective is not None:
        record["rank_objective"] = res.rank_objective
    if res.stop_reason is not None:
        record["stop_reason"] = res.stop_reason
        record["starts"] = res.starts
    if args.solver == "brute":
        record["evaluated"] = len(res.trace)  # paths decomposed, the rest pruned
    if x_star is not None:
        rep = evaluate(res.x, x_star, cov.matrix)
        record["projector_loss"] = rep.projector_loss
        record["jaccard"] = rep.jaccard
        record["explained_variance"] = rep.explained_variance
    print(json.dumps(record, sort_keys=True))
    if args.out:
        comment = None
        if res.path is not None:
            comment = "path: " + " ".join(map(str, res.path.vertices))
        write_vector(res.x, args.out, comment=comment)
    return OK


def cmd_sweep(args) -> int:
    mapping = parse_kv_file(args.config)
    for key, value in (("graph", args.graph), ("seed", args.seed)):
        if value is not None:
            mapping[key] = str(value)
    try:
        cfg = parse_sweep_config(mapping)
    except ValueError as exc:
        raise ParseError(args.config, None, str(exc)) from exc
    records, resolved = run_sweep(cfg)
    write_sweep_csv(records, args.out)
    sidecar = str(args.out) + ".json"
    write_sidecar(resolved, sidecar)
    print(f"rows: {len(records)}")
    print(f"csv: {args.out}")
    print(f"sidecar: {sidecar}")
    return OK


def cmd_project(args) -> int:
    dag = _load_valid_graph(args.graph)
    w = load_vector(args.vector)
    pv = project(dag, w)
    print("path: " + " ".join(map(str, pv.path.vertices)))
    print(f"objective: {float(w @ pv.x)!r}")
    if pv.degenerate:
        print("degenerate: true")
    if args.out:
        write_vector(pv.x, args.out,
                     comment="path: " + " ".join(map(str, pv.path.vertices)))
    else:
        for v in pv.x:
            print(repr(float(v)))
    return OK


def cmd_group_graph(args) -> int:
    groups = load_grouping(args.grouping)
    dag = build_group_graph([vars_ for _, vars_ in groups])
    write_graph(dag, args.out)
    sizes = "*".join(str(len(vars_)) for _, vars_ in groups)
    print(f"groups: {len(groups)} ({', '.join(label for label, _ in groups)})")
    print(f"paths: {count_paths(dag)} = {sizes}")
    print(f"graph: {args.out}")
    return OK


def cmd_validate(args) -> int:
    dag = load_graph(args.graph)
    report = validate(dag)
    if report.ok:
        print(f"ok: {dag!r}")
        return OK
    for v in report.violations:
        print(f"violation: {v}")
    return PARSE


_DISPATCH = {
    "generate": cmd_generate,
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "project": cmd_project,
    "group-graph": cmd_group_graph,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (NumericError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return NUMERIC
    except (ValueError, OSError) as exc:  # ParseError and GraphStructureError too
        print(f"error: {exc}", file=sys.stderr)
        return PARSE
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL
    except Exception as exc:  # anything else is a bug, not bad input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())
