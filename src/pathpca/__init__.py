"""PCA with principal-component support constrained to a DAG's S-T paths."""

__version__ = "0.1.0"

from .graph import (UNBOUND, Dag, GraphStructureError, Path, ValidationReport,
                    build_group_graph, build_layer_graph, count_paths,
                    enumerate_paths, is_st_path, make_path, validate)
from .projection import ProjectedVector, project
from .data import (Covariance, NumericError, SpikedModelParams,
                   covariance_with_spectrum, empirical_covariance,
                   gaussian_sampler, low_rank_factor, prepare_covariance,
                   random_path_vector, sample_spiked, seed_key)
from .solvers import (EstimateResult, PowerMethodConfig, SampleProjectConfig,
                      brute_force_solve, graph_truncated_power,
                      sample_and_project, sparse_truncated_power)
from .metrics import (EvalReport, evaluate, explained_variance,
                      projector_distance, support_jaccard)
from .fileio import (ParseError, load_covariance_json, load_data_csv,
                     load_graph, load_grouping, load_vector,
                     write_covariance_json, write_data_csv, write_graph,
                     write_vector)
from .sweep import (InternalInvariantError, ResultRecord, SweepConfig,
                    cell_seed, nearest_divisor_layers, parse_kv_file,
                    parse_sweep_config, run_sweep, write_sidecar,
                    write_sweep_csv)

__all__ = [
    "UNBOUND", "Dag", "GraphStructureError", "Path", "ValidationReport",
    "build_group_graph", "build_layer_graph", "count_paths", "enumerate_paths",
    "is_st_path", "make_path", "validate", "ProjectedVector", "project",
    "Covariance", "NumericError", "SpikedModelParams",
    "covariance_with_spectrum", "empirical_covariance", "gaussian_sampler",
    "low_rank_factor", "prepare_covariance", "random_path_vector",
    "sample_spiked", "seed_key",
    "EstimateResult", "PowerMethodConfig", "SampleProjectConfig",
    "brute_force_solve", "graph_truncated_power", "sample_and_project",
    "sparse_truncated_power",
    "EvalReport", "evaluate", "explained_variance", "projector_distance",
    "support_jaccard",
    "ParseError", "load_covariance_json", "load_data_csv", "load_graph",
    "load_grouping", "load_vector", "write_covariance_json", "write_data_csv",
    "write_graph", "write_vector",
    "InternalInvariantError", "ResultRecord", "SweepConfig", "cell_seed",
    "nearest_divisor_layers", "parse_kv_file", "parse_sweep_config",
    "run_sweep", "write_sidecar", "write_sweep_csv",
    "__version__",
]
