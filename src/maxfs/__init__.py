"""Heuristic solvers for the maximum feasible subsystem problem on dense
constraint matrices: elastic-programming removal heuristics, a sparse
recovery front end, infeasible-point classification, and a seeded
benchmark harness."""

from .changepoint import best_cut, first_mean_change
from .classify import (
    ClassificationReport,
    Dataset,
    Hyperplane,
    build_constraints,
    classify,
    load_csv,
)
from .core import (
    ExitReason,
    MaxFsResult,
    StrategyConfig,
    build_candidates_alg1,
    build_candidates_alg2,
    build_candidates_alg3,
    solve_maxfs,
)
from .bench import BenchRecord, SweepSpec, gen_instance, run_sweep, summarize
from .recovery import (
    RecoveryProblem,
    RecoveryResult,
    basis_pursuit,
    jokar_pfetsch,
    method_b,
    method_c,
    method_m,
    method_me1e2,
    postprocess,
)
from .simplex import (
    LpProblem,
    LpSolution,
    LpStatus,
    Sense,
    SimplexSolver,
    SolverError,
    make_problem,
)
from .systems import (
    ElasticModel,
    LinearSystem,
    elasticize,
    lift_bounds,
    read_matrix,
    read_system,
    read_vector,
    write_matrix,
    write_system,
    write_vector,
)

__all__ = [
    "BenchRecord",
    "ClassificationReport",
    "Dataset",
    "ElasticModel",
    "ExitReason",
    "Hyperplane",
    "LinearSystem",
    "LpProblem",
    "LpSolution",
    "LpStatus",
    "MaxFsResult",
    "RecoveryProblem",
    "RecoveryResult",
    "Sense",
    "SimplexSolver",
    "SolverError",
    "StrategyConfig",
    "SweepSpec",
    "basis_pursuit",
    "best_cut",
    "build_candidates_alg1",
    "build_candidates_alg2",
    "build_candidates_alg3",
    "build_constraints",
    "classify",
    "elasticize",
    "first_mean_change",
    "gen_instance",
    "jokar_pfetsch",
    "lift_bounds",
    "load_csv",
    "make_problem",
    "method_b",
    "method_c",
    "method_m",
    "method_me1e2",
    "postprocess",
    "read_matrix",
    "read_system",
    "read_vector",
    "run_sweep",
    "solve_maxfs",
    "summarize",
    "write_matrix",
    "write_system",
    "write_vector",
]

__version__ = "0.1.0"
