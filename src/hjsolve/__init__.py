"""Monotone single-pass solvers for the gradient-product Hamilton-Jacobi
equation, convergence studies against exact solutions, and Pareto-front
ranking of point clouds."""

from .convergence import (ConvergenceRow, StudySpec, default_mesh_sequence,
                          linf_error, observed_order, run_study)
from .grid import GridField, GridSpec, sweep_order
from .pareto import PointCloud, load_cloud_csv, pareto_fronts, pde_rank, rank_agreement
from .schemes import (BisectionCapError, SchemeDomainError, SchemeKind,
                      SolveError, SolveReport, UpdateInputs, bisect_max_root,
                      residual_stats, s1_update, s2_update, s3_update, solve)
from .testcases import (TestCase, make_case, parse_case, u_from_v, u_from_w,
                        v_from_u, w_from_u)

__version__ = "0.1.0"

__all__ = [
    "BisectionCapError", "ConvergenceRow", "GridField", "GridSpec",
    "PointCloud", "SchemeDomainError", "SchemeKind", "SolveError",
    "SolveReport", "StudySpec", "TestCase", "UpdateInputs",
    "bisect_max_root", "default_mesh_sequence", "linf_error",
    "load_cloud_csv", "make_case", "observed_order", "pareto_fronts",
    "parse_case", "pde_rank", "rank_agreement", "residual_stats",
    "run_study", "s1_update", "s2_update", "s3_update", "solve",
    "sweep_order", "u_from_v", "u_from_w", "v_from_u", "w_from_u",
]
