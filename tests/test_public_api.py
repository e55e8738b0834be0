"""The package's public surface: the names `hjsolve` exports, and the
helpers that were removed from it because only their own tests called them.
Growing the surface again takes a deliberate edit here."""

import hjsolve
from hjsolve import convergence, grid, testcases

PUBLIC = [
    "BisectionCapError", "ConvergenceRow", "GridField", "GridSpec",
    "PointCloud", "SchemeDomainError", "SchemeKind", "SolveError",
    "SolveReport", "StudySpec", "TestCase", "UpdateInputs",
    "default_mesh_sequence", "load_cloud_csv", "make_case", "observed_order",
    "pareto_fronts", "parse_case", "pde_rank", "rank_agreement",
    "residual_stats", "run_study", "s1_update", "s2_update", "s3_update",
    "solve", "to_u",
]

REMOVED = [
    (hjsolve, "sweep_order"), (hjsolve, "linf_error"), (hjsolve, "u_from_v"),
    (hjsolve, "u_from_w"), (hjsolve, "v_from_u"), (hjsolve, "w_from_u"),
    (grid, "sweep_order"), (grid.GridSpec, "coords"),
    (grid.GridSpec, "linear_index"), (grid.GridSpec, "multi_index"),
    (grid.GridField, "zeros"), (grid.GridField, "__getitem__"),
    (grid.GridField, "load_csv"), (testcases, "v_from_u"),
    (testcases, "w_from_u"), (testcases, "u_from_w"),
    (testcases, "u_from_v_values"), (testcases, "v_from_u_values"),
    (testcases, "u_from_w_values"), (testcases, "w_from_u_values"),
    (convergence, "linf_error"),
]


def test_all_is_pinned_and_resolves():
    assert sorted(hjsolve.__all__) == PUBLIC
    assert [name for name in PUBLIC if not hasattr(hjsolve, name)] == []


def test_removed_names_are_gone():
    assert [(getattr(owner, "__name__", owner), name)
            for owner, name in REMOVED if hasattr(owner, name)] == []
