"""The four benchmark workloads: set-up, timed body and output checks.

Each workload is a batch job with one client: its library calls run back to
back in one thread (a closed loop, jobs=1). `setup` builds the inputs,
`body` is the timed part and `check` verifies the outputs afterwards,
outside the timed region. The benchmark calls only public hjsolve functions
and never selects an engine or forces bisection, so changes to the solver's
internals run it unchanged.

Operations are solves and Pareto calls. Every failed check marks the
operation whose output it checks as failed; an operation fails at most once.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from hjsolve import schemes
from hjsolve.convergence import (StudySpec, render_markdown, run_study,
                                 u_scale_error_fn)
from hjsolve.grid import GridField, GridSpec
from hjsolve.pareto import (load_cloud_csv, pareto_fronts, pde_rank,
                            rank_agreement, save_ranked_csv)
from hjsolve.schemes import residual_stats
from hjsolve.testcases import make_case, u_from_v

SCHEMES = ("s1", "s2", "s3")

# Largest residual band violation a solve may certify and still count as
# correct. Closed forms and banded root finds certify at float dust
# (below 1e-12 relative), so this only catches a broken certificate or update.
CERT_TOL = 1e-9

# Acceptance references for case f2 (README "Install and test"): errors per
# mesh row and chained observed orders, with their tolerances. The benchmark
# keeps its own copy so that it checks outputs the same way on every commit.
REF_F2 = {
    2: {"ms": (40, 160, 640, 2560), "err_tol": 0.05, "order_tol": 0.05,
        "s1": ([9.5e-2, 4.6e-2, 2.3e-2, 1.1e-2], [0.53, 0.50, 0.50]),
        "s2": ([2.4e-2, 6.1e-3, 1.6e-3, 4.1e-4], [0.99, 0.97, 0.98]),
        "s3": ([2.4e-2, 5.9e-3, 1.4e-3, 3.5e-4], [1.01, 1.02, 1.02])},
    3: {"ms": (20, 40, 80, 160), "err_tol": 0.10, "order_tol": 0.10,
        "s1": ([3.6e-1, 2.8e-1, 2.2e-1, 1.7e-1], [0.39, 0.36, 0.35]),
        "s2": ([6.6e-2, 4.8e-2, 2.4e-2, 1.2e-2], [0.46, 1.02, 0.94]),
        "s3": ([5.6e-2, 4.0e-2, 2.0e-2, 1.0e-2], [0.48, 1.01, 0.96])},
}

# pareto3d: slopes of the per-axis linear densities g_i(x) = 1 - s/2 + s x,
# each a probability density on [0,1]. Their product is the cloud's density
# and the PDE right-hand side; its exact solution is u = n (G_1 G_2 G_3)^(1/n)
# with G_i the integral of g_i from 0, because prod_i u_xi = prod_i G_i'.
PARETO_SLOPES = (1.0, -1.0, 1.6)
# u-scale sup error of the S2 solve of that right-hand side at m = 80, as
# measured on the seed code, and the tolerance of the n=3 acceptance tables.
PARETO_REF_ERR = {80: 1.7e-2}
PARETO_ERR_TOL = 0.10
# Rank agreement of the PDE ranking with the exact fronts must not fall below
# this on any seed (it measures about 0.99 at N = 20000).
PARETO_MIN_AGREEMENT = 0.90

# Workload parameters. "tiny" sizes serve the benchmark's smoke test; they
# reuse the first rows of the reference tables so every check still applies.
SIZES = {
    "full": {
        "conv2d": {"n": 2, "ms": (40, 160, 640, 2560)},
        "conv3d": {"n": 3, "ms": (20, 40, 80, 160)},
        "stream": {"meshes": ((2, 2560), (3, 20))},
        "pareto3d": {"n": 3, "points": 20_000, "m": 80},
    },
    "tiny": {
        "conv2d": {"n": 2, "ms": (40, 160)},
        "conv3d": {"n": 3, "ms": (20, 40)},
        "stream": {"meshes": ((2, 40), (3, 6))},
        "pareto3d": {"n": 3, "points": 1_000, "m": 80},
    },
}


def _report_count(d: dict, name: str):
    """Root-find counter from SolveReport.to_dict() under its current name
    (root_*) or its older one (bisect_*)."""
    return d.get(f"root_{name}", d.get(f"bisect_{name}"))


@dataclass
class Context:
    """State of one repetition: its tracer, workload parameters, the solve
    records the checks read, and the failure tally."""

    tracer: object
    params: dict
    seed: int
    workdir: str
    attempted: int = 0
    failures: list = field(default_factory=list)
    failed_ops: set = field(default_factory=set)
    solves: list = field(default_factory=list)
    cases: dict = field(default_factory=dict)
    err_ratios: list = field(default_factory=list)
    inputs: dict = field(default_factory=dict)

    def fail(self, op, message: str) -> None:
        self.failures.append(message)
        self.failed_ops.add(op)

    # -- the instrumented solve -------------------------------------------

    def solve(self, spec, kind, f, **kwargs):
        """hjsolve.solve, with a span around the call, a record of the
        report's counters and, when tracing, the probes that time the work
        the call hides."""
        kind = schemes.SchemeKind.parse(kind)
        with self.tracer.span("schemes.solve", scheme=kind.value, n=spec.n,
                              m=spec.m) as sp:
            rep = _ORIGINAL_SOLVE(spec, kind, f, **kwargs)
        d = rep.to_dict()
        rec = {"scheme": kind.value, "n": spec.n, "m": spec.m,
               "storage": d["storage"], "nodes": spec.num_nodes,
               "cert": d["max_band_violation"], "linf": d["linf_error"],
               "root_nodes": _report_count(d, "nodes"),
               "root_iters_mean": _report_count(d, "iters_mean"),
               "root_iters_max": _report_count(d, "iters_max")}
        self.solves.append(rec)
        if sp is not None:
            sp["attrs"].update(rec)
            if rep.field is not None:
                self._probe(sp["id"], rep, kind, f)
        return rep

    def _probe(self, parent, rep, kind, f):
        """Re-run, on the same inputs, the public functions whose work the
        solve hides, each as a child span of the solve."""
        tr = self.tracer
        spec = rep.field.spec
        mesh = spec.mesh()
        if callable(f):
            with tr.span("testcases.rhs", parent=parent):
                f(mesh)
        case = self.cases.get(spec.n)
        if case is not None and f is case.f:
            with tr.span("testcases.exact_u", parent=parent):
                case.u(mesh)
            with tr.span("convergence.error", parent=parent):
                np.max(u_scale_error_fn(kind, case)(rep.field.values, mesh))
        with tr.span("schemes.cert", parent=parent):
            residual_stats(rep.field, kind, f)

    def check_cert(self, op, rec) -> None:
        cert = rec["cert"]
        if not (math.isfinite(cert) and cert <= CERT_TOL):
            self.fail(op, f"{rec['scheme']} n={rec['n']} m={rec['m']}: "
                          f"band violation {cert!r} above {CERT_TOL:g}")

    def check_error(self, op, rec, ref: float, tol: float) -> None:
        err = rec["linf"]
        if err is None or not math.isfinite(err):
            self.fail(op, f"{rec['scheme']} n={rec['n']} m={rec['m']}: "
                          f"error {err!r}")
            return
        self.err_ratios.append(err / ref)
        if abs(err - ref) > tol * ref:
            self.fail(op, f"{rec['scheme']} n={rec['n']} m={rec['m']}: error "
                          f"{err:.4e} vs reference {ref:.1e} (tol {tol:.0%})")


_ORIGINAL_SOLVE = schemes.solve


class solve_hook:
    """Route every module-level `solve` name in the loaded hjsolve modules
    through Context.solve, so calls made inside run_study are recorded and
    traced like direct ones."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.patched = []

    def __enter__(self):
        for mod in [m for name, m in sys.modules.items()
                    if name == "hjsolve" or name.startswith("hjsolve.")]:
            for attr, val in list(vars(mod).items()):
                if val is _ORIGINAL_SOLVE:
                    setattr(mod, attr, self.ctx.solve)
                    self.patched.append((mod, attr))
        return self

    def __exit__(self, *exc):
        for mod, attr in self.patched:
            setattr(mod, attr, _ORIGINAL_SOLVE)


# ---------------------------------------------------------------------------
# conv2d / conv3d: one convergence study per dimension
# ---------------------------------------------------------------------------

def conv_setup(ctx: Context) -> None:
    n = ctx.params["n"]
    ctx.cases[n] = make_case("f2", n)


def conv_body(ctx: Context):
    n, ms = ctx.params["n"], tuple(ctx.params["ms"])
    case = ctx.cases[n]
    ctx.attempted += len(SCHEMES) * len(ms)
    with solve_hook(ctx), ctx.tracer.span("convergence.run_study"):
        rows = run_study(StudySpec(case=case, ms=ms, jobs=1))
    with ctx.tracer.span("convergence.render"):
        table = render_markdown(rows, title=f"case f2, n={n}")
    return rows, table


def conv_check(ctx: Context, out) -> None:
    rows, table = out
    n, ms = ctx.params["n"], tuple(ctx.params["ms"])
    ref = REF_F2[n]
    recs = {(r["scheme"], r["m"]): r for r in ctx.solves}
    if len(ctx.solves) != len(SCHEMES) * len(ms):
        ctx.fail("study", f"expected {len(SCHEMES) * len(ms)} recorded solves, "
                          f"got {len(ctx.solves)}")
    if table.count("\n") != len(ms) + 4:
        ctx.fail("study", "rendered table has the wrong number of lines")
    for s in SCHEMES:
        kind = schemes.SchemeKind.parse(s)
        errs, orders = ref[s]
        for i, row in enumerate(rows[kind]):
            op = (s, row.m)
            rec = recs.get(op)
            if rec is None:
                ctx.fail(op, f"no solve recorded for {s} m={row.m}")
                continue
            ctx.check_cert(op, rec)
            ctx.check_error(op, rec, errs[i], ref["err_tol"])
            if i and (row.order is None
                      or abs(row.order - orders[i - 1]) > ref["order_tol"]):
                ctx.fail(op, f"{s} m={row.m}: order {row.order} vs reference "
                             f"{orders[i - 1]} (tol {ref['order_tol']})")


# ---------------------------------------------------------------------------
# stream: rolling-storage solves with the error folded in
# ---------------------------------------------------------------------------

def stream_setup(ctx: Context) -> None:
    for n, _ in ctx.params["meshes"]:
        ctx.cases[n] = make_case("f2", n)


def stream_body(ctx: Context):
    out = []
    for n, m in ctx.params["meshes"]:
        case = ctx.cases[n]
        for s in SCHEMES:
            kind = schemes.SchemeKind.parse(s)
            ctx.attempted += 1
            rep = ctx.solve(GridSpec(n, m), kind, case.f, storage="rolling",
                            error_fn=u_scale_error_fn(kind, case))
            out.append((n, m, s, rep.final_slab))
    return out


def stream_check(ctx: Context, out) -> None:
    for (n, m, s, slab), rec in zip(out, ctx.solves):
        op = (n, m, s)
        ctx.check_cert(op, rec)
        ref = REF_F2[n]
        if m in ref["ms"]:
            ctx.check_error(op, rec, ref[s][0][ref["ms"].index(m)],
                            ref["err_tol"])
        if n < 3:
            continue
        # the memory-bounded path must agree exactly with full storage
        case = ctx.cases[n]
        kind = schemes.SchemeKind.parse(s)
        full = _ORIGINAL_SOLVE(GridSpec(n, m), kind, case.f,
                               error_fn=u_scale_error_fn(kind, case))
        if full.linf_error != rec["linf"]:
            ctx.fail(op, f"{s} n={n} m={m}: rolling error {rec['linf']!r} != "
                         f"full-storage error {full.linf_error!r}")
        last = full.field.values[-1].reshape(-1)
        if slab is None or not np.array_equal(np.asarray(slab).reshape(-1), last):
            ctx.fail(op, f"{s} n={n} m={m}: rolling final slab differs from "
                         f"the full field's last slab")


# ---------------------------------------------------------------------------
# pareto3d: the `hjsolve pareto --field-file` path on a seeded cloud
# ---------------------------------------------------------------------------

def _axis_density(x, s):
    return (1.0 - 0.5 * s) + s * x


def _axis_cdf(x, s):
    return (1.0 - 0.5 * s) * x + 0.5 * s * x * x


def _axis_inverse_cdf(p, s):
    b = 1.0 - 0.5 * s
    return (np.sqrt(b * b + 2.0 * s * p) - b) / s


def pareto_exact_u(xs):
    n = len(xs)
    prod = 1.0
    for x, s in zip(xs, PARETO_SLOPES):
        prod = prod * _axis_cdf(np.asarray(x, dtype=np.float64), s)
    return n * np.power(prod, 1.0 / n)


def pareto_setup(ctx: Context) -> None:
    n, N, m = ctx.params["n"], ctx.params["points"], ctx.params["m"]
    rng = np.random.default_rng(ctx.seed)
    p = rng.random((N, n))
    pts = np.column_stack([_axis_inverse_cdf(p[:, j], PARETO_SLOPES[j])
                           for j in range(n)])
    files = {name: os.path.join(ctx.workdir, name)
             for name in ("cloud.csv", "density.bin", "cloud_ranked.csv")}
    ctx.inputs.update(points=pts, **files)
    np.savetxt(files["cloud.csv"], pts, fmt="%.17g", delimiter=",")
    spec = GridSpec(n, m)
    F = np.ones(spec.shape)
    for x, s in zip(spec.mesh(), PARETO_SLOPES):
        F = F * _axis_density(x, s)
    with ctx.tracer.span("grid.field_write"):
        GridField(spec, F).save_binary(files["density.bin"])


def pareto_body(ctx: Context):
    tr = ctx.tracer
    n = ctx.params["n"]
    ctx.attempted += 6
    with tr.span("pareto.load"):
        cloud = load_cloud_csv(ctx.inputs["cloud.csv"], n)
        work = cloud.normalized()
    with tr.span("pareto.fronts"):
        fronts = pareto_fronts(work)
    with tr.span("grid.field_read"):
        rhs = GridField.load_binary(ctx.inputs["density.bin"])
    rep = ctx.solve(rhs.spec, "s2", rhs)
    u_field = u_from_v(rep.field)
    with tr.span("pareto.rank"):
        ranks = pde_rank(work, u_field)
    with tr.span("pareto.agreement"):
        agreement = rank_agreement(fronts, ranks)
    with tr.span("pareto.save"):
        save_ranked_csv(ctx.inputs["cloud_ranked.csv"], cloud, fronts, ranks)
    tr.note(pareto_fronts=int(fronts.max()), pareto_agreement=agreement)
    return cloud, work, fronts, u_field, ranks, agreement


def check_fronts(points: np.ndarray, fronts: np.ndarray) -> str | None:
    """Vectorized dominance check of a front labelling: no point dominates
    another of its own front, and each point of front k > 1 is dominated by
    some point of front k-1. Returns the first problem found, or None."""
    if fronts.min() != 1:
        return f"smallest front index is {fronts.min()}, not 1"
    prev = None
    for k in range(1, int(fronts.max()) + 1):
        cur = points[fronts == k]
        if len(cur) == 0:
            return f"front {k} is empty"
        le = np.all(cur[:, None, :] <= cur[None, :, :], axis=2)
        lt = np.any(cur[:, None, :] < cur[None, :, :], axis=2)
        if np.any(le & lt):
            return f"front {k} holds a point that dominates another"
        if prev is not None:
            le = np.all(prev[:, None, :] <= cur[None, :, :], axis=2)
            lt = np.any(prev[:, None, :] < cur[None, :, :], axis=2)
            if not np.all(np.any(le & lt, axis=0)):
                return f"a point of front {k} has no dominator in front {k - 1}"
        prev = cur
    return None


def pareto_check(ctx: Context, out) -> None:
    cloud, work, fronts, u_field, ranks, agreement = out
    N = ctx.params["points"]
    if len(cloud) != N or not np.array_equal(cloud.points, ctx.inputs["points"]):
        ctx.fail("load", "loaded cloud differs from the generated one")
    problem = check_fronts(work.points, fronts)
    if problem:
        ctx.fail("fronts", problem)
    rec = ctx.solves[0]
    ctx.check_cert("solve", rec)
    spec = u_field.spec
    err = float(np.max(np.abs(u_field.values - pareto_exact_u(spec.mesh()))))
    ctx.check_error("solve", {**rec, "linf": err}, PARETO_REF_ERR[spec.m],
                    PARETO_ERR_TOL)
    if ranks.shape != (N,) or not np.all(np.isfinite(ranks)):
        ctx.fail("rank", "ranks are not one finite value per point")
    if not (agreement >= PARETO_MIN_AGREEMENT):
        ctx.fail("agreement", f"rank agreement {agreement!r} below "
                              f"{PARETO_MIN_AGREEMENT}")
    saved = np.loadtxt(ctx.inputs["cloud_ranked.csv"], delimiter=",", ndmin=2)
    if (saved.shape != (N, spec.n + 2)
            or not np.array_equal(saved[:, spec.n], fronts)
            or not np.array_equal(saved[:, :spec.n], cloud.points)):
        ctx.fail("save", "ranked CSV does not hold the cloud and its fronts")


WORKLOADS = {
    "conv2d": (conv_setup, conv_body, conv_check),
    "conv3d": (conv_setup, conv_body, conv_check),
    "stream": (stream_setup, stream_body, stream_check),
    "pareto3d": (pareto_setup, pareto_body, pareto_check),
}
