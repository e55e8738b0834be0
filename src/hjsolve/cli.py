"""Command-line front end: solve, convergence, pareto.

Exit codes: 0 on success, 1 on runtime/data errors (solver failure,
malformed input files), 2 on configuration errors (bad flags, incompatible
combinations, memory guard refusal). Data outputs are bit-identical across
identical invocations; wall-clock time appears only in the JSON report
sidecars.

Environment overrides: HJSOLVE_OUT_DIR (default output directory) and
HJSOLVE_MEM_CAP (memory cap in bytes; the default is the machine's physical
memory where os.sysconf reports it, else 8 GiB).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from . import convergence as conv
from .grid import GridField, GridSpec
from .pareto import (CloudFormatError, PointsOutsideDomainError,
                     check_in_unit_cube, load_cloud_csv, pareto_fronts,
                     pde_rank, rank_agreement, save_ranked_csv)
from .schemes import SchemeKind, SolveError, solve, working_set_bytes
from .testcases import DEFAULT_C, DEFAULT_K, parse_case


class ConfigError(Exception):
    pass


class DataError(Exception):
    pass


def _mem_cap(args) -> int:
    if args.mem_cap is not None:
        return args.mem_cap
    env = os.environ.get("HJSOLVE_MEM_CAP")
    return int(env) if env else conv.FULL_STORAGE_BYTE_CAP


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("HJSOLVE_OUT_DIR") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _guard_memory(spec: GridSpec, args, kinds=()) -> None:
    """Refuse a run whose working set is above the memory cap, before any
    work is done or any file is read. A solve holds its field (none with
    rolling storage) and its front- or slab-sized work arrays
    (schemes.working_set_bytes). `pareto` and `--emit-levelsets` solve the
    schemes `kinds` with full storage and map each field to the u scale in
    place (convergence.u_field); only S3's map holds a field-sized
    temporary, its coordinate product, so only S3 is charged one more field.
    A `--field-file` right-hand side is one more field. Only a full `solve`
    can stream instead, so only it suggests rolling."""
    field = spec.num_nodes * 8
    if args.command == "solve":
        need = working_set_bytes(spec, args.storage)
    else:
        need = working_set_bytes(spec) + field * (SchemeKind.S3 in kinds)
    need += field * bool(getattr(args, "field_file", None))
    cap = _mem_cap(args)
    if need > cap:
        full_solve = args.command == "solve" and args.storage == "full"
        rolling = "--storage rolling or " if full_solve else ""
        raise ConfigError(
            f"full-grid field of {field} bytes for n={spec.n}, m={spec.m} "
            f"needs {need} bytes, above the cap of {cap}; rerun with "
            f"{rolling}a larger --mem-cap / HJSOLVE_MEM_CAP")


@contextmanager
def _timed(phases: dict[str, float], name: str):
    """Record the wall time of the block as phases[name], in seconds."""
    t0 = time.perf_counter()
    yield
    phases[name] = time.perf_counter() - t0


def _peak_rss_bytes() -> int | None:
    """The process's peak resident set size so far (ru_maxrss, which is in
    bytes on macOS and in KiB on Linux), or None where there is no resource
    module (Windows)."""
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else peak * 1024


def _write_report(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _safe_label(label: str) -> str:
    return label.replace(":", "")


def _rhs_source(args, spec: GridSpec):
    if args.field_file:
        if args.case:
            raise ConfigError("give either --case or --field-file, not both")
        try:
            field = GridField.load_binary(args.field_file)
        except (ValueError, OSError) as exc:
            raise DataError(str(exc)) from None
        if field.spec != spec:
            raise ConfigError(
                f"field file is n={field.spec.n}, m={field.spec.m}; "
                f"flags say n={spec.n}, m={spec.m}")
        return field, Path(args.field_file).stem
    if not args.case:
        raise ConfigError("a right-hand side is required: --case or --field-file")
    case = parse_case(args.case, spec.n, k=args.k, C=args.bigc)
    return case.f, _safe_label(case.label)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    spec = GridSpec(args.n, args.m)
    _guard_memory(spec, args)
    f, label = _rhs_source(args, spec)

    rep = solve(spec, args.scheme, f, storage=args.storage)

    out = _out_dir(args)
    prefix = f"solve_{rep.kind.value}_{label}_n{spec.n}_m{spec.m}"
    written = []
    if rep.field is not None:
        if args.format in ("binary", "both"):
            p = out / f"{prefix}.bin"
            rep.field.save_binary(p)
            written.append(str(p))
        if args.format in ("csv", "both"):
            p = out / f"{prefix}.csv"
            rep.field.save_csv(p)
            written.append(str(p))
    report = rep.to_dict()
    report["case"] = label
    report["outputs"] = written
    rp = out / f"{prefix}.report.json"
    _write_report(rp, report)
    print(f"{prefix}: max band violation {rep.max_band_violation:.3e}, "
          f"{rep.bisect_nodes} bisected nodes, wall {rep.wall_time:.3f}s")
    for p in written:
        print(f"  wrote {p}")
    print(f"  wrote {rp}")
    return 0


# ---------------------------------------------------------------------------
# convergence
# ---------------------------------------------------------------------------

def cmd_convergence(args) -> int:
    if not args.case:
        raise ConfigError("--case is required")
    case = parse_case(args.case, args.n, k=args.k, C=args.bigc)
    if args.m_list is not None:
        ms = args.m_list
    else:
        try:
            ms = conv.default_mesh_sequence(args.n, args.max_k)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    study = conv.StudySpec(case=case, schemes=tuple(args.schemes.split(",")),
                           ms=tuple(ms), byte_cap=_mem_cap(args))
    if args.emit_levelsets:
        level_spec = GridSpec(args.n, max(ms))
        _guard_memory(level_spec, args, study.schemes)
    rows = conv.run_study(study)

    title = f"case {case.label}, n={args.n}"
    if args.format == "markdown":
        text = conv.render_markdown(rows, title=title)
    elif args.format == "csv":
        text = conv.render_csv(rows, case)
    else:
        text = conv.render_json(rows, case)
    sys.stdout.write(text)

    if args.out:
        out = _out_dir(args)
        ext = {"markdown": "md", "csv": "csv", "json": "json"}[args.format]
        p = out / f"convergence_{_safe_label(case.label)}_n{args.n}.{ext}"
        p.write_text(text)
        print(f"wrote {p}", file=sys.stderr)
    if args.emit_levelsets:
        out = _out_dir(args)
        for kind in study.schemes:
            p = out / (f"levelset_{kind.value}_{_safe_label(case.label)}"
                       f"_n{args.n}_m{level_spec.m}.csv")
            conv.u_field(level_spec, kind, case.f).save_csv(p)
            print(f"wrote {p}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# pareto
# ---------------------------------------------------------------------------

def cmd_pareto(args) -> int:
    spec = GridSpec(args.n, args.m)
    kind = SchemeKind.parse(args.scheme)
    _guard_memory(spec, args, (kind,))
    f, label = _rhs_source(args, spec)
    phases: dict[str, float] = {}
    with _timed(phases, "load_s"):
        cloud = load_cloud_csv(args.input, args.n)
        work = cloud if args.no_normalize else cloud.normalized()
        check_in_unit_cube(work)  # fail before the costly solve, not after
    with _timed(phases, "fronts_s"):
        fronts = pareto_fronts(work)
    with _timed(phases, "solve_s"):
        u_field = conv.u_field(spec, kind, f)
    with _timed(phases, "rank_s"):
        ranks = pde_rank(work, u_field)
    with _timed(phases, "agreement_s"):
        try:
            agreement = rank_agreement(fronts, ranks)
        except ValueError as exc:
            agreement = None
            print(f"warning: {exc}", file=sys.stderr)

    out = _out_dir(args)
    stem = Path(args.input).stem
    ranked = out / f"{stem}_ranked.csv"
    with _timed(phases, "save_s"):
        save_ranked_csv(ranked, cloud, fronts, ranks)
    report = {
        "input": str(args.input),
        "points": len(cloud),
        "fronts": int(fronts.max()),
        "agreement": agreement,
        "scheme": kind.value,
        "case": label,
        "n": args.n,
        "m": args.m,
        "normalized": not args.no_normalize,
        "wall_time_s": phases["solve_s"],
        "phases": phases,
        "peak_rss_bytes": _peak_rss_bytes(),
    }
    rp = out / f"{stem}_pareto.report.json"
    _write_report(rp, report)
    agreement_txt = "n/a" if agreement is None else f"{agreement:.6f}"
    print(f"{len(cloud)} points, {int(fronts.max())} fronts, "
          f"rank agreement {agreement_txt}")
    print(f"  wrote {ranked}")
    print(f"  wrote {rp}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from None


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True, help="dimension (>= 2)")
    p.add_argument("--k", type=float, default=DEFAULT_K,
                   help="oscillation parameter of case f2")
    p.add_argument("--bigc", type=float, default=DEFAULT_C,
                   help="kink strength parameter of case f3")
    p.add_argument("--out", help="output directory (or HJSOLVE_OUT_DIR)")
    p.add_argument("--mem-cap", type=int, default=None,
                   help="memory cap in bytes (or HJSOLVE_MEM_CAP)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hjsolve",
        description="Monotone single-pass solvers for the gradient-product "
                    "equation, convergence studies, and Pareto-front ranking "
                    "of point clouds.")
    sub = ap.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve one scheme on one mesh")
    _add_common(ps)
    ps.add_argument("--scheme", required=True, help="s1 | s2 | s3")
    ps.add_argument("--m", type=int, required=True, help="subdivisions per axis (h = 1/m)")
    ps.add_argument("--case", help="f1 | f2 | f3 | const:<c>")
    ps.add_argument("--field-file", help="right-hand side as a binary grid-field file")
    ps.add_argument("--storage", default="full", choices=("full", "rolling"))
    ps.add_argument("--format", default="binary", choices=("binary", "csv", "both"))
    ps.set_defaults(func=cmd_solve)

    pc = sub.add_parser("convergence", help="error/order table over a mesh sequence")
    _add_common(pc)
    pc.add_argument("--case", required=True, help="f1 | f2 | f3 | const:<c>")
    pc.add_argument("--schemes", default="s1,s2,s3",
                    help="comma-separated subset of s1,s2,s3")
    pc.add_argument("--max-k", type=int, default=3,
                    help="mesh sequence depth: m = base*ratio^k, k=0..max_k")
    pc.add_argument("--m-list", type=_int_list, default=None,
                    help="explicit mesh sequence, e.g. 40,160,640")
    pc.add_argument("--format", default="markdown", choices=("markdown", "csv", "json"))
    pc.add_argument("--emit-levelsets", action="store_true",
                    help="write contour-ready (x, u) node CSVs at the finest mesh")
    pc.set_defaults(func=cmd_convergence)

    pp = sub.add_parser("pareto", help="sort a point cloud and rank it by the PDE solution")
    _add_common(pp)
    pp.add_argument("--input", required=True, help="point cloud CSV, one point per row")
    pp.add_argument("--m", type=int, required=True, help="solver mesh for the ranking field")
    pp.add_argument("--case", help="f1 | f2 | f3 | const:<c>")
    pp.add_argument("--field-file", help="pre-solved field instead of --case")
    pp.add_argument("--scheme", default="s2", help="scheme for the ranking field")
    pp.add_argument("--no-normalize", action="store_true",
                    help="skip per-axis min/max normalization into [0,1]^n")
    pp.set_defaults(func=cmd_pareto)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolveError, CloudFormatError, PointsOutsideDomainError, DataError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # remaining bad values surface as configuration errors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
