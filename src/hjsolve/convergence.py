"""Convergence-study harness: mesh sequences, sup-norm errors against exact
solutions, observed orders, and table rendering.

Errors and level sets are always on the u scale (testcases.to_u maps S2's v
and S3's w back to u). The default mesh sequences per dimension are
m = 40*4^k (n=2), m = 20*2^k (n=3) and m = 4*2^k (n=4) for k = 0..5,
truncatable via max_k.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .grid import GridField, GridSpec
from .schemes import SchemeKind, solve, working_set_bytes
from .testcases import TestCase, to_u

_SEQUENCES = {2: (40, 4), 3: (20, 2), 4: (4, 2)}


def _physical_memory() -> int:
    """Bytes of physical memory, or 8 GiB where os.sysconf cannot tell."""
    try:
        pages = os.sysconf("SC_PHYS_PAGES")
        page = os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return 8 << 30
    return pages * page if pages > 0 and page > 0 else 8 << 30


FULL_STORAGE_BYTE_CAP = _physical_memory()  # default memory cap, in bytes


def default_mesh_sequence(n: int, max_k: int = 5) -> list[int]:
    if n not in _SEQUENCES:
        raise ValueError(f"no default mesh sequence for n={n}; pass ms explicitly")
    if max_k < 0:
        raise ValueError("max_k must be >= 0")
    base, ratio = _SEQUENCES[n]
    return [base * ratio ** k for k in range(max_k + 1)]


@dataclass(frozen=True)
class StudySpec:
    case: TestCase
    schemes: tuple[SchemeKind, ...] = (SchemeKind.S1, SchemeKind.S2, SchemeKind.S3)
    ms: tuple[int, ...] = ()
    jobs: int = 1  # rows run in order; kept, as 1 only, for benchmarks/workloads.py
    byte_cap: int = FULL_STORAGE_BYTE_CAP

    def __post_init__(self):
        if not self.ms:
            raise ValueError("empty mesh sequence")
        if any(m2 <= m1 for m1, m2 in zip(self.ms, self.ms[1:])):
            raise ValueError(f"mesh sequence must be strictly increasing, got {self.ms}")
        kinds = tuple(SchemeKind.parse(k) for k in self.schemes)
        if not kinds:
            raise ValueError("empty scheme list")
        if len(set(kinds)) != len(kinds):
            raise ValueError(f"duplicate scheme in {','.join(k.value for k in kinds)}")
        object.__setattr__(self, "schemes", kinds)  # frozen: store SchemeKinds
        if self.jobs != 1:
            raise ValueError(f"jobs must be 1 (rows run in order), got {self.jobs}")


@dataclass(frozen=True)
class ConvergenceRow:
    m: int
    h: float
    error: float
    order: float | None


def observed_order(e_prev: float, e_cur: float, h_prev: float, h_cur: float) -> float:
    """log(e_prev/e_cur) / log(h_prev/h_cur)."""
    if min(e_prev, e_cur, h_prev, h_cur) <= 0.0:
        raise ValueError("observed order undefined for nonpositive errors or mesh sizes")
    return math.log(e_prev / e_cur) / math.log(h_prev / h_cur)


def u_scale_error_fn(kind: SchemeKind, case: TestCase):
    """Per-node |numeric - exact| on the u scale, as a function of the raw
    solved values and the node coordinates."""
    return lambda vals, xs: np.abs(to_u(kind, vals, xs, case.n) - case.u(xs))


def u_field(spec: GridSpec, kind, f) -> GridField:
    """Solve with full storage and return the field on the u scale. The
    solved array is transformed in place, so the peak is the field plus at
    most one field-sized temporary (S3's coordinate product)."""
    values = solve(spec, kind, f).field.values
    return GridField(spec, to_u(kind, values, spec.mesh(), spec.n, in_place=True))


def _solve_row(case: TestCase, kind: SchemeKind, m: int, byte_cap: int) -> float:
    """u-scale sup error of one row solve; the field is dropped at once.
    Rows run in order, one field at a time, so a row uses full storage
    when its full working set (working_set_bytes: the field and the work
    arrays, as the CLI guard charges a solve) fits under byte_cap and
    streams otherwise."""
    spec = GridSpec(case.n, m)
    storage = "full" if working_set_bytes(spec, "full") <= byte_cap else "rolling"
    return solve(spec, kind, case.f, storage=storage,
                 error_fn=u_scale_error_fn(kind, case)).linf_error


def run_study(study: StudySpec) -> dict[SchemeKind, list[ConvergenceRow]]:
    """Solve every (scheme, m) pair in order, measure u-scale sup errors and
    chain observed orders."""
    out: dict[SchemeKind, list[ConvergenceRow]] = {}
    for kind in study.schemes:
        rows = []
        prev = None
        for m in study.ms:
            e = _solve_row(study.case, kind, m, study.byte_cap)
            h = 1.0 / m
            order = None
            if prev is not None and e > 0.0 and prev.error > 0.0:
                order = observed_order(prev.error, e, prev.h, h)
            row = ConvergenceRow(m=m, h=h, error=e, order=order)
            rows.append(row)
            prev = row
        out[kind] = rows
    return out


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _fmt_error(e: float) -> str:
    return f"{e:.1e}"


def _fmt_order(o: float | None) -> str:
    return "" if o is None else f"{o:.2f}"


def render_markdown(rows_by_scheme: dict[SchemeKind, list[ConvergenceRow]],
                    title: str = "") -> str:
    """One h column, then an error/order pair per scheme."""
    kinds = list(rows_by_scheme)
    ms = [row.m for row in rows_by_scheme[kinds[0]]]
    header = ["Mesh size h"]
    for kind in kinds:
        name = kind.value.upper()
        header += [f"({name}) linf error", f"({name}) order"]
    lines = []
    if title:
        lines.append(f"**{title}**")
        lines.append("")
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "|".join(["---"] * len(header)) + "|")
    for i, m in enumerate(ms):
        cells = [f"{1.0 / m:.1e}"]
        for kind in kinds:
            row = rows_by_scheme[kind][i]
            cells += [_fmt_error(row.error), _fmt_order(row.order)]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def render_csv(rows_by_scheme: dict[SchemeKind, list[ConvergenceRow]],
               case: TestCase) -> str:
    lines = ["scheme,n,case,m,h,error,order"]
    for kind, rows in rows_by_scheme.items():
        for row in rows:
            order = "" if row.order is None else f"{row.order:.17g}"
            lines.append(f"{kind.value},{case.n},{case.label},{row.m},"
                         f"{row.h:.17g},{row.error:.17g},{order}")
    return "\n".join(lines) + "\n"


def render_json(rows_by_scheme: dict[SchemeKind, list[ConvergenceRow]],
                case: TestCase) -> str:
    payload = {
        "case": case.label,
        "n": case.n,
        "rows": [
            {"scheme": kind.value, "m": row.m, "h": row.h,
             "error": row.error, "order": row.order}
            for kind, rows in rows_by_scheme.items() for row in rows
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"

