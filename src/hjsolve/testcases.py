"""Benchmark right-hand sides with known exact solutions, and the map from
each scheme's solution variable to the u scale.

Every evaluator takes a tuple of n broadcastable coordinate arrays (sparse
meshgrids, flat point components, or plain floats) and returns an array of
the broadcast shape. All exact solutions vanish wherever some coordinate is
zero.

The three benchmark families:

  f1 -- indicator rhs, 1 where max x_i > 1/2; solution Holder-1/n with an
        interior gradient jump, the hard case for S1/S3.
  f2 -- smooth oscillatory pair (parameter k, default 20).
  f3 -- Lipschitz rhs whose solution has a gradient kink along coordinate
        ties (parameters C, default 10).

Scale conventions: the u-equation solution u, its power transform
v = (u/n)^n, and the profile w with u = n (x_1...x_n)^(1/n) w. Reported
errors always live on the u scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .grid import GridField
from .schemes import SchemeKind

DEFAULT_K = 20.0
DEFAULT_C = 10.0


def _coord_product(xs: Sequence[np.ndarray]) -> np.ndarray:
    out = np.asarray(xs[0], dtype=np.float64)
    for x in xs[1:]:
        out = out * np.asarray(x, dtype=np.float64)
    return out


def f1(xs, n: int):
    """1 where max(x) > 1/2, else 0."""
    mx = np.asarray(xs[0], dtype=np.float64)
    for x in xs[1:]:
        mx = np.maximum(mx, x)
    return (mx > 0.5).astype(np.float64)


def u1(xs, n: int):
    """n * max_i { (x_i - 1/2)_+ * prod_{j != i} x_j }^(1/n)."""
    best = None
    for i in range(n):
        g = np.maximum(np.asarray(xs[i], dtype=np.float64) - 0.5, 0.0)
        for j in range(n):
            if j != i:
                g = g * xs[j]
        best = g if best is None else np.maximum(best, g)
    return n * np.power(best, 1.0 / n)


def f2(xs, n: int, k: float = DEFAULT_K):
    ssum = np.square(np.sin(k * np.asarray(xs[0], dtype=np.float64)))
    for x in xs[1:]:
        ssum = ssum + np.square(np.sin(k * np.asarray(x, dtype=np.float64)))
    out = None
    for x in xs:
        x = np.asarray(x, dtype=np.float64)
        fac = ssum + n * k + (n * k) * x * np.sin((2.0 * k) * x)
        out = fac if out is None else out * fac
    return out / (n ** n * (k + 1.0) ** n)


def u2(xs, n: int, k: float = DEFAULT_K):
    ssum = np.square(np.sin(k * np.asarray(xs[0], dtype=np.float64)))
    for x in xs[1:]:
        ssum = ssum + np.square(np.sin(k * np.asarray(x, dtype=np.float64)))
    return np.power(_coord_product(xs), 1.0 / n) * (ssum + n * k) / (k + 1.0)


def w3(xs, n: int, C: float = DEFAULT_C):
    """C * max(x) + sum(x) (the unnormalized profile of the third case)."""
    mx = np.asarray(xs[0], dtype=np.float64)
    total = np.asarray(xs[0], dtype=np.float64)
    for x in xs[1:]:
        x = np.asarray(x, dtype=np.float64)
        mx = np.maximum(mx, x)
        total = total + x
    return C * mx + total


def f3(xs, n: int, C: float = DEFAULT_C):
    """(C+n)^-n * (w3 + n(1+C) max x) * prod over the n-1 smaller coords of
    (w3 + n x). Evaluated in a sort-free symmetric form; the 0/0 at the
    origin is the true limit 0."""
    mx = np.asarray(xs[0], dtype=np.float64)
    for x in xs[1:]:
        mx = np.maximum(mx, x)
    w = w3(xs, n, C)
    allprod = w + n * np.asarray(xs[0], dtype=np.float64)
    for x in xs[1:]:
        allprod = allprod * (w + n * np.asarray(x, dtype=np.float64))
    top = w + (n * (1.0 + C)) * mx
    den = w + n * mx
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(den > 0.0, allprod / np.where(den > 0.0, den, 1.0) * top, 0.0)
    return out / (C + n) ** n


def u3(xs, n: int, C: float = DEFAULT_C):
    """n (x_1...x_n)^(1/n) * w3 / (C+n); the division makes the pair (f3, u3)
    solve the gradient-product equation exactly."""
    return n * np.power(_coord_product(xs), 1.0 / n) * (w3(xs, n, C) / (C + n))


@dataclass(frozen=True)
class TestCase:
    """A right-hand side with its exact solution on the u scale."""

    name: str
    n: int
    f: Callable = field(repr=False)
    u: Callable = field(repr=False)
    params: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        if self.name == "const":
            return f"const:{self.params['c']:g}"
        return self.name


def make_case(name: str, n: int, *, k: float = DEFAULT_K, C: float = DEFAULT_C,
              c: float = 1.0) -> TestCase:
    """Builtin cases by name: f1 | f2 | f3 | const (constant value c >= 0).
    Every parameter must be finite."""
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    if name == "f1":
        return TestCase("f1", n, lambda xs: f1(xs, n), lambda xs: u1(xs, n))
    if name == "f2":
        if not 0.0 < k < np.inf:
            raise ValueError(f"k must be positive and finite, got {k}")
        return TestCase("f2", n, lambda xs: f2(xs, n, k), lambda xs: u2(xs, n, k),
                        {"k": k})
    if name == "f3":
        if not 0.0 <= C < np.inf:
            raise ValueError(f"C must be nonnegative and finite, got {C}")
        return TestCase("f3", n, lambda xs: f3(xs, n, C), lambda xs: u3(xs, n, C),
                        {"C": C})
    if name == "const":
        if not 0.0 <= c < np.inf:
            raise ValueError(f"constant rhs must be nonnegative and finite, got {c}")
        croot = float(np.power(c, 1.0 / n))
        return TestCase(
            "const", n,
            lambda xs: np.broadcast_arrays(*(np.asarray(x, dtype=np.float64)
                                             for x in xs))[0] * 0.0 + c,
            lambda xs: (n * croot) * np.power(_coord_product(xs), 1.0 / n),
            {"c": c})
    raise ValueError(f"unknown test case {name!r}; expected f1, f2, f3 or const")


def parse_case(spec_str: str, n: int, *, k: float = DEFAULT_K,
               C: float = DEFAULT_C) -> TestCase:
    """Parse a CLI case name: f1 | f2 | f3 | const:<c>."""
    if spec_str.startswith("const:"):
        try:
            c = float(spec_str.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad constant case {spec_str!r}") from None
        return make_case("const", n, c=c)
    return make_case(spec_str, n, k=k, C=C)


# ---------------------------------------------------------------------------
# Scale transformations
# ---------------------------------------------------------------------------

_NEG_TOL = 1e-12


def to_u(kind, values: np.ndarray, xs, n: int, in_place: bool = False) -> np.ndarray:
    """u-scale values of a solved field at the nodes xs: S1 values are u
    already, S2 solves for v (u = n v^(1/n); tiny negative noise above
    -1e-12 clamps to 0) and S3 for w (u = n (x_1...x_n)^(1/n) w, exactly 0
    on the boundary). With in_place the float64 array `values` is
    overwritten and returned, and S3's coordinate product is the one
    temporary."""
    kind = SchemeKind.parse(kind)
    out = values if in_place else None
    if kind is SchemeKind.S2:
        v = np.asarray(values, dtype=np.float64)
        if v.min() < -_NEG_TOL:
            raise ValueError(f"negative value {v.min()} in v field")
        u = np.maximum(v, 0.0, out=np.empty_like(v) if out is None else out)
        np.power(u, 1.0 / n, out=u)
        return np.multiply(n, u, out=u)
    if kind is SchemeKind.S3:
        scale = np.asarray(_coord_product(xs))  # a new array: n >= 2 factors
        np.power(scale, 1.0 / n, out=scale)
        np.multiply(n, scale, out=scale)
        return np.multiply(scale, np.asarray(values, dtype=np.float64), out=out)
    return values


def u_from_v(v_field: GridField) -> GridField:
    # kept for benchmarks/workloads.py, which imports it
    return GridField(v_field.spec,
                     to_u(SchemeKind.S2, v_field.values, None, v_field.spec.n))
