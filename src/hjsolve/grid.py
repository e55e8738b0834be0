"""Uniform grids on the unit cube [0,1]^n, and grid fields with their file
formats.

Nodes live at coordinates (i_1/m, ..., i_n/m) for integer multi-indices
0 <= i_j <= m. The linear index is lexicographic with the last axis fastest
(C order), so the backward neighbor along axis j sits exactly (m+1)^(n-j)
positions earlier. The mesh is always parameterized by the integer m; the
mesh size h = 1/m is derived, never stored, so mesh sequences like
m = 40, 160, 640, ... are exact.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

_HEADER = struct.Struct("<qq")  # n, m as little-endian int64


@dataclass(frozen=True)
class GridSpec:
    """Grid over [0,1]^n with m subdivisions (m+1 nodes) per axis."""

    n: int
    m: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"dimension must be >= 2, got n={self.n}")
        if self.m < 1:
            raise ValueError(f"need at least one subdivision per axis, got m={self.m}")

    @property
    def h(self) -> float:
        return 1.0 / self.m

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.m + 1,) * self.n

    @property
    def num_nodes(self) -> int:
        return (self.m + 1) ** self.n

    def axis_coords(self) -> np.ndarray:
        """Node coordinates along one axis.

        Computed as i/m (single correctly rounded division) so that e.g. the
        midpoint of an even grid is exactly 0.5 and the last node exactly 1.
        """
        return np.arange(self.m + 1, dtype=np.float64) / self.m

    def mesh(self) -> tuple[np.ndarray, ...]:
        """Open (broadcastable) meshgrid of node coordinates."""
        return tuple(np.meshgrid(*([self.axis_coords()] * self.n),
                                 indexing="ij", sparse=True))


class GridField:
    """Double-precision values on every node of a GridSpec."""

    def __init__(self, spec: GridSpec, values: np.ndarray):
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.shape == (spec.num_nodes,):
            values = values.reshape(spec.shape)
        if values.shape != spec.shape:
            raise ValueError(f"values shape {values.shape} != grid shape {spec.shape}")
        self.spec = spec
        self.values = values

    @property
    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)

    def save_binary(self, path) -> None:
        """Header (n, m as little-endian int64) then node values in
        lexicographic order as little-endian float64."""
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(self.spec.n, self.spec.m))
            fh.write(self.flat.astype("<f8", copy=False).tobytes())

    @classmethod
    def load_binary(cls, path) -> "GridField":
        with open(path, "rb") as fh:
            head = fh.read(_HEADER.size)
            if len(head) != _HEADER.size:
                raise ValueError(f"{path}: truncated header")
            n, m = _HEADER.unpack(head)
            spec = GridSpec(int(n), int(m))
            data = np.frombuffer(fh.read(), dtype="<f8")
        if data.size != spec.num_nodes:
            raise ValueError(
                f"{path}: expected {spec.num_nodes} values for n={n}, m={m}, "
                f"got {data.size}")
        return cls(spec, data.astype(np.float64))

    def save_csv(self, path) -> None:
        """One row per node in lexicographic order: coordinates then value,
        17 significant digits. Written one last-axis row at a time, so the
        only temporaries are row-sized."""
        xs = self.spec.axis_coords().tolist()
        with open(path, "w") as fh:
            for head in np.ndindex(self.spec.shape[:-1]):
                fmt = "".join("%.17g," % xs[i] for i in head) + "%.17g,%.17g\n"
                fh.writelines(fmt % row
                              for row in zip(xs, self.values[head].tolist()))
