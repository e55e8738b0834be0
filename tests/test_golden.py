"""Golden SHA-256 digests of solves whose arithmetic is IEEE-exact (+, -, *,
/ and sqrt, each correctly rounded; no pow and no transcendental rhs), so the
values are the same on every conforming platform. A change to the engine that
claims bitwise-unchanged output must leave these digests as they are.

Covered: the n=2 closed forms of S1, S2 and S3 at m = 7 and 64, and S2 at
n=3, m=9 (its bisection bracket is sum a_i + b, so no pow), each with an
integer-valued GridField rhs that has zeros, in full and rolling storage.
A digest covers the field (or the final i_1 = m slab), the repr of the
certificate and the bisection counters."""

import hashlib

import numpy as np
import pytest

from hjsolve.grid import GridField, GridSpec
from hjsolve.schemes import solve

GOLDEN = {
    "2-7-s1-full":
        "5d8a6cdf4eb83afe5d11b864d215941915ce1abe2792cddd64358b4223e55586",
    "2-7-s1-rolling":
        "da4cf189bcf541b071c13def2bcda33af1dae44463b749a7579e118515fb25bb",
    "2-7-s2-full":
        "0cbc55f73721e8e75b1511dec6a9553721fa94073a190345181fce96bd50aad1",
    "2-7-s2-rolling":
        "ecd7002abce3b32c1bbfe57759777daa272feddf285af08f227f98badfd73fe5",
    "2-7-s3-full":
        "2b3d49e487befa1f8c038b6766a5c949342a8d0284cbc36d5093079b12a931c0",
    "2-7-s3-rolling":
        "b3379aed666d166cb514dfc464a1dcfc0fbfb312d6315d570120a503241ac982",
    "2-64-s1-full":
        "17f05c8e34424ba50b18495ada7902c31552015611d992550b2e30a6085deeb7",
    "2-64-s1-rolling":
        "0f20d97e23c2d7b0e4f117276e63b10e672be6426cee11aeb54ddf7a06f7ba08",
    "2-64-s2-full":
        "fb34f66a8c40f4c359546a6ea04f5093d843141099b485980ed57826e1f05d5a",
    "2-64-s2-rolling":
        "d465571d4664bb894d16679e0911a4dac1b53526406a3db8b26057ed9601b2af",
    "2-64-s3-full":
        "cf35f70d002fea9e136379a661c67b0b6444aab1c15cdeee937c2238a26b65fb",
    "2-64-s3-rolling":
        "722e16ef3bd1bd8d510476735cad101f12969ccf1f2a13a5385e39c8fefc314a",
    "3-9-s2-full":
        "ac22e1c2105a18c132b1f7dd72e92b581353b5e627d6b062af7b47faa5daf333",
    "3-9-s2-rolling":
        "9d4ed86b14ba03374b3819ff379fe45e175c695c1e2c4d92ccffb6403365b4b4",
}


def integer_rhs(spec: GridSpec) -> GridField:
    """Values 0..4 from the node's multi-index: exact, with zero nodes."""
    idx = np.indices(spec.shape)
    weights = (7, 3, 5, 2)[:spec.n]
    return GridField(spec, (sum(w * i for w, i in zip(weights, idx)) % 5)
                     .astype(np.float64))


def digest(n: int, m: int, kind: str, storage: str) -> str:
    spec = GridSpec(n, m)
    rep = solve(spec, kind, integer_rhs(spec), storage=storage)
    values = rep.final_slab if rep.field is None else rep.field.values
    h = hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes())
    h.update(repr((rep.max_band_violation, rep.bisect_nodes,
                   rep.bisect_iters_max, rep.bisect_iters_mean)).encode())
    return h.hexdigest()


CASES = [(2, m, kind, storage) for m in (7, 64) for kind in ("s1", "s2", "s3")
         for storage in ("full", "rolling")] + \
    [(3, 9, "s2", storage) for storage in ("full", "rolling")]


@pytest.mark.parametrize("n,m,kind,storage", CASES,
                         ids=["-".join(map(str, c)) for c in CASES])
def test_golden_digest(n, m, kind, storage):
    assert digest(n, m, kind, storage) == GOLDEN[f"{n}-{m}-{kind}-{storage}"]
