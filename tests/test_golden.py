"""Golden SHA-256 digests of solves whose arithmetic is IEEE-exact (+, -, *,
/ and sqrt, each correctly rounded; no pow and no transcendental rhs), so the
values are the same on every conforming platform. A change to the engine that
claims bitwise-unchanged output must leave these digests as they are.

Covered: the n=2 closed forms of S1, S2 and S3 at m = 7 and 64, and at
m = 15, 16, 17 and 33 (K-1, K, K+1 and 2K+1 for the K = 16 fronts of an
n = 2 block; those digests were taken before the block engine), and S2 at
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
    "2-15-s1-full":
        "470eb743d282c8e23c5fc7a2af9e3da98b5d45c6eca9e1b4b00997bb482c80b6",
    "2-15-s1-rolling":
        "08983e4bb58fa47f5bca10acde7066d1e1beb17f1591fc9e4d6912a938e9d68a",
    "2-15-s2-full":
        "d55a6922555328aabab33f04694c68b6fab502a4cbd655881cae2e142f6a77c7",
    "2-15-s2-rolling":
        "77d29f9fc23955bd10f3888e6006cb2a94a30f0a5cfb21babdc450ee55511b38",
    "2-15-s3-full":
        "b2a4bd24910ebf8e854bb9b3d4ad5e87860273a4f2c58e52b4a00a9783f2ceba",
    "2-15-s3-rolling":
        "4e373b3c9ed7a586128a09e1a4e7d2037a578ddb1957bc97002a10a2e102e5a7",
    "2-16-s1-full":
        "a03383c58b243a1a81570e223ebc5c37bbebfd02cdbb2dfdcf3f59f7154fc6de",
    "2-16-s1-rolling":
        "63e38c8120048f37433c0832f0d284d694826adce2fee2a381f272978ed8b9d1",
    "2-16-s2-full":
        "74e70dd28890a6551781d87ebf5c3e451aa17f6f1264bfdd872f4bc2ce6910f7",
    "2-16-s2-rolling":
        "0d815f5cc1ce043c8a8a4ee84b3408b93f7d16c0f3af80c23079e4acc95b9933",
    "2-16-s3-full":
        "b44062d6f84d3c1c903d84370e7b383d232afba2ddac2758114cf5a3c97e4ea7",
    "2-16-s3-rolling":
        "4489773bf16eda1766db103de193d15bda724e333835633baf0d7e3271af7ef7",
    "2-17-s1-full":
        "107c8869d3e93c020930ef4e51f2075934a1a537ffa575dde88cf056dafadfbc",
    "2-17-s1-rolling":
        "242ad9ec19ef0ec9a0128ab2ec7698046b99af1f332097fa21682c67c6c11a22",
    "2-17-s2-full":
        "6aac0b6f4a4cf35c5d035a2aabbba834c2ed2ecc1b205a0bb913c4810c413b47",
    "2-17-s2-rolling":
        "17323c0039b012a9c88371624dfbb1a77b52712d9b6d06d84444ccb22bd45d84",
    "2-17-s3-full":
        "c765ccce9c3ded96124c75a3db1dcb0b32f09a9509cfaec9c2b5edbb093e9211",
    "2-17-s3-rolling":
        "26861339f42c46632c3d98e9f879eb2c8a38d46b9a16ce78ab6bbed3cb4eb952",
    "2-33-s1-full":
        "ac7b9d22330e542c42ff86d70e7a37afb881dd09fe7c10ae67e478670c6a9a44",
    "2-33-s1-rolling":
        "ed14544a4c334b3ef29cf68d3bfb02895b98efbf236e152584fc1e7a1a2777e2",
    "2-33-s2-full":
        "aef8a8aeaad714be0400e722ef9e0653b35d82e0b82c9a46bd63566e4c64487a",
    "2-33-s2-rolling":
        "3fdc071fb110f6efb302c72e3b2e1f11f59487215b8c3755e216bab14fbcc977",
    "2-33-s3-full":
        "418bea7e2e44c460bf4033c30b5c7bd3dfd0ee7fa526008d273480406ad7dd75",
    "2-33-s3-rolling":
        "971da2af945d71e06ac52e8b380b153ab162d38fe006f713654a193754920af3",
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


CASES = [(2, m, kind, storage) for m in (7, 15, 16, 17, 33, 64)
         for kind in ("s1", "s2", "s3") for storage in ("full", "rolling")] + \
    [(3, 9, "s2", storage) for storage in ("full", "rolling")]


@pytest.mark.parametrize("n,m,kind,storage", CASES,
                         ids=["-".join(map(str, c)) for c in CASES])
def test_golden_digest(n, m, kind, storage):
    assert digest(n, m, kind, storage) == GOLDEN[f"{n}-{m}-{kind}-{storage}"]
