"""Study harness: error metric, observed orders, mesh sequences, renderers,
and determinism."""

import gc
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from hjsolve import convergence
from hjsolve.convergence import (ConvergenceRow, StudySpec, default_mesh_sequence,
                                 observed_order, render_csv, render_json,
                                 render_markdown, run_study, u_scale_error_fn)
from hjsolve.grid import GridSpec
from hjsolve.schemes import SchemeKind, working_set_bytes
from hjsolve.testcases import make_case, to_u


def _linf(case, spec, U):
    # the study's error: the max over all nodes (boundary included) of the
    # per-node u-scale error; S1 values are u already
    return np.max(u_scale_error_fn(SchemeKind.S1, case)(U, spec.mesh()))


def test_linf_zero_for_exact_samples():
    case = make_case("f2", 2)
    spec = GridSpec(2, 12)
    U = np.broadcast_to(np.asarray(case.u(spec.mesh())), spec.shape).copy()
    assert _linf(case, spec, U) == 0.0


def test_linf_single_node_perturbation():
    case = make_case("const", 2, c=1.0)
    spec = GridSpec(2, 8)
    U = np.broadcast_to(np.asarray(case.u(spec.mesh())), spec.shape).copy()
    U[3, 5] += 1e-3
    assert _linf(case, spec, U) == pytest.approx(1e-3, rel=1e-9)


def test_observed_order_halving():
    assert observed_order(2e-2, 1e-2, 0.1, 0.05) == pytest.approx(1.0)


def test_observed_order_table_pairs():
    # displayed-table arithmetic: 7.1e-2 -> 3.4e-2 at h ratio 4 gives 0.53
    o = observed_order(7.1e-2, 3.4e-2, 2.5e-2, 6.25e-3)
    assert round(o, 2) == 0.53
    o = observed_order(2.4e-2, 6.1e-3, 2.5e-2, 6.25e-3)
    assert round(o, 2) == 0.99


def test_observed_order_rejects_nonpositive():
    with pytest.raises(ValueError):
        observed_order(0.0, 1e-2, 0.1, 0.05)
    with pytest.raises(ValueError):
        observed_order(1e-2, -1e-3, 0.1, 0.05)


def test_default_byte_cap_is_physical_memory(monkeypatch):
    pages = {"SC_PHYS_PAGES": 1 << 20, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(convergence.os, "sysconf", pages.__getitem__)
    assert convergence._physical_memory() == 4 << 30

    def unknown(name):
        raise ValueError(f"unrecognized configuration name {name}")

    monkeypatch.setattr(convergence.os, "sysconf", unknown)
    assert convergence._physical_memory() == 8 << 30
    monkeypatch.setattr(convergence.os, "sysconf", lambda name: -1)
    assert convergence._physical_memory() == 8 << 30


def test_default_sequences():
    assert default_mesh_sequence(2) == [40, 160, 640, 2560, 10240, 40960]
    assert default_mesh_sequence(3, max_k=3) == [20, 40, 80, 160]
    assert default_mesh_sequence(4, max_k=2) == [4, 8, 16]
    with pytest.raises(ValueError):
        default_mesh_sequence(5)


def test_studyspec_validation():
    case = make_case("f2", 2)
    with pytest.raises(ValueError):
        StudySpec(case=case, ms=())
    with pytest.raises(ValueError):
        StudySpec(case=case, ms=(40, 40))
    for jobs in (0, 2):
        with pytest.raises(ValueError, match="jobs"):
            StudySpec(case=case, ms=(40, 160), jobs=jobs)
    with pytest.raises(ValueError, match="duplicate scheme"):
        StudySpec(case=case, schemes=(SchemeKind.S1, SchemeKind.S1), ms=(40,))
    with pytest.raises(ValueError, match="duplicate scheme"):
        StudySpec(case=case, schemes=(SchemeKind.S2, "s3", SchemeKind.S3), ms=(40,))
    with pytest.raises(ValueError, match="empty scheme list"):
        StudySpec(case=case, schemes=(), ms=(40,))
    with pytest.raises(ValueError, match="unknown scheme"):
        StudySpec(case=case, schemes=("s4",), ms=(40,))
    # scheme names are stored as SchemeKind values
    study = StudySpec(case=case, schemes=("s1", "S2", SchemeKind.S3), ms=(40,))
    assert study.schemes == (SchemeKind.S1, SchemeKind.S2, SchemeKind.S3)


def test_render_study_built_from_scheme_names():
    case = make_case("const", 2, c=1.0)
    rows = run_study(StudySpec(case=case, schemes=("s2", "s1"), ms=(4, 8)))
    assert list(rows) == [SchemeKind.S2, SchemeKind.S1]
    assert "(S2) linf error" in render_markdown(rows).splitlines()[0]
    assert render_csv(rows, case).splitlines()[1].startswith("s2,2,const:1,4,")
    assert [r["scheme"] for r in json.loads(render_json(rows, case))["rows"]] \
        == ["s2", "s2", "s1", "s1"]


def test_run_study_constant_exact_rows():
    case = make_case("const", 2, c=1.0)
    study = StudySpec(case=case, schemes=(SchemeKind.S2, SchemeKind.S3),
                      ms=(8, 16, 32))
    rows = run_study(study)
    for kind in study.schemes:
        for row in rows[kind]:
            assert row.error <= 1e-12
            assert row.order is None or math.isfinite(row.order)


def test_run_study_known_orders_small():
    case = make_case("f3", 2)
    study = StudySpec(case=case, ms=(20, 40, 80))
    rows = run_study(study)
    last_s2 = rows[SchemeKind.S2][-1].order
    last_s1 = rows[SchemeKind.S1][-1].order
    assert 0.8 <= last_s2 <= 1.2
    assert 0.35 <= last_s1 <= 0.65


def test_run_study_rolling_fallback_matches_full():
    # a tiny byte cap forces the streaming path; errors must be identical
    case = make_case("f2", 2)
    full = run_study(StudySpec(case=case, ms=(16, 32)))
    rolled = run_study(StudySpec(case=case, ms=(16, 32), byte_cap=1024))
    assert full == rolled


def test_run_study_byte_cap_per_row(monkeypatch):
    # rows run in order, one field at a time: a row runs full exactly when
    # its full working set (field plus work arrays) fits under the cap
    storages = []
    real_solve = convergence.solve

    def recording_solve(*args, **kwargs):
        storages.append(kwargs["storage"])
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(convergence, "solve", recording_solve)
    case = make_case("f2", 2)
    ms = (30, 32)
    small, large = (working_set_bytes(GridSpec(2, m), "full") for m in ms)
    cap = (small + large) // 2
    assert small <= cap < large
    # both fields alone fit: a field-only rule would run both rows full
    assert GridSpec(2, 32).num_nodes * 8 < cap
    rows = run_study(StudySpec(case=case, ms=ms, byte_cap=cap))
    assert storages == ["full", "rolling"] * 3
    monkeypatch.setattr(convergence, "solve", real_solve)
    assert rows == run_study(StudySpec(case=case, ms=ms))


def test_u_field_on_the_u_scale():
    # the level-set field and the streamed error agree on what u is
    case = make_case("f3", 3)
    spec = GridSpec(3, 10)
    for kind in SchemeKind:
        field = convergence.u_field(spec, kind, case.f)
        err = np.max(np.abs(field.values - case.u(spec.mesh())))
        rep = convergence.solve(spec, kind, case.f, storage="rolling",
                                error_fn=convergence.u_scale_error_fn(kind, case))
        assert err == pytest.approx(rep.linf_error, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n,m", [(2, 400), (3, 60)])
@pytest.mark.parametrize("kind", list(SchemeKind))
def test_u_field_memory_within_two_fields(kind, n, m):
    # the solved array is transformed in place, with at most one field-sized
    # temporary, into bitwise the values of the out-of-place transform; the
    # CLI guard charges these callers 2x field bytes
    spec = GridSpec(n, m)
    case = make_case("f2", n)
    tracemalloc.start()
    try:
        field = convergence.u_field(spec, kind, case.f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * spec.num_nodes * 8
    solved = convergence.solve(spec, kind, case.f).field.values
    expected = to_u(kind, solved, spec.mesh(), n)
    assert np.array_equal(field.values, expected)


def test_run_study_deterministic():
    study = StudySpec(case=make_case("f2", 2), ms=(10, 20, 40))
    assert run_study(study) == run_study(study)  # rows compare by value


def test_run_study_drops_each_field(monkeypatch):
    # only the error of a row is kept; its field must be freed before the
    # next row is solved
    refs = []
    real_solve = convergence.solve

    def recording_solve(*args, **kwargs):
        gc.collect()
        assert all(ref() is None for ref in refs)
        rep = real_solve(*args, **kwargs)
        refs.append(weakref.ref(rep.field))
        return rep

    monkeypatch.setattr(convergence, "solve", recording_solve)
    run_study(StudySpec(case=make_case("f2", 2), ms=(8, 16, 32)))
    assert len(refs) == 9


def test_render_markdown_layout():
    case = make_case("f2", 2)
    rows = {SchemeKind.S1: [ConvergenceRow(40, 0.025, 9.5e-2, None),
                            ConvergenceRow(160, 0.00625, 4.6e-2, 0.5234)]}
    text = render_markdown(rows, title="demo")
    lines = text.splitlines()
    assert "Mesh size h" in lines[2]
    assert "| 2.5e-02 | 9.5e-02 |  |" in text
    assert "0.52" in text  # orders shown to 2 decimals


def test_render_csv_full_precision_roundtrip():
    case = make_case("f3", 2)
    err = 0.03125987654321098
    rows = {SchemeKind.S2: [ConvergenceRow(40, 0.025, err, None)]}
    text = render_csv(rows, case)
    line = text.splitlines()[1].split(",")
    assert float(line[5]) == err  # 17 significant digits survive the parse
    assert line[0] == "s2" and line[3] == "40"


def test_render_json_parses():
    case = make_case("f1", 2)
    rows = {SchemeKind.S3: [ConvergenceRow(40, 0.025, 6.7e-2, None),
                            ConvergenceRow(160, 0.00625, 3.3e-2, 0.51)]}
    payload = json.loads(render_json(rows, case))
    assert payload["case"] == "f1"
    assert len(payload["rows"]) == 2
    assert payload["rows"][0]["order"] is None
