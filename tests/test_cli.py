"""CLI surface: exit codes, output files, determinism, memory guard."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hjsolve.cli import main
from hjsolve.grid import GridField, GridSpec
from hjsolve.schemes import working_set_bytes

SRC = Path(__file__).resolve().parents[1] / "src"

def run_cli(*argv):
    return main(list(argv))


def test_solve_constant_field_matches_product(tmp_path, capsys):
    rc = run_cli("solve", "--scheme", "s2", "--case", "const:1", "--n", "2",
                 "--m", "40", "--out", str(tmp_path))
    assert rc == 0
    field = GridField.load_binary(tmp_path / "solve_s2_const1_n2_m40.bin")
    xs = field.spec.mesh()
    assert np.max(np.abs(field.values - xs[0] * xs[1])) <= 1e-12
    report = json.loads((tmp_path / "solve_s2_const1_n2_m40.report.json").read_text())
    assert report["scheme"] == "s2"
    assert report["max_band_violation"] <= 1e-12
    assert "wall_time_s" in report


def test_solve_smoke_n3_within_band(tmp_path):
    rc = run_cli("solve", "--scheme", "s1", "--case", "f2", "--n", "3",
                 "--m", "20", "--out", str(tmp_path))
    assert rc == 0
    report = json.loads((tmp_path / "solve_s1_f2_n3_m20.report.json").read_text())
    assert report["max_band_violation"] <= 1e-12
    assert report["bisect_nodes"] > 0


def test_solve_deterministic_outputs(tmp_path):
    for sub in ("a", "b"):
        rc = run_cli("solve", "--scheme", "s3", "--case", "f2", "--n", "2",
                     "--m", "24", "--out", str(tmp_path / sub), "--format", "both")
        assert rc == 0
    for name in ("solve_s3_f2_n2_m24.bin", "solve_s3_f2_n2_m24.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes()


def test_solve_csv_17_digits(tmp_path):
    run_cli("solve", "--scheme", "s1", "--case", "f2", "--n", "2", "--m", "8",
            "--out", str(tmp_path), "--format", "both")
    field = GridField.load_binary(tmp_path / "solve_s1_f2_n2_m8.bin")
    again = np.loadtxt(tmp_path / "solve_s1_f2_n2_m8.csv", delimiter=",")
    assert np.array_equal(field.flat, again[:, -1])


def test_solve_field_file_rhs(tmp_path):
    spec = GridSpec(2, 16)
    GridField(spec, np.ones(spec.shape)).save_binary(tmp_path / "rhs.bin")
    rc = run_cli("solve", "--scheme", "s2", "--field-file", str(tmp_path / "rhs.bin"),
                 "--n", "2", "--m", "16", "--out", str(tmp_path))
    assert rc == 0
    field = GridField.load_binary(tmp_path / "solve_s2_rhs_n2_m16.bin")
    xs = spec.mesh()
    assert np.max(np.abs(field.values - xs[0] * xs[1])) <= 1e-12


def test_solve_nan_field_file_is_runtime_error(tmp_path, capsys):
    spec = GridSpec(2, 8)
    F = np.ones(spec.shape)
    F[4, 4] = np.nan
    GridField(spec, F).save_binary(tmp_path / "rhs.bin")
    rc = run_cli("solve", "--scheme", "s2", "--field-file", str(tmp_path / "rhs.bin"),
                 "--n", "2", "--m", "8", "--out", str(tmp_path))
    assert rc == 1
    assert "(4, 4)" in capsys.readouterr().err
    assert not (tmp_path / "solve_s2_rhs_n2_m8.bin").exists()


def test_solve_overflow_is_runtime_error(tmp_path, capsys):
    # finite rhs, but the S2 closed form overflows at the first interior node
    with np.errstate(all="ignore"):
        rc = run_cli("solve", "--scheme", "s2", "--case", "const:1e308",
                     "--n", "2", "--m", "8", "--out", str(tmp_path))
    assert rc == 1
    assert "(1, 1)" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_solve_config_errors(tmp_path, capsys):
    # no rhs at all
    assert run_cli("solve", "--scheme", "s1", "--n", "2", "--m", "8",
                   "--out", str(tmp_path)) == 2
    # unknown scheme
    assert run_cli("solve", "--scheme", "s9", "--case", "f1", "--n", "2",
                   "--m", "8", "--out", str(tmp_path)) == 2
    # memory guard refusal
    assert run_cli("solve", "--scheme", "s1", "--case", "f1", "--n", "2",
                   "--m", "40000", "--mem-cap", "1000000",
                   "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "rolling" in err  # the refusal suggests the rolling mode


@pytest.mark.parametrize("flags", [
    ("--case", "const:nan"), ("--case", "const:inf"),
    ("--case", "f2", "--k", "nan"), ("--case", "f2", "--k", "inf"),
    ("--case", "f3", "--bigc", "inf"),
], ids=["const-nan", "const-inf", "k-nan", "k-inf", "bigc-inf"])
def test_solve_non_finite_case_parameter_is_config_error(tmp_path, capsys,
                                                         monkeypatch, flags):
    from hjsolve import cli

    def no_solve(*args, **kwargs):
        raise AssertionError("solve called with a non-finite case parameter")

    monkeypatch.setattr(cli, "solve", no_solve)
    rc = run_cli("solve", "--scheme", "s2", "--n", "2", "--m", "8",
                 "--out", str(tmp_path / "out"), *flags)
    assert rc == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_solve_missing_field_file_is_runtime_error(tmp_path):
    assert run_cli("solve", "--scheme", "s1", "--field-file",
                   str(tmp_path / "nope.bin"), "--n", "2", "--m", "8",
                   "--out", str(tmp_path)) == 1


def test_convergence_markdown_and_csv(tmp_path, capsys):
    rc = run_cli("convergence", "--case", "const:2", "--n", "3", "--max-k", "1",
                 "--schemes", "s2", "--out", str(tmp_path))
    assert rc == 0
    out = capsys.readouterr().out
    assert "Mesh size h" in out
    assert (tmp_path / "convergence_const2_n3.md").exists()

    rc = run_cli("convergence", "--case", "f2", "--n", "2", "--m-list", "10,20,40",
                 "--format", "csv")
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "scheme,n,case,m,h,error,order"
    assert len(lines) == 1 + 3 * 3


@pytest.mark.parametrize("m_list", [",", ""])
def test_convergence_empty_m_list_exits_2(capsys, m_list):
    rc = run_cli("convergence", "--case", "const:1", "--n", "2", "--m-list", m_list)
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "empty mesh sequence" in err


def test_convergence_duplicate_schemes_exit_2(tmp_path, capsys):
    rc = run_cli("convergence", "--case", "const:1", "--n", "2", "--m-list", "4,8",
                 "--schemes", "s1,s1", "--emit-levelsets", "--out", str(tmp_path))
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "duplicate scheme in s1,s1" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", [["--jobs", "2"], ["--force-bisection"]],
                         ids=["jobs", "force-bisection"])
def test_convergence_removed_flags_exit_2(flag, capsys):
    # rows run in order with the closed forms at n=2; neither flag is known
    with pytest.raises(SystemExit) as exc:
        run_cli("convergence", "--case", "f2", "--n", "2", "--max-k", "0", *flag)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_solve_removed_force_bisection_exits_2(capsys):
    # the update follows from the dimension: closed forms at n=2, no switch
    with pytest.raises(SystemExit) as exc:
        run_cli("solve", "--scheme", "s1", "--case", "const:1", "--n", "2",
                "--m", "4", "--force-bisection")
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_convergence_const_s2_errors_within_band(capsys):
    rc = run_cli("convergence", "--case", "const:2", "--n", "3", "--max-k", "1",
                 "--schemes", "s2", "--format", "json")
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    for row in payload["rows"]:
        # u-scale slack of the (1+h) band: n((1+h)^(1/n)-1)*u_max ~ h
        assert row["error"] <= 2.0 * row["h"]


def test_convergence_levelsets(tmp_path, capsys):
    rc = run_cli("convergence", "--case", "f1", "--n", "2", "--m-list", "8,16",
                 "--schemes", "s3", "--emit-levelsets", "--out", str(tmp_path))
    assert rc == 0
    levels = tmp_path / "levelset_s3_f1_n2_m16.csv"
    assert levels.exists()
    assert len(levels.read_text().splitlines()) == 17 * 17


def test_convergence_levelset_guard_refuses_before_study(tmp_path, capsys):
    # the m=8 level-set field needs 648 bytes; nothing may be printed or written
    rc = run_cli("convergence", "--case", "const:1", "--n", "2", "--m-list", "4,8",
                 "--mem-cap", "100", "--emit-levelsets", "--out", str(tmp_path))
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "648 bytes" in err and "--storage" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("schemes,rc", [("s1,s2", 0), ("s2,s3", 2)])
def test_levelset_guard_charges_the_u_transform_for_s3_only(tmp_path, capsys,
                                                            schemes, rc):
    # at a cap of one full solve's working set, only S3 among --schemes
    # charges the level-set field its u-scale temporary
    cap = working_set_bytes(GridSpec(2, 8))
    assert run_cli("convergence", "--case", "f2", "--n", "2", "--m-list", "4,8",
                   "--schemes", schemes, "--emit-levelsets", "--mem-cap", str(cap),
                   "--out", str(tmp_path)) == rc
    assert len(list(tmp_path.glob("levelset_*"))) == (2 if rc == 0 else 0)


def test_pareto_guard_does_not_suggest_rolling(tmp_path, capsys):
    cloud = tmp_path / "cloud.csv"
    cloud.write_text("0.1,0.2\n0.5,0.4\n")
    rc = run_cli("pareto", "--input", str(cloud), "--n", "2", "--m", "8",
                 "--case", "const:1", "--mem-cap", "100", "--out", str(tmp_path))
    assert rc == 2
    err = capsys.readouterr().err
    assert "648 bytes" in err and "--storage" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cloud.csv"]


def test_pareto_guard_charges_the_u_transform(tmp_path, capsys):
    # n=2, m=8: a 648-byte field; pareto --scheme s3 holds a full solve's
    # working set and the u-scale temporary (S3's coordinate product), so a
    # cap 352 bytes above the solve's charge refuses it but still lets solve
    # run
    work = working_set_bytes(GridSpec(2, 8))
    cap = str(work + 352)
    cloud = tmp_path / "cloud.csv"
    cloud.write_text("0.1,0.2\n0.5,0.4\n")
    rc = run_cli("pareto", "--input", str(cloud), "--n", "2", "--m", "8",
                 "--scheme", "s3", "--case", "const:1", "--mem-cap", cap,
                 "--out", str(tmp_path))
    assert rc == 2
    assert f"needs {work + 648} bytes" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cloud.csv"]
    rc = run_cli("solve", "--scheme", "s2", "--case", "const:1", "--n", "2",
                 "--m", "8", "--mem-cap", cap, "--out", str(tmp_path / "s"))
    assert rc == 0
    # S2 maps its field to u in place, so one solve's working set is enough
    rc = run_cli("pareto", "--input", str(cloud), "--n", "2", "--m", "8",
                 "--scheme", "s2", "--case", "f2", "--mem-cap", str(work),
                 "--out", str(tmp_path / "p"))
    assert rc == 0


@pytest.mark.parametrize("command,storage,cap", [
    ("solve", "full", 1000),    # 1x field with --case, 2x with the rhs file
    ("solve", "rolling", 600),  # no field with --case, 1x with the rhs file
    ("pareto", None, 1500),     # 2x field with --case, 3x with the rhs file (s3)
])
def test_guard_charges_the_field_file_rhs(tmp_path, capsys, monkeypatch,
                                          command, storage, cap):
    # n=2, m=8: a 648-byte field. Every charge also holds the solve's work
    # arrays, so the cap counts on top of them (pareto solves with full
    # storage). It lies between the --case and the --field-file charge: it
    # refuses --field-file before the file is read and still passes --case.
    spec = GridSpec(2, 8)
    charged = storage or "full"
    cap += working_set_bytes(spec, charged) - 648 * (charged == "full")
    rhs = tmp_path / "rhs.bin"
    GridField(spec, np.ones(spec.shape)).save_binary(rhs)
    cloud = tmp_path / "cloud.csv"
    cloud.write_text("0.1,0.2\n0.5,0.4\n")
    if command == "solve":
        argv = ["solve", "--scheme", "s2", "--storage", storage]
    else:
        argv = ["pareto", "--input", str(cloud), "--scheme", "s3"]
    argv += ["--n", "2", "--m", "8", "--mem-cap", str(cap)]

    def no_load(path):
        raise AssertionError("field file read before the guard")

    with monkeypatch.context() as mp:
        mp.setattr(GridField, "load_binary", no_load)
        rc = run_cli(*argv, "--field-file", str(rhs), "--out", str(tmp_path / "a"))
    assert rc == 2
    err = capsys.readouterr().err
    assert "field of 648 bytes" in err and f"above the cap of {cap}" in err
    assert not (tmp_path / "a").exists()
    assert run_cli(*argv, "--case", "const:1", "--out", str(tmp_path / "b")) == 0
    assert run_cli(*argv, "--field-file", str(rhs), "--mem-cap", str(cap + 648),
                   "--out", str(tmp_path / "c")) == 0


def test_guard_charges_a_rolling_solve_its_work_arrays(tmp_path, capsys):
    # rolling storage holds no field, but its front arrays still count
    argv = ["solve", "--scheme", "s1", "--case", "f1", "--n", "3", "--m", "40",
            "--storage", "rolling", "--out", str(tmp_path)]
    work = working_set_bytes(GridSpec(3, 40), "rolling")
    assert run_cli(*argv, "--mem-cap", str(work - 1)) == 2
    err = capsys.readouterr().err
    assert f"needs {work} bytes" in err and "--storage" not in err
    assert list(tmp_path.iterdir()) == []
    assert run_cli(*argv, "--mem-cap", str(work)) == 0


def test_pareto_outside_points_rejected_before_solve(tmp_path, capsys, monkeypatch):
    from hjsolve import convergence

    def no_solve(*args, **kwargs):
        raise AssertionError("solve called for an out-of-domain cloud")

    monkeypatch.setattr(convergence, "solve", no_solve)
    cloud = tmp_path / "cloud.csv"
    cloud.write_text("0.1,0.2\n2.0,0.5\n")
    rc = run_cli("pareto", "--input", str(cloud), "--n", "2", "--m", "512",
                 "--case", "f2", "--no-normalize", "--out", str(tmp_path))
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: 1 point(s) outside [0,1]^n (first indices [1])\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cloud.csv"]


def test_pareto_report_phases(tmp_path, capsys):
    cloud = tmp_path / "cloud.csv"
    cloud.write_text("1,2\n2,1\n3,3\n")
    rc = run_cli("pareto", "--input", str(cloud), "--n", "2", "--m", "32",
                 "--case", "const:1", "--out", str(tmp_path))
    assert rc == 0
    report = json.loads((tmp_path / "cloud_pareto.report.json").read_text())
    phases = report["phases"]
    assert sorted(phases) == ["agreement_s", "fronts_s", "load_s", "rank_s",
                              "save_s", "solve_s"]
    assert all(v >= 0.0 for v in phases.values())
    assert report["wall_time_s"] == phases["solve_s"]
    # the process's peak holds at least the cloud's coordinates: 3 points, n=2
    assert isinstance(report["peak_rss_bytes"], int)
    assert report["peak_rss_bytes"] >= 3 * 2 * 8


def test_pareto_toy_cloud(tmp_path, capsys):
    cloud = tmp_path / "cloud.csv"
    cloud.write_text("1,2\n2,1\n3,3\n")
    rc = run_cli("pareto", "--input", str(cloud), "--n", "2", "--m", "32",
                 "--case", "const:1", "--out", str(tmp_path))
    assert rc == 0
    rows = (tmp_path / "cloud_ranked.csv").read_text().splitlines()
    fronts = [int(r.split(",")[2]) for r in rows]
    assert fronts == [1, 1, 2]
    report = json.loads((tmp_path / "cloud_pareto.report.json").read_text())
    assert report["fronts"] == 2
    assert report["agreement"] is not None


def test_pareto_empty_input(tmp_path, capsys):
    cloud = tmp_path / "empty.csv"
    cloud.write_text("")
    rc = run_cli("pareto", "--input", str(cloud), "--n", "2", "--m", "8",
                 "--case", "const:1", "--out", str(tmp_path))
    assert rc == 1
    assert "empty" in capsys.readouterr().err


def test_pareto_malformed_line_number(tmp_path, capsys):
    cloud = tmp_path / "bad.csv"
    cloud.write_text("0.1,0.2\n0.5,oops\n")
    rc = run_cli("pareto", "--input", str(cloud), "--n", "2", "--m", "8",
                 "--case", "const:1", "--out", str(tmp_path))
    assert rc == 1
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_pareto_non_finite_coordinate_line_number(tmp_path, capsys, value):
    cloud = tmp_path / "bad.csv"
    cloud.write_text(f"0.1,0.2\n\n{value},0.3\n")
    rc = run_cli("pareto", "--input", str(cloud), "--n", "2", "--m", "8",
                 "--case", "const:1", "--out", str(tmp_path))
    assert rc == 1
    assert "line 3: non-finite value" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.csv"]


def test_env_overrides(tmp_path, monkeypatch):
    monkeypatch.setenv("HJSOLVE_OUT_DIR", str(tmp_path / "envout"))
    rc = run_cli("solve", "--scheme", "s1", "--case", "f1", "--n", "2", "--m", "8")
    assert rc == 0
    assert (tmp_path / "envout" / "solve_s1_f1_n2_m8.bin").exists()

    monkeypatch.setenv("HJSOLVE_MEM_CAP", "100")
    rc = run_cli("solve", "--scheme", "s1", "--case", "f1", "--n", "2", "--m", "8")
    assert rc == 2  # cap from the environment refuses the full grid


def run_entry_point(*argv):
    # a child process does not see pytest's pythonpath: hand it the checkout's src
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "hjsolve.cli", *argv],
                          capture_output=True, text=True, env=env)


def test_entry_point_help():
    proc = run_entry_point("--help")
    assert proc.returncode == 0
    assert "solve" in proc.stdout and "pareto" in proc.stdout


def test_entry_point_bad_flag_exits_2():
    proc = run_entry_point("solve", "--bogus")
    assert proc.returncode == 2
