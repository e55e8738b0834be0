"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest benchmarks/test_smoke.py

Every workload runs, passes its output checks and emits every metric named in
BENCHMARK.json with its unit, traced and untraced. Also checks that the
front checker rejects a wrong labelling and that the benchmark refuses to run
without the program's sources.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_with_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    for v in result["metrics"].values():
        assert math.isfinite(v["value"])


def test_front_check_rejects_wrong_labels():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import check_fronts

    pts = np.array([[0.1, 0.1, 0.1], [0.2, 0.2, 0.2], [0.0, 0.5, 0.3],
                    [0.3, 0.3, 0.3]])
    assert check_fronts(pts, np.array([1, 2, 1, 3])) is None
    assert check_fronts(pts, np.array([1, 1, 1, 2])) is not None  # same front
    assert check_fronts(pts, np.array([1, 2, 1, 4])) is not None  # gap
    assert check_fronts(pts, np.array([1, 2, 2, 3])) is not None  # no dominator


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns(".work", "traces",
                                                  "__pycache__"))
    proc = _run(tmp_path, "--workload", "conv2d", "--seed", "1", "--seconds",
                "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
