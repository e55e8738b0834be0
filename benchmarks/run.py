"""hjsolve benchmark: runs one workload and prints its metrics.

    python3 benchmarks/run.py --workload conv2d|conv3d|stream|pareto3d|all \
        --seed N --seconds S --trace 0|1 [--size full|tiny]

Run from the root of a checkout; hjsolve is imported from its `src`.
Every repetition runs in a fresh process (benchmarks/rep.py), one after
another, so each pays the program's cold caches as a CLI user does and
`ru_maxrss` is that repetition's own peak. The S seconds start with the
run, and a process is started only while it is expected to end within them:
it is budgeted at SLACK times the longest process of its kind so far.

With --trace 0 a run repeats the timed body (at least once), then spends
the time left on up to SETUP_SAMPLES processes that only set up, and prints
the medians of the end-to-end metrics of BENCHMARK.json. With --trace 1 it
starts with one traced repetition, writes its spans to benchmarks/traces/,
repeats the untraced body in the time left (at least once) for the bases of
the overhead and memory ratios, and prints the per-layer metrics derived
from them.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. `--workload all` runs every
workload in its own process, one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import layer_metrics, quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("conv2d", "conv3d", "stream", "pareto3d")
SETUP_SAMPLES = 5
# Repetitions of one workload vary by 10-20 % on a shared host; budgeting
# the next one at the longest so far plus this margin keeps runs within S.
SLACK = 1.1
CHILD_TIMEOUT_S = 170


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # one client, no helper threads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(workload: str, seed: int, size: str, mode: str,
          trace_file: Path | None = None) -> dict | None:
    """Run one repetition in a fresh process and return its record, with
    `setup_s` (process start to first timed call) and `elapsed_s` added;
    None if the process failed or timed out."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--mode", mode]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), text=True,
                              capture_output=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: {mode} repetition timed out", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: {mode} repetition exited with {proc.returncode}",
              file=sys.stderr)
        return None
    rec = json.loads(lines[-1])
    rec["setup_s"] = rec["t_ready"] - t0
    rec["elapsed_s"] = time.monotonic() - t0
    return rec


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str, spec: dict) -> dict:
    start = time.monotonic()

    def fits(longest: float) -> bool:
        return time.monotonic() - start + SLACK * longest <= seconds

    traced = None
    trace_file = HERE / "traces" / f"{workload}-seed{seed}.json"
    if trace:
        # first, so the untraced repetitions are budgeted around its own
        # measured length
        trace_file.parent.mkdir(exist_ok=True)
        traced = spawn(workload, seed, size, "trace", trace_file)
    reps = []
    while not reps or fits(max(r["elapsed_s"] for r in reps)):
        rec = spawn(workload, seed, size, "run")
        reps.append(rec)
        if rec is None:
            break
    setups = []
    ok_reps = [r for r in reps if r is not None]
    if not trace and ok_reps:
        # a set-up-only process takes about as long as a repetition's set-up
        longest = max(r["setup_s"] for r in ok_reps)
        while len(setups) < SETUP_SAMPLES and fits(longest):
            rec = spawn(workload, seed, size, "setup")
            setups.append(rec)
            if rec is None:
                break
            longest = max(longest, rec["elapsed_s"])

    children = setups + reps + ([traced] if trace else [])
    done = [r for r in children if r is not None]
    attempted = sum(r.get("attempted", 0) for r in done)
    failed = sum(r.get("failed", 0) for r in done)
    lost = len(children) - len(done)  # a lost process counts one failed op
    attempted, failed = attempted + lost, failed + lost

    samples = {
        "wall_s": [r["wall_s"] for r in ok_reps],
        "setup_s": [r["setup_s"] for r in done if r["mode"] != "trace"],
        "peak_rss_mib": [r["rss_mib"] for r in ok_reps],
        "import_rss_mib": [r["import_rss_mib"] for r in ok_reps],
    }
    values = {k: statistics.median(v) for k, v in samples.items() if v}
    if ok_reps:
        values["err_ratio_max"] = max(r["err_ratio_max"] for r in ok_reps)
    for k, v in samples.items():
        if v:
            q1, q3 = quartiles(v)
            print(f"{workload} {k}: median {values[k]:.6g} (q1 {q1:.6g}, "
                  f"q3 {q3:.6g}, {len(v)} samples: "
                  f"{' '.join(f'{x:.4g}' for x in v)})")

    if trace:
        if traced is not None and ok_reps:
            with open(trace_file) as fh:
                values.update(layer_metrics(json.load(fh), values))
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"{workload} {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    correct = failed == 0 and len(metrics) == len(wanted)
    print(f"{workload}: {attempted} operations, {failed} failed "
          f"(fail_frac {failed / attempted:.3g})")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args) -> dict:
    """Every workload in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, cwd=ROOT, text=True, stdout=subprocess.PIPE)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if res is None:
            total["correct"] = False
            continue
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            total["metrics"][f"{w}.{name}"] = m
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs the smoke-test sizes")
    args = ap.parse_args(argv)
    if not (SRC / "hjsolve" / "__init__.py").is_file():
        print(f"error: no hjsolve sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args)
    else:
        with open(ROOT / "BENCHMARK.json") as fh:
            spec = json.load(fh)
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.size, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
