"""Repeat benchmark runs over several seeds and summarise them.

    python3 benchmarks/collect.py [--out benchmarks/BENCH_0.json]

Runs benchmarks/run.py for seeds 1..10 on every workload of BENCHMARK.json,
for its run_seconds, each run in its own process and one after another,
seeds in the outer loop. For every workload and end-to-end metric it reports
the median of the runs, their quartiles as `statistics.quantiles(values,
n=4)` gives them, and the spread (q3 - q1) / median, which must stay within
the metric's bound in BENCHMARK.json; it exits with 1 if one does not.
Two traced runs per workload, seeds 1 and 2, give the medians of the
per-layer metrics. With --out it writes the
machine description and all of this as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
TRACE_SEEDS = SEEDS[:2]


def run_once(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    res = json.loads(lines[-1])
    res["run_s"] = elapsed
    return res


def summarise(values) -> dict:
    med = statistics.median(values)
    q1, q3 = quartiles(values)
    return {"median": med, "n": len(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def _numpy_version() -> str:
    code = "import numpy; print(numpy.__version__)"
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True).stdout.strip()


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    runs = {w: [] for w in workloads}
    for seed in SEEDS:
        for w in workloads:
            res = run_once(w, seed, seconds, 0)
            runs[w].append(res)
            vals = " ".join(f"{k}={v['value']:.4g}"
                            for k, v in res["metrics"].items())
            print(f"{w} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} {vals} "
                  f"({res['run_s']:.1f} s)", flush=True)
    traced = {w: [run_once(w, s, seconds, 1)
                  for s in TRACE_SEEDS] for w in workloads}

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    report = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": _numpy_version(), "platform": platform.platform()},
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": {},
    }
    ok = True
    for w in workloads:
        entry = {"correct": all(r["correct"] for r in runs[w]),
                 "attempted": sum(r["attempted"] for r in runs[w]),
                 "failed": sum(r["failed"] for r in runs[w]),
                 "run_s_max": max(r["run_s"] for r in runs[w]),
                 "trace_run_s_max": max(r["run_s"] for r in traced[w]),
                 "end_to_end": {}, "per_layer": {}}
        for name, bound in bounds.items():
            s = summarise([r["metrics"][name]["value"] for r in runs[w]])
            s.update(bound=bound, unit=units[name])
            entry["end_to_end"][name] = s
            spread = s["spread"]
            within = spread <= bound
            ok &= within
            print(f"{w} {name}: median {s['median']:.6g} {units[name]}, "
                  f"spread {spread:.2%} (bound {bound:.0%})"
                  f"{'' if within else '  OVER BOUND'}")
        for name in traced[w][0]["metrics"]:
            s = summarise([r["metrics"][name]["value"] for r in traced[w]])
            s["unit"] = units[name]
            entry["per_layer"][name] = s
        ok &= entry["correct"]
        report["workloads"][w] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
