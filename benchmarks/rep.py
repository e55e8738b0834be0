"""One repetition of a benchmark workload, in a fresh process.

    python3 benchmarks/rep.py --workload NAME --seed N --size full|tiny \
        --mode setup|run|trace [--trace-file PATH]

Imports hjsolve from the checkout's `src`, builds the workload's inputs, and
stops there in `setup` mode. Otherwise it runs the timed body once, then the
output checks, and prints one JSON record as the last line of its standard
output: the monotonic time at which the body started (the parent turns it
into set-up time), the body's wall time, the process's peak RSS once the
imports are done and at the end of the body, and the operations attempted
and failed. In `trace` mode it also writes its spans to
the trace file when it ends.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_workloads():
    """Import the workloads against the checkout's own hjsolve, never an
    installed copy."""
    sys.path.insert(0, str(SRC))
    import hjsolve
    if Path(hjsolve.__file__).resolve().parent != SRC / "hjsolve":
        raise ImportError(f"hjsolve imported from {hjsolve.__file__}, "
                          f"not from {SRC}")
    import workloads
    import tracing
    return workloads, tracing


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--trace-file")
    args = ap.parse_args(argv)

    workloads, tracing = _import_workloads()
    import_rss_mib = _peak_rss_mib()
    setup, body, check = workloads.WORKLOADS[args.workload]
    workdir = HERE / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer(args.mode == "trace",
                            run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
    ctx = workloads.Context(tracer=tracer,
                            params=workloads.SIZES[args.size][args.workload],
                            seed=args.seed, workdir=str(workdir))
    record = {"workload": args.workload, "mode": args.mode,
              "import_rss_mib": import_rss_mib}
    try:
        with tracer.span("setup"):
            setup(ctx)
        record["t_ready"] = time.monotonic()
        if args.mode == "setup":
            print(json.dumps(record))
            return 0
        crashed = False
        t0 = time.perf_counter()
        try:
            with tracer.span("body"):
                out = body(ctx)
        except Exception:
            traceback.print_exc()
            crashed = True
        record["wall_s"] = time.perf_counter() - t0
        record["rss_mib"] = _peak_rss_mib()
        if not crashed:
            try:
                check(ctx, out)
            except Exception:
                traceback.print_exc()
                crashed = True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = max(ctx.attempted, 1)
    failed = attempted if crashed else min(len(ctx.failed_ops), attempted)
    for msg in ctx.failures:
        print(f"check failed: {msg}", file=sys.stderr)
    record.update(attempted=attempted, failed=failed,
                  err_ratio_max=max(ctx.err_ratios, default=float("nan")))
    if args.mode == "trace":
        tracer.write(args.trace_file)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
