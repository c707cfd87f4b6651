#!/usr/bin/env python3
"""End-to-end benchmark entry point (perfbench/README.md has the details).

    python3 perfbench/run.py --workload plan-golcf --seed 1 --seconds 30 --trace 0

Run from the repository root. Builds perfbench/ (which compiles the library
from src/) into .bench_build, sets the workload up from the seed into
.bench_work at least five times, runs it once (plan paths after one
untimed warm-up path), prints a metrics table with units and sample
counts, and ends with one JSON result line. --seconds
fixes how many operations the set-up generates (about that many seconds of
work on a 4-vCPU VM); the run replays all of them, however long that
takes. --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics of a traced run.
Exits non-zero without a result line when the build or a run fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
# BENCHMARK.json gates plan-golcf and daemon-epochs; bulk-1m is run by hand.
WORKLOADS = ("plan-golcf", "bulk-1m", "daemon-epochs")
# setup_s is the median of at least SETUPS set-ups, repeated until they
# have taken SETUP_SECONDS in all: a short set-up is sampled across the
# host's second-scale speed swings rather than caught in one of them.
SETUPS = 5
SETUP_SECONDS = 3.0
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures on first use, then brings the binary up to date."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "perfbench")


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise RuntimeError("no output")
    return json.loads(lines[-1])


def call(cmd):
    """Runs one perfbench phase; its stdout goes to ours, minus the JSON line."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:3])} exited with {proc.returncode}")
    return last_json(proc.stdout)


def print_table(metrics):
    print(f"{'metric':<40}{'value':>16}  {'unit':<8}{'samples':>8}")
    for name, m in metrics.items():
        print(f"{name:<40}{m['value']:>16.6g}  {m['unit']:<8}{m['samples']:>8}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--inject", default="",
                   help="CALL=MS: busy-wait MS ms after every call of the span "
                        "CALL (injected-slowdown self-test)")
    args = p.parse_args()

    try:
        exe = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 2

    # Every phase is single-threaded; one fixed CPU spares it the
    # scheduler's migrations between CPUs.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    work = os.path.join(WORK, args.workload)
    trace_out = os.path.join(WORK, f"{args.workload}.trace.json")
    try:
        setup_cmd = [exe, "setup", "--workload", args.workload, "--seed",
                     str(args.seed), "--seconds", str(args.seconds), "--dir", work]
        setup_s = []
        while len(setup_s) < SETUPS or sum(setup_s) < SETUP_SECONDS:
            setup_s.append(call(setup_cmd)["setup_s"])
        cmd = [exe, "run", "--workload", args.workload, "--dir", work,
               "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--trace-out", trace_out]
        if args.inject:
            cmd += ["--inject", args.inject]
        result = call(cmd)
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as e:
        log(f"{args.workload} failed: {e}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = result["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setup_s), "unit": "s",
                               "samples": len(setup_s)}, **metrics}
    print_table(metrics)
    attempted, failed = result["attempted"], result["failed"]
    print(f"attempted {attempted}, failed {failed}, "
          f"error_rate {failed / max(attempted, 1):.6g}")
    if args.trace:
        print(f"trace written to {os.path.relpath(trace_out, ROOT)}")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
