#!/usr/bin/env python3
"""Injected-slowdown self-test: the comparison must catch a 10% slowdown.

    python3 perfbench/selftest.py --dir selftest-out

Run from the repository root. For each target below, every seed gets
three interleaved runs: base A, slowed, base B. The slowed run busy-waits
after every call of one public function (run.py --inject), sized to 10% of
the target metric of the same seed's base A run. The ten seeds give the ten
pairs compare.py's nine-tenths rule is written for. compare.py must flag the
target metric worse on (A, slowed) and flag nothing on (A, B). Exits 0
only when both hold for every target.
"""

import argparse
import json
import os
import sys

import compare
import sweep

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SLOWDOWN = 0.10  # share of the target metric the busy-wait adds
SEEDS = range(101, 111)

# workload, wrapped call, calls per operation, metric the slowdown is sized
# from and must be flagged on.
TARGETS = [
    ("plan-golcf", "core.validate", 1, "latency_p50_ms"),
    ("daemon-epochs", "daemon.step", 1, "latency_p90_ms"),
]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--dir", required=True)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    os.makedirs(args.dir, exist_ok=True)

    ok = True
    for workload, call, calls_per_op, metric in TARGETS:
        files = {k: os.path.join(args.dir, f"{workload}.{k}.jsonl")
                 for k in ("base_a", "slowed", "base_b")}
        for path in files.values():
            if os.path.exists(path):
                os.remove(path)
        for seed in SEEDS:
            a = sweep.run_one(bench, workload, seed, files["base_a"])
            if a is None:
                return 1
            ms = SLOWDOWN * a["metrics"][metric]["value"] / calls_per_op
            inject = f"{call}={ms:.3f}"
            if (sweep.run_one(bench, workload, seed, files["slowed"], inject=inject)
                    is None or
                    sweep.run_one(bench, workload, seed, files["base_b"]) is None):
                return 1

        base = compare.load(files["base_a"])
        slowed = list(compare.compare(base, compare.load(files["slowed"]), bench))
        unchanged = list(compare.compare(base, compare.load(files["base_b"]), bench))
        print(f"\n{workload}: slowed (busy-wait after each {call}) vs base")
        compare.print_rows(slowed)
        print(f"\n{workload}: unchanged vs base")
        compare.print_rows(unchanged)
        caught = any(r["metric"] == metric and r["verdict"].startswith("WORSE")
                     for r in slowed)
        quiet = not any(r["verdict"].startswith("WORSE") for r in unchanged)
        print(f"\n{workload}: slowdown {'flagged' if caught else 'MISSED'} on {metric}; "
              f"unchanged code {'not flagged' if quiet else 'FLAGGED'}")
        ok = ok and caught and quiet
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
