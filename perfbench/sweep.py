#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/sweep.py --workloads bulk-1m --seeds 1-10 --out runs.jsonl

Run from the repository root. Appends one JSON line per run to --out
({"workload", "seed", "inject", "result"}) and prints, per workload and
end-to-end metric, the median and the spread: the distance between the
first and third quartile (statistics.quantiles(n=4)) as a share of the
median, against the metric's bound from BENCHMARK.json. Exits 3 when a
spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def load_runs(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def print_spreads(runs, bench):
    """Prints the spread table; returns False when a spread exceeds its bound."""
    ok = True
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        print(f"{workload}: {len(mine)} runs, "
              f"{sum(not r['result']['correct'] for r in mine)} incorrect")
        for m in bench["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in mine]
            med, s = spread(values)
            verdict = ("steady" if s < m["bound"] / 3 else
                       "within bound" if s <= m["bound"] else "TOO WIDE")
            if s > m["bound"]:
                ok = False
            print(f"  {m['name']:<16} median {med:<14.6g} spread {s:7.4f} "
                  f"bound {m['bound']:<5} {verdict}")
    return ok


def run_one(bench, workload, seed, out, inject=""):
    """Runs run.py once and appends its result to `out`; None on failure."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(out, "a") as f:
        f.write(json.dumps({"workload": workload, "seed": seed, "inject": inject,
                            "result": result}) + "\n")
    print(f"{workload} seed {seed}{' inject ' + inject if inject else ''}: " +
          ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
          flush=True)
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", help="comma-separated; default: BENCHMARK.json's")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--out", required=True)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if not args.workloads:
        args.workloads = ",".join(w["name"] for w in bench["workloads"])

    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            if run_one(bench, workload, seed, args.out) is None:
                return 1
    runs = [r for r in load_runs(args.out) if not r["inject"]]
    return 0 if print_spreads(runs, bench) else 3


if __name__ == "__main__":
    sys.exit(main())
