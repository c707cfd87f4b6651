#!/usr/bin/env python3
"""Compares two sets of benchmark runs, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE.jsonl CANDIDATE.jsonl

Both files hold sweep.py's JSON lines. Runs pair up by (workload, seed);
interleave base and candidate runs on the same host when recording them.
A metric is flagged worse when either rule holds:

  bound  the candidate median is worse than the base median by more than
         the metric's bound in BENCHMARK.json (the regression gate);
  pairs  the candidate is worse in at least nine tenths of the pairs and
         the medians differ by more than the base runs' own spread (the
         distance between their first and third quartile).

"better" is the mirror image of the pairs rule. Exits 1 when any metric
is flagged worse.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def compare(base_runs, cand_runs, bench):
    """Yields one row per (workload, end-to-end metric)."""
    for workload in dict.fromkeys(r["workload"] for r in base_runs):
        base = {r["seed"]: r for r in base_runs if r["workload"] == workload}
        cand = {r["seed"]: r for r in cand_runs if r["workload"] == workload}
        seeds = sorted(set(base) & set(cand))
        if not seeds:
            continue
        for m in bench["end_to_end"]:
            name = m["name"]
            sign = 1.0 if m["better"] == "lower" else -1.0
            b = [base[s]["result"]["metrics"][name]["value"] for s in seeds]
            c = [cand[s]["result"]["metrics"][name]["value"] for s in seeds]
            b_med, c_med = statistics.median(b), statistics.median(c)
            change = sign * (c_med - b_med) / b_med if b_med else 0.0
            worse = sum(sign * (y - x) > 0 for x, y in zip(b, c))
            better = sum(sign * (y - x) < 0 for x, y in zip(b, c))
            beyond_spread = abs(c_med - b_med) > iqr(b)
            if change > m["bound"]:
                verdict = "WORSE (bound)"
            elif worse >= 0.9 * len(seeds) and beyond_spread and change > 0:
                verdict = "WORSE (pairs)"
            elif better >= 0.9 * len(seeds) and beyond_spread and change < 0:
                verdict = "better (pairs)"
            else:
                verdict = "no change"
            yield {"workload": workload, "metric": name, "pairs": len(seeds),
                   "base": b_med, "candidate": c_med, "change": change,
                   "worse_pairs": worse, "base_iqr": iqr(b), "verdict": verdict}


def print_rows(rows):
    print(f"{'workload':<14}{'metric':<16}{'base':>12}{'candidate':>12}"
          f"{'worse%':>8}{'worse pairs':>12}  verdict")
    for r in rows:
        print(f"{r['workload']:<14}{r['metric']:<16}{r['base']:>12.6g}"
              f"{r['candidate']:>12.6g}{100 * r['change']:>8.2f}"
              f"{r['worse_pairs']:>6}/{r['pairs']:<5}  {r['verdict']}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base")
    p.add_argument("candidate")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    rows = list(compare(load(args.base), load(args.candidate), bench))
    print_rows(rows)
    flagged = any(r["verdict"].startswith("WORSE") for r in rows)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
