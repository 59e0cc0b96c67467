#!/usr/bin/env python3
"""Compares two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the result records run.py keeps (by default under
.bench_build/perfbench/results/). Only --trace 0 records are compared.
Results taken on different core counts or topologies are refused. For
every workload and end-to-end metric it prints each side's median and
quartile spread (Q3 - Q1 over the median) and marks a metric whose new
median is worse than the base median by more than the metric's bound in
BENCHMARK.json. Exits 1 when any metric is worse by more than its bound.
"""
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOPOLOGY = ("nproc", "loop_threads", "shards", "connections", "pipeline",
            "capacity_mb", "keys")


def load(directory):
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        if rec["config"].get("trace") != 0:
            continue
        runs.setdefault(rec["config"]["workload"], []).append(rec)
    return runs


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, float("nan")
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / med if med else float("nan")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    worse = 0
    for workload in sorted(set(base) & set(new)):
        topologies = {tuple(r["config"].get(k) for k in TOPOLOGY)
                      for r in base[workload] + new[workload]}
        if len(topologies) != 1:
            sys.exit(f"{workload}: refusing to compare results taken on "
                     f"different hosts or topologies {sorted(topologies)} "
                     f"(fields {TOPOLOGY})")
        print(f"{workload}: {len(base[workload])} base runs, "
              f"{len(new[workload])} new runs")
        for m in metrics:
            name = m["name"]
            b = [r["result"]["metrics"][name]["value"] for r in base[workload]]
            n = [r["result"]["metrics"][name]["value"] for r in new[workload]]
            b_med, b_spread = summary(b)
            n_med, n_spread = summary(n)
            change = (n_med - b_med) / b_med if b_med else float("nan")
            regress = change > m["bound"] if m["better"] == "lower" \
                else -change > m["bound"]
            worse += regress
            print(f"  {name:20s} base {b_med:12.4f} ({b_spread:6.1%})  "
                  f"new {n_med:12.4f} ({n_spread:6.1%})  "
                  f"{change:+7.1%}  bound {m['bound']:.0%}"
                  f"{'  WORSE' if regress else ''}")
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
