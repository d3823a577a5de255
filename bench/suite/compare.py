#!/usr/bin/env python3
"""Compare two bench_suite --json outputs against the bounds in BENCHMARK.json.

    python3 bench/suite/compare.py BASE.json NEW.json [--benchmark FILE]

For every workload in both files and every end-to-end metric BENCHMARK.json
declares, prints one verdict:

  better      the median improved by more than the bound
  same        the medians differ by no more than the bound
  worse       the median got worse by more than the bound
  unresolved  either run's (q75 - q25) / median exceeds the bound, so the
              medians cannot be told apart; a noisy metric still counts as
              better (worse) when every NEW value beats (trails) every
              BASE value and the median moved by more than the bound

The bound is the share of BASE's median by which NEW may worsen. Exits 1
if any verdict is "worse", 2 on unusable input, else 0.
"""

import argparse
import json
import os
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def spread(m):
    return (m["q75"] - m["q25"]) / abs(m["median"]) if m["median"] else 0.0


def verdict(base, new, bound, higher_is_better):
    sign = 1.0 if higher_is_better else -1.0
    # Positive change = improvement, as a share of the base median.
    change = sign * (new["median"] - base["median"]) / abs(base["median"])
    all_better = min(sign * v for v in new["values"]) > max(
        sign * v for v in base["values"])
    all_worse = max(sign * v for v in new["values"]) < min(
        sign * v for v in base["values"])
    if max(spread(base), spread(new)) > bound:
        if all_better and change > bound:
            return "better"
        if all_worse and change < -bound:
            return "worse"
        return "unresolved"
    if change > bound:
        return "better"
    if change < -bound:
        return "worse"
    return "same"


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark",
                        default=os.path.join(here, "..", "..",
                                             "BENCHMARK.json"))
    args = parser.parse_args()

    try:
        spec = load(args.benchmark)
        base, new = load(args.base), load(args.new)
    except (OSError, ValueError) as e:
        print(f"compare.py: {e}", file=sys.stderr)
        return 2
    metrics = spec["end_to_end"]

    worse = False
    print(f"{'workload':14} {'metric':16} {'unit':5} {'base':>13} "
          f"{'new':>13} {'change':>8} {'bound':>7}  verdict")
    for workload in sorted(set(base["workloads"]) & set(new["workloads"])):
        b_metrics = base["workloads"][workload]["metrics"]
        n_metrics = new["workloads"][workload]["metrics"]
        for m in metrics:
            name, bound = m["name"], m["bound"]
            if name not in b_metrics or name not in n_metrics:
                print(f"compare.py: {workload} lacks {name}", file=sys.stderr)
                return 2
            for run in (b_metrics[name], n_metrics[name]):
                if run["bound"] != bound or run["unit"] != m["unit"]:
                    print(f"compare.py: {name} bound/unit differ from "
                          f"{args.benchmark}", file=sys.stderr)
                    return 2
            b, n = b_metrics[name], n_metrics[name]
            v = verdict(b, n, bound, m["better"] == "higher")
            worse = worse or v == "worse"
            change = (n["median"] - b["median"]) / abs(b["median"])
            print(f"{workload:14} {name:16} {m['unit']:5} {b['median']:13.6g}"
                  f" {n['median']:13.6g} {100 * change:+7.2f}% "
                  f"{100 * bound:6.2f}%  {v}")
    for label, run in (("base", base), ("new", new)):
        failed = sum(w["failed"] for w in run["workloads"].values())
        attempted = sum(w["attempted"] for w in run["workloads"].values())
        print(f"{label}: seed {run['seed']}, {attempted} reps attempted, "
              f"{failed} failed, 1-min load {run['loadavg_1min_start']:.2f}"
              f" -> {run['loadavg_1min_end']:.2f}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
