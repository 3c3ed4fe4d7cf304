#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each metric's spread.

For every workload and metric this prints the median of the runs and
the distance between the first and third quartile as a share of the
median (statistics.quantiles(values, n=4)), next to the metric's bound
from BENCHMARK.json. Run from the repository root:

    python3 perfbench/spread.py --seeds 10 [--workloads national_hc,...] [--trace 0]

With --overhead it instead runs every seed both untraced and traced and
prints, per end-to-end metric, the traced median against the untraced
one: the tracing overhead.
"""

import argparse
import json
import statistics
import subprocess
import sys

TRACED_END_TO_END = "# end-to-end: "


def run(bench, workload, seed, trace):
    """One run; returns (end-to-end metrics, JSON result) or None."""
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stdout}{done.stderr}")
        return None
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        print(f"{workload} seed {seed}: incorrect or failed ops: {lines[-1]}")
        return None
    end_to_end = result["metrics"]
    if trace:
        traced = [l for l in lines if l.startswith(TRACED_END_TO_END)]
        end_to_end = json.loads(traced[-1][len(TRACED_END_TO_END):])["metrics"]
    return end_to_end, result


def values_of(metrics, into):
    for name, m in metrics.items():
        into.setdefault(name, []).append(m["value"])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1000)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--overhead", action="store_true")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]
    ]
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    failed = False
    for workload in workloads:
        if args.overhead:
            untraced, traced = {}, {}
            for seed in seeds:
                for trace, into in ((0, untraced), (1, traced)):
                    got = run(bench, workload, seed, trace)
                    failed |= got is None
                    if got:
                        values_of(got[0], into)
            for name, vals in untraced.items():
                plain = statistics.median(vals)
                with_trace = statistics.median(traced.get(name, [float("nan")]))
                change = 100 * (with_trace - plain) / plain if plain else float("nan")
                print(f"{workload:14} {name:34} untraced {plain:14.4f}  traced "
                      f"{with_trace:14.4f}  change {change:+7.2f}%")
            continue
        values = {}
        for seed in seeds:
            got = run(bench, workload, seed, args.trace)
            failed |= got is None
            if got:
                values_of(got[1]["metrics"], values)
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound:
                flag = "  OVER BOUND"
                failed = True
            elif bound is not None and spread > bound / 3:
                flag = "  over a third of the bound"
            print(f"{workload:14} {name:34} median {median:14.4f}  spread {spread:7.4f}"
                  f"  bound {bound}{flag}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
