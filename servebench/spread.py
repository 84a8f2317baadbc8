#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 servebench/spread.py --workloads decode-heavy,open-mixed \
        --seeds 1-10 --seconds 20 [--trace 0]

For every workload and every metric the runs print, it prints the median
and the interquartile range as a share of the median
(statistics.quantiles(values, n=4)), and, for the end-to-end metrics
BENCHMARK.json gates, whether that spread is below a third of the bound
(setup_s is marked exempt: only its median is gated).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", default="0")
    opts = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = opts.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    ok = True
    for workload in opts.workloads.split(","):
        values = {}
        for seed in seeds(opts.seeds):
            cmd = [*bench["command"], "--workload", workload, "--seed",
                   str(seed), "--seconds", str(seconds), "--trace", opts.trace]
            run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            last = run.stdout.strip().splitlines()[-1] if run.stdout.strip() else ""
            if run.returncode != 0 or not last.startswith("{"):
                print(f"{workload} seed {seed}: exit {run.returncode}\n"
                      f"{run.stdout[-2000:]}{run.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(last)
            if not result["correct"]:
                ok = False
            # Every metric the run printed, gated or not.
            for line in run.stdout.splitlines():
                if line.startswith("metric "):
                    name, value = line.split()[1], line.split()[3]
                    values.setdefault(name, []).append(float(value))
        for name, vals in values.items():
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med] * 3
            spread = (q[2] - q[0]) / abs(med) if med else float("nan")
            bound = bounds.get(name)
            mark = ""
            if name == "setup_s":
                # setup_s is gated on its median only, not on its spread.
                mark = "exempt"
            elif bound is not None:
                mark = "ok" if spread < bound / 3 else "SPREAD"
            elif opts.trace == "0":
                mark = "not gated"
            print(f"{workload:14s} {name:34s} median={med:<12.6g} "
                  f"iqr/median={spread:.4f} {mark}  "
                  + " ".join(f"{v:.4g}" for v in vals))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
