#!/usr/bin/env python3
"""Runs a small serve_throughput --json scenario and checks the file's shape.

The file must parse as JSON with no key written twice in any object (a
counter in the registry and a same-named bench field would both land in
one scenario), carry the keys bench/check_regression.py reads, and omit
the registry counters that stayed zero.

Usage:
  python3 tests/check_serve_json.py <path to serve_throughput>
"""

import json
import os
import subprocess
import sys
import tempfile

TOP_LEVEL_KEYS = ("config", "kernels", "scenarios")
SCENARIO_KEYS = ("name", "mode", "backend", "ok", "throughput_rps",
                 "tokens_per_sec", "abft_overhead")


def reject_duplicates(pairs):
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ValueError(f"duplicate JSON key {key!r}")
        seen.add(key)
    return dict(pairs)


def main():
    if len(sys.argv) != 2:
        print(__doc__)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "serve.json")
        subprocess.run(
            [sys.argv[1], "--mode=continuous", "--backend=simd",
             "--gen-requests=4", "--kernel-reps=0", "--inject-faults=false",
             f"--json={path}"],
            check=True, stdout=subprocess.DEVNULL)
        with open(path) as f:
            doc = json.load(f, object_pairs_hook=reject_duplicates)

    problems = [f"missing top-level key {key!r}"
                for key in TOP_LEVEL_KEYS if key not in doc]
    scenarios = doc.get("scenarios", [])
    if not scenarios:
        problems.append("no scenarios")
    for scenario in scenarios:
        label = scenario.get("name", "?")
        problems += [f"{label}: missing {key!r}"
                     for key in SCENARIO_KEYS if key not in scenario]
        if scenario.get("ok") is not True:
            problems.append(f"{label}: reconciliation failed")
        # Registry counters that ran are written; generation sessions bypass
        # the worker batches and nothing was shed, so those stay out.
        for key in ("completed", "tokens_generated", "scheduler_ticks"):
            if scenario.get(key, 0) <= 0:
                problems.append(f"{label}: counter {key!r} missing or zero")
        for key in ("batches", "rejected"):
            if key in scenario:
                problems.append(f"{label}: zero counter {key!r} written")

    for problem in problems:
        print(problem)
    print(f"{len(scenarios)} scenario(s), {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
