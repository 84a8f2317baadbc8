#!/usr/bin/env python3
"""Build the serving benchmark from source and run one workload.

Usage (from the repository root):

    python3 servebench/run.py --workload decode-heavy --seed 1 --seconds 20 --trace 0

The benchmark is compiled (Release) into $CARGO_TARGET_DIR/servebench, or
.bench_build/servebench when that variable is unset, relative to the current
directory. Build output goes to stderr; stdout carries the benchmark's own
report, whose last line is the JSON result. The exit code is the
benchmark's: nonzero on a build failure, a correctness failure or an
invalid run.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "servebench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "servebench")


def option(args, name, default):
    for i, arg in enumerate(args):
        if arg == name and i + 1 < len(args):
            return args[i + 1]
        if arg.startswith(name + "="):
            return arg.split("=", 1)[1]
    return default


def main():
    args = sys.argv[1:]
    build_dir = os.path.abspath(
        os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                     "servebench"))
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"servebench: build failed: {error}", file=sys.stderr)
        return 2
    trace_out = os.path.join(
        build_dir, "trace-{}-{}".format(option(args, "--workload", "none"),
                                        option(args, "--seed", "0")))
    sys.stdout.flush()
    return subprocess.run([binary, *args, "--trace-out", trace_out]).returncode


if __name__ == "__main__":
    sys.exit(main())
