#!/usr/bin/env python3
"""Build and run the jnativeprof host-time benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <suite_cold|serve_miss> \\
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml). This
script builds it in release mode into $CARGO_TARGET_DIR (default
.bench_build), runs one workload in a process of its own and passes its
output through: the last stdout line is the JSON result. If the build or
the run fails it exits non-zero, and the run prints no result.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("suite_cold", "serve_miss")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
WORK_DIR = os.path.join(".bench_build", "perfbench-run")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join("perfbench", "Cargo.toml")
    build = ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
             "--manifest-path", manifest]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 3
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3

    binary = os.path.join(target, "release", "jprof-perfbench")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", WORK_DIR]
    sys.stdout.flush()
    try:
        ran = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 4
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
