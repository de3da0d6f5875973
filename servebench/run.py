#!/usr/bin/env python3
"""Served-query benchmark over hwf_serve (see README.md).

    python3 servebench/run.py --workload cold_scan --seed 1 --seconds 10 --trace 0

Builds hwf_serve and the benchmark driver from this checkout's sources
(Release) into $CARGO_TARGET_DIR/servebench, by default
.bench_build/servebench, then runs one workload. Build output and the
run's report go to stderr; the last line of stdout is the result as one
JSON object. Exits non-zero, printing no result, when the build or the run
fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_scan", "warm_dashboard", "append_stream")
POOL_THREADS = 2  # servebench.h kPoolThreads, recorded with every run
RUN_TIMEOUT_S = 170


def build(build_dir):
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
                  "--target", "servebench", "hwf_serve"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def host_metadata(build_dir):
    compiler = "unknown"
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    path = line.split("=", 1)[1].strip()
                    version = subprocess.run([path, "--version"],
                                             capture_output=True, text=True)
                    compiler = version.stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                         capture_output=True, text=True).stdout.strip()
    return (f"nproc={os.cpu_count()} HWF_THREADS={POOL_THREADS} "
            f"build=Release compiler='{compiler}' "
            f"git={sha or 'none (not a git checkout)'}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "servebench")
    if not build(build_dir):
        print("servebench: build failed", file=sys.stderr)
        return 1
    print(f"servebench: {host_metadata(build_dir)}", file=sys.stderr)
    command = [os.path.join(build_dir, "servebench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--serve", os.path.join(build_dir, "hwf_serve"),
               "--out", os.path.join(ROOT, "servebench-out")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"servebench: no result within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    if run.returncode != 0:
        return run.returncode
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
