#!/usr/bin/env python3
"""Steadiness check: runs one workload N times and summarises each metric.

    python3 servebench/steady.py --workload cold_scan --runs 10

Run i uses seed i (1..N), untraced, as a gate's runs vary --seed from run to
run. For every metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)), their distance as a share of the median
(the spread the bounds in BENCHMARK.json are set from) and that spread as a
share of the metric's bound. Also prints whether every run was correct and
each run's share of failed operations.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        help="run length (default: run_seconds)")
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as spec:
        benchmark = json.load(spec)
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    seconds = args.seconds or benchmark["run_seconds"]

    results = []
    for seed in range(1, args.runs + 1):
        run = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if run.returncode != 0:
            print(f"seed {seed}: exit {run.returncode}", file=sys.stderr)
            return 1
        result = json.loads(run.stdout.strip().splitlines()[-1])
        results.append(result)
        values = " ".join(f"{k}={v['value']:.6g}"
                          for k, v in sorted(result["metrics"].items()))
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {values}",
              flush=True)

    print(f"\n{args.workload}: {len(results)} runs, "
          f"all correct={all(r['correct'] for r in results)}, failed shares="
          f"{sorted({r['failed'] / r['attempted'] for r in results})}")
    print(f"{'metric':20} {'unit':5} {'median':>11} {'q1':>11} {'q3':>11}"
          f" {'iqr/median':>10} {'/bound':>7}")
    for name in sorted(results[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:20} {results[0]['metrics'][name]['unit']:5} "
              f"{median:11.6g} {q1:11.6g} {q3:11.6g} {spread:10.4f} "
              f"{spread / bounds[name]:7.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
