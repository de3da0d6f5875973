#!/usr/bin/env python3
"""Gate the probe phase's parallel scaling on the worker pool.

Compares two BENCH_probe_batch.json files from bench_ablation_probe_batch,
one run on a pooled default pool (HWF_THREADS=4) and one worker-less
(HWF_THREADS=-1), on the same host and at the same scale. The scalar probe
entry (label "batch=0") must be at least MIN_SPEEDUP times faster with the
pool than without it:

  speedup = serial probe_seconds / pooled probe_seconds

Frame probes are independent per row, so a pool that does not beat the
serial run by a wide margin means something on the probe path serializes
the workers (a shared cache line, a lock).

The floor only means something when the pool has cores to run on: when the
host block of the pooled file records fewer than MIN_CORES physical cores
(SMT siblings counted once), the check prints the reason and passes.

Usage:
  check_scaling_floor.py --pooled pooled/BENCH_probe_batch.json \\
      --serial serial/BENCH_probe_batch.json

Exit code 0 when the floor holds or is skipped, 1 when it fails, 2 on
unreadable or mismatched input.
"""

import argparse
import json
import sys

LABEL = "batch=0"
MIN_SPEEDUP = 2.0
MIN_CORES = 4


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"ERROR: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def probe_seconds(doc, path):
    for entry in doc.get("entries", []):
        if entry.get("label") == LABEL:
            seconds = entry.get("probe_seconds")
            if isinstance(seconds, (int, float)) and seconds > 0:
                return float(seconds)
            print(f"ERROR: {path}: entry {LABEL!r} has no positive "
                  "probe_seconds", file=sys.stderr)
            sys.exit(2)
    print(f"ERROR: {path}: no entry labelled {LABEL!r}", file=sys.stderr)
    sys.exit(2)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pooled", required=True)
    parser.add_argument("--serial", required=True)
    args = parser.parse_args()

    pooled = load(args.pooled)
    serial = load(args.serial)
    if pooled.get("scale") != serial.get("scale"):
        print(f"ERROR: scale mismatch: pooled {pooled.get('scale')} vs "
              f"serial {serial.get('scale')}", file=sys.stderr)
        return 2
    host = pooled.get("host")
    if not isinstance(host, dict) or "physical_cores" not in host:
        print(f"ERROR: {args.pooled}: no host block with physical_cores",
              file=sys.stderr)
        return 2

    cores = host["physical_cores"]
    if cores < MIN_CORES:
        print(f"SKIP: scaling floor needs >= {MIN_CORES} physical cores; "
              f"this host has {cores} ({host.get('cores')} hardware threads)")
        return 0

    pooled_s = probe_seconds(pooled, args.pooled)
    serial_s = probe_seconds(serial, args.serial)
    speedup = serial_s / pooled_s
    verdict = "OK" if speedup >= MIN_SPEEDUP else "FAIL"
    print(f"{verdict}: {LABEL} probe {serial_s:.3f} s worker-less, "
          f"{pooled_s:.3f} s with {host.get('pool_workers')} workers on "
          f"{cores} physical cores: {speedup:.2f}x "
          f"(floor {MIN_SPEEDUP:.2f}x)")
    return 0 if verdict == "OK" else 1


if __name__ == "__main__":
    sys.exit(main())
