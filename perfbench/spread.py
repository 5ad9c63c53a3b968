#!/usr/bin/env python3
"""Run one workload on several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --workload sweep --seeds 1-10 [--trace 0] [--seconds 20]

Each run is a separate `perfbench/run.py` process, one after another.  For
every metric the summary gives the median, the first and third quartiles
(statistics.quantiles, n=4) and the quartile distance as a share of the
median; it also gives the share of failed ops.  Untraced runs add the
unscaled wall times from their result files as `unscaled.<metric>`.  The
figures in README.md were made with this script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    values, shares = {}, []
    for seed in args.seeds:
        cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: outputs not correct", file=sys.stderr)
            return 1
        shares.append(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        if not args.trace:
            record = json.loads((ROOT / "perfbench" / "out" / f"{args.workload}-seed{seed}-trace0.json").read_text())
            for name, value in record["unscaled_s"].items():
                values.setdefault(f"unscaled.{name}", []).append(value)
        print(f"seed {seed}: " + " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
              flush=True)

    print(f"\n{args.workload}, {len(args.seeds)} seeds, failed share {sorted(set(shares))}")
    print(f"{'metric':<48} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8}")
    for name, vals in sorted(values.items()):
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else 0.0
        print(f"{name:<48} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {share:>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
