#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each metric's median and
its run-to-run spread (quartile distance as a share of the median, the
rule BENCHMARK.json's bounds are checked against).

Usage (from the repository root):

    python3 perfbench/spread.py --workload light_8x8 --seeds 1-10 [--trace 1]

Each run is a separate `perfbench/run.py` process, one after another.
A run that fails or reports `correct: false` stops the sweep.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    for seed in seeds_of(args.seeds):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if done.returncode != 0 or not result.get("correct"):
            sys.stderr.write(done.stderr)
            print(f"seed {seed}: run failed (exit {done.returncode})")
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()),
            flush=True)

    print(f"\n{'metric':40s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = f"{(q3 - q1) / med:8.4f}" if med else "     n/a"
        else:
            spread = "     n/a"
        bound = bounds.get(name)
        print(f"{name:40s} {med:12.6g} {spread} "
              f"{'' if bound is None else bound:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
