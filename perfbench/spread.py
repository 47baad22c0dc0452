#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Usage, from the root of the repository:

    python3 perfbench/spread.py WORKLOAD [--seeds 1-10] [--seconds S]
                                [--trace 0|1] [--json OUT]

Runs perfbench/run.py once per seed and prints, for every metric, the
median of the values and the distance between their first and third
quartiles (statistics.quantiles, n=4) as a share of the median; with
BENCHMARK.json present, the share is also given against the metric's
bound.  --json writes the raw values, so two sets can be compared.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--json")
    args = ap.parse_args()
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    except (OSError, ValueError, KeyError):
        bounds = {}
    values = {}
    for seed in seeds_of(args.seeds):
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds,
             "--trace", args.trace],
            capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if out.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: rc={out.returncode} "
                  f"correct={result.get('correct')}", file=sys.stderr)
            print(out.stdout[-2000:], out.stderr[-2000:], file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
            flush=True)
    print(f"{'metric':36} {'median':>14} {'iqr/median':>11} {'of bound':>9}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4)
        share = (q[2] - q[0]) / med if med else float("nan")
        b = bounds.get(name)
        rel = f"{share / b:9.2f}" if b else f"{'':9}"
        print(f"{name:36} {med:14.6g} {share:11.4f} {rel}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(values, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
