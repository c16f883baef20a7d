#!/usr/bin/env python3
"""Steadiness report for the served-path benchmark.

Runs one workload repeatedly and prints, for every metric of the result
line, its median, first and third quartile (``statistics.quantiles(n=4)``)
and the spread (Q3 - Q1) as a share of the median.

    python3 servebench/steadiness.py --workload beta-mem-ladder --runs 10
    python3 servebench/steadiness.py --workload stenning-udp-steady \
        --runs 10 --vary-seed --seed 100

Run from the repository root. By default every run uses the same seed;
``--vary-seed`` gives run ``i`` the seed ``seed + i``. ``--bin`` runs an
already built ``servebench`` binary instead of ``cargo run``.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--vary-seed", action="store_true")
    ap.add_argument("--seconds", type=int, default=None,
                    help="defaults to run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--bin", default=None, help="a built servebench binary")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    command = [args.bin] if args.bin else bench["command"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    units = {}
    for i in range(args.runs):
        seed = args.seed + i if args.vary_seed else args.seed
        cmd = command + ["--workload", args.workload, "--seed", str(seed),
                         "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"run {i} (seed {seed}) exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"run {i} (seed {seed}) reported failures: {result}")
        line = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
            line.append(f"{name}={m['value']:.6g}")
        print(f"run {i:2d} seed {seed}: " + " ".join(line), flush=True)

    print()
    print(f"workload {args.workload}: {args.runs} runs, "
          f"{'seeds ' + str(args.seed) + '..' + str(args.seed + args.runs - 1) if args.vary_seed else 'seed ' + str(args.seed)}, "
          f"{seconds} s each, trace {args.trace}")
    print(f"{'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread/med':>10} {'bound':>6}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:<34} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>10.4f} {'' if bound is None else bound:>6} {units[name]}")


if __name__ == "__main__":
    main()
