#!/usr/bin/env python3
"""Run one workload K times, each on its own seed, and print the spread.

    python3 perfbench/spread.py --workload corridor-nav --runs 10 [--seconds 12] [--trace 0] [--first-seed 1]

For every metric it prints the median, the first and third quartiles (as
statistics.quantiles(values, n=4) gives them) and the interquartile
distance as a share of the median. The bounds in BENCHMARK.json are set
from these figures. The last line of output is the same table as JSON.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=12)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    here = os.path.dirname(os.path.abspath(__file__))
    values, shares = {}, []
    for i in range(args.runs):
        seed = args.first_seed + i
        out = subprocess.run(
            [sys.executable, os.path.join(here, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True,
        ).stdout.strip().splitlines()[-1]
        res = json.loads(out)
        if not res["correct"]:
            sys.exit("seed %d: correctness check failed" % seed)
        shares.append(res["failed"] / res["attempted"])
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: attempted %d failed %d" % (seed, res["attempted"], res["failed"]), file=sys.stderr)
    table = {}
    for name in sorted(values):
        v = values[name]
        q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
        spread = (q3 - q1) / abs(med) if med else float("inf")
        table[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": v}
        print("%-32s median %14.6g  q1 %14.6g  q3 %14.6g  spread %7.2f%%" % (name, med, q1, q3, 100 * spread))
    print("failed share per run: %s" % sorted(set(shares)))
    print(json.dumps({"workload": args.workload, "runs": args.runs, "metrics": table}))


if __name__ == "__main__":
    main()
