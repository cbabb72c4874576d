#!/usr/bin/env python3
"""Run the benchmark over several seeds and keep every run's output.

    python3 perfbench/collect.py --out DIR [--workloads a,b] [--seeds 0-9]
                                 [--trace 0|1] [--seconds S]

Writes DIR/<workload>-seed<N>-trace<T>.out per run and then prints the
spread summary of perfbench/compare.py for the set. Defaults: every
workload of BENCHMARK.json, seeds 0-9, untraced, its run_seconds.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--seconds", default=str(bench["run_seconds"]))
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)
    for workload in args.workloads.split(","):
        for n in seeds(args.seeds):
            path = os.path.join(args.out, "%s-seed%d-trace%s.out" % (workload, n, args.trace))
            with open(path, "w") as out:
                code = subprocess.call(
                    [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                     "--seed", str(n), "--seconds", args.seconds, "--trace", args.trace],
                    stdout=out)
            print("%s seed %d: exit %d" % (workload, n, code), flush=True)
    return subprocess.call([sys.executable, os.path.join(HERE, "compare.py"), args.out])


if __name__ == "__main__":
    sys.exit(main())
