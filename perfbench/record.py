#!/usr/bin/env python3
"""Regenerate the expected digests the benchmark checks results against.

    python3 perfbench/record.py

Runs every workload once at each of the sixteen workload seeds and
rewrites perfbench/expected/digests.txt. Do this only at a commit whose
simulated results are meant to change: a change that only speeds up
the simulator must reproduce the recorded digests exactly.
"""

import os
import subprocess
import sys

WORKLOADS = ["paper-tables", "scaled-replay", "overcommit", "audit"]
SEEDS = 16
OUT = os.path.join("perfbench", "expected", "digests.txt")


def main():
    tmp = OUT + ".new"
    with open(tmp, "w") as f:
        f.write("# workload-seed workload cell-index cell-key digest\n")
    for n in range(SEEDS):
        for w in WORKLOADS:
            code = subprocess.call(
                [sys.executable, os.path.join("perfbench", "run.py"),
                 "--workload", w, "--seed", str(n), "--seconds", "1",
                 "--trace", "0", "--record", tmp])
            if code != 0:
                print("record: %s seed %d failed" % (w, n), file=sys.stderr)
                os.remove(tmp)
                return 1
    os.replace(tmp, OUT)
    return 0


if __name__ == "__main__":
    sys.exit(main())
