#!/usr/bin/env python3
"""The benchmark's own test. Run from the root of the checkout:

    python3 perfbench/selftest.py

1. A corrupted expected digest must make a run report failed cells
   (fail ratio above 0), "correct": false, and exit non-zero.
2. On a held-out workload seed (43; development used 42) every workload
   must run clean traced, which also checks that the traced pass
   reproduces the untraced digests.
3. A directory holding only BENCHMARK.json and perfbench/ must make the
   benchmark exit non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

RUN = os.path.join("perfbench", "run.py")
EXPECTED = os.path.join("perfbench", "expected", "digests.txt")
WORK = ".perfbench"
WORKLOADS = ["paper-tables", "scaled-replay", "overcommit", "audit"]


def run(args, cwd=None):
    p = subprocess.run([sys.executable, RUN] + args, cwd=cwd,
                       capture_output=True, text=True, timeout=900)
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return p.returncode, result, p.stderr


def corrupted_digest():
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, "corrupt-digests.txt")
    done = False
    with open(EXPECTED) as src, open(path, "w") as dst:
        for line in src:
            f = line.split()
            if not done and f[:3] == ["42", "scaled-replay", "0"]:
                f[4] = "000000000000" if f[4] != "000000000000" else "111111111111"
                line = " ".join(f) + "\n"
                done = True
            dst.write(line)
    code, result, _ = run(["--workload", "scaled-replay", "--seed", "0", "--seconds", "1",
                           "--trace", "0", "--expected", path])
    ok = (code != 0 and result is not None and result["correct"] is False
          and result["failed"] > 0)
    print("corrupted digest: exit %d, result %s -> %s"
          % (code, result and {k: result[k] for k in ("correct", "attempted", "failed")},
             "PASS" if ok else "FAIL"))
    return ok


def held_out_seed():
    ok = True
    for w in WORKLOADS:
        code, result, err = run(["--workload", w, "--seed", "1", "--seconds", "1", "--trace", "1"])
        good = code == 0 and result is not None and result["correct"] and result["failed"] == 0
        print("held-out seed 43, traced %s: exit %d, %s -> %s"
              % (w, code, result and "%d cells" % result["attempted"], "PASS" if good else "FAIL"))
        if not good:
            sys.stderr.write(err)
        ok = ok and good
    return ok


def lonely_directory():
    d = os.path.join(WORK, "lonely")
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    shutil.copy("BENCHMARK.json", d)
    shutil.copytree("perfbench", os.path.join(d, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _ = run(["--workload", "audit", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=d)
    shutil.rmtree(d)
    ok = code != 0 and result is None
    print("benchmark files alone: exit %d, result %s -> %s"
          % (code, result, "PASS" if ok else "FAIL"))
    return ok


def main():
    results = [corrupted_digest(), held_out_seed(), lonely_directory()]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
