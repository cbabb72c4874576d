#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
                             [--expected FILE] [--record FILE]

Builds perfbench/perfbench.exe with dune (inside the checkout, shared
cache off), then runs it with the same arguments plus the machine
metadata it cannot find by itself (flambda, commit). The benchmark's
standard output is passed through; its last line is the JSON result.
Exits 2 without a result when the checkout or the build is missing.
"""

import argparse
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


def tool_output(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout if out.returncode == 0 else None


def flambda():
    for cmd in (["ocamlfind", "ocamlopt", "-config"], ["ocamlopt", "-config"]):
        out = tool_output(cmd)
        if out:
            for line in out.splitlines():
                if line.startswith("flambda:"):
                    return line.split(":", 1)[1].strip()
    return "unknown"


def commit():
    if os.path.isdir(".git"):
        out = tool_output(["git", "rev-parse", "HEAD"])
        if out:
            return out.strip()
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--expected")
    ap.add_argument("--record")
    args = ap.parse_args()

    for path in ("dune-project", "lib", "grids", os.path.join("perfbench", "dune")):
        if not os.path.exists(path):
            return fail("%s not found: run from the root of a UTLB checkout" % path)
    dune = shutil.which("dune")
    if dune is None:
        return fail("dune not found")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ".", "./perfbench/perfbench.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0 or not os.path.isfile(EXE):
        return fail("build failed")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--flambda", flambda(), "--commit", commit()]
    if args.expected:
        cmd += ["--expected", args.expected]
    if args.record:
        cmd += ["--record", args.record]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return fail("run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
