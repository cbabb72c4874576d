#!/usr/bin/env python3
"""Summarise benchmark runs by median and quartiles, never best-of-N.

    python3 perfbench/compare.py RUNS            # spread of one set
    python3 perfbench/compare.py PARENT CHILD    # child against parent

A set is a directory of *.out files, each the standard output of one
run of perfbench/run.py (perfbench/collect.py writes them). For each
workload and metric the summary gives the median, the first and third
quartiles (statistics.quantiles, n=4) and the spread, (Q3 - Q1) /
median. The comparison marks a change whose medians differ by less
than the parent's own quartile distance with "~": it is inside the
parent's noise and is no speed-up or slow-down. Metrics missing from
either side are skipped. BENCH_6..10.json are best-of-N warm replay
rates from an older harness and cannot be compared with these sets.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def directions():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    better = {m["name"]: m.get("better") for m in spec["end_to_end"] + spec["per_layer"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    return better, bound


def load(directory):
    """{(workload, trace): {metric: [values]}} plus failures seen."""
    sets, failures = {}, []
    for path in sorted(glob.glob(os.path.join(directory, "*.out"))):
        with open(path) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        meta = next((json.loads(l[len("# meta "):]) for l in lines
                     if l.startswith("# meta ")), None)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            failures.append(path)
            continue
        if meta is None or not result.get("correct"):
            failures.append(path)
            continue
        traced = "runner.cells" in result["metrics"]
        key = (meta["workload"], 1 if traced else 0)
        for name, m in result["metrics"].items():
            sets.setdefault(key, {}).setdefault(name, []).append(m["value"])
    return sets, failures


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else float("nan")
    return med, q1, q3, spread


def show_one(sets, bound):
    for (workload, traced), metrics in sorted(sets.items()):
        print("%s%s" % (workload, " (traced)" if traced else ""))
        for name, values in metrics.items():
            med, q1, q3, spread = summary(values)
            b = bound.get(name)
            flag = ""
            if b is not None and name != "setup_s":
                flag = "ok" if spread <= b / 3 else ("within bound" if spread <= b else "TOO WIDE")
            print("  %-34s n=%-2d median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.3f %s"
                  % (name, len(values), med, q1, q3, spread, flag))


def show_two(parent, child, better, bound):
    for key in sorted(set(parent) & set(child)):
        workload, traced = key
        print("%s%s" % (workload, " (traced)" if traced else ""))
        for name, pvals in parent[key].items():
            cvals = child[key].get(name)
            if not cvals:
                continue
            pm, pq1, pq3, _ = summary(pvals)
            cm, cq1, cq3, _ = summary(cvals)
            delta = (cm - pm) / abs(pm) if pm else float("nan")
            if abs(cm - pm) <= pq3 - pq1:
                verdict = "~"
            elif better.get(name) in ("lower", "higher"):
                improved = (cm < pm) == (better[name] == "lower")
                verdict = "better" if improved else "worse"
                if not improved and name in bound and delta * (1 if better[name] == "lower" else -1) > bound[name]:
                    verdict = "WORSE beyond bound %.2f" % bound[name]
            else:
                verdict = "moved"
            print("  %-34s parent %-12.6g [%-10.5g %-10.5g] child %-12.6g [%-10.5g %-10.5g] %+7.2f%% %s"
                  % (name, pm, pq1, pq3, cm, cq1, cq3, 100 * delta, verdict))


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    better, bound = directions()
    loaded = [load(d) for d in argv[1:]]
    for (_, failures), d in zip(loaded, argv[1:]):
        for path in failures:
            print("%s: failed or incorrect run %s" % (d, path))
    if len(loaded) == 1:
        show_one(loaded[0][0], bound)
    else:
        show_two(loaded[0][0], loaded[1][0], better, bound)
    return 1 if any(f for _, f in loaded) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
