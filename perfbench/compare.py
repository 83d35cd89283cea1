#!/usr/bin/env python3
"""Compare two sets of benchmark runs (a parent and a change).

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Both directories come from sweep.py.  For each workload and end-to-end
metric it prints both sides' medians and quartiles, the share of seed-paired
runs the change won (ties count for neither side) and a verdict:

  gain        the change won at least 9 of 10 pairs and the medians differ
              by more than the parent's own quartile spread
  no worse    the change's median is within the metric's bound of the
              parent's, and the parent's spread is within the bound too
  worse       the change's median is worse than the bound allows
  unresolved  the spread between runs is wider than the bound, and not
              every run of the change beats every run of the parent

A workload gets no performance verdict when a run on either side reports
`correct: false`: it is marked FAILED CORRECTNESS instead.  The comparison
also names seeds that left no result (sweep.py's .error files), seeds run
on one side only, and a share of failed operations that differs between
the sides.

Then it prints per-layer deltas between the medians of the two sides'
traced runs.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from sweep import load_dir, spread  # noqa: E402


def verdict(parent, change, better, bound):
    sign = 1 if better == "lower" else -1
    pairs = [(parent[s], change[s]) for s in sorted(set(parent) & set(change))]
    wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
    won = wins / len(pairs) if pairs else 0.0
    pv, cv = list(parent.values()), list(change.values())
    pm, cm = statistics.median(pv), statistics.median(cv)
    p_spread = spread(pv)
    worse_by = sign * (cm - pm) / pm if pm else 0.0
    if won >= 0.9 and abs(cm - pm) > p_spread * pm and worse_by < 0:
        v = "gain"
    elif p_spread > bound and not all(sign * (c - p) < 0 for c in cv for p in pv):
        v = "unresolved"
    elif worse_by > bound:
        v = "worse"
    else:
        v = "no worse"
    return pm, cm, won, v


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    parent, change = load_dir(argv[0]), load_dir(argv[1])
    errors = (load_dir(argv[0], "error"), load_dir(argv[1], "error"))
    workloads = [w["name"] for w in bench["workloads"]]
    print("%-20s %-13s %12s %25s %12s %25s %5s  %s" % (
        "workload", "metric", "parent", "(q1..q3)", "change", "(q1..q3)", "won", "verdict"))
    for w in workloads:
        p_runs, c_runs = parent.get((w, False), {}), change.get((w, False), {})
        for side, errs in zip(("parent", "change"), errors):
            for traced, seeds in sorted(errs.items()):
                if traced[0] == w:
                    print("%-20s %s%s: no result from seeds %s" % (
                        w, side, " (traced)" if traced[1] else "", sorted(seeds)))
        only_p, only_c = sorted(set(p_runs) - set(c_runs)), sorted(set(c_runs) - set(p_runs))
        if only_p or only_c:
            print("%-20s seed sets differ: parent only %s, change only %s" % (w, only_p, only_c))
        wrong = [(side, sorted(s for s, r in runs.items() if not r["correct"]))
                 for side, runs in (("parent", p_runs), ("change", c_runs))]
        if any(seeds for _, seeds in wrong):
            print("%-20s FAILED CORRECTNESS (%s): no performance verdict" % (
                w, ", ".join("%s seeds %s" % (side, seeds) for side, seeds in wrong if seeds)))
            continue
        if not p_runs or not c_runs:
            print("%-20s (missing runs on one side)" % w)
            continue
        for m in bench["end_to_end"]:
            pv = {s: r["metrics"][m["name"]]["value"] for s, r in p_runs.items()}
            cv = {s: r["metrics"][m["name"]]["value"] for s, r in c_runs.items()}
            pm, cm, won, v = verdict(pv, cv, m["better"], m["bound"])
            pq, cq = quartiles(list(pv.values())), quartiles(list(cv.values()))
            print("%-20s %-13s %12.5g %25s %12.5g %25s %4.0f%%  %s" % (
                w, m["name"], pm, "(%.5g..%.5g)" % pq, cm, "(%.5g..%.5g)" % cq, 100 * won, v))
        shares = [sorted(set(r["failed"] / r["attempted"] for r in runs.values()))
                  for runs in (p_runs, c_runs)]
        if shares[0] != shares[1] or any(shares[1]):
            print("%-20s share of failed operations: parent %s, change %s" % (
                w, ["%.6f" % x for x in shares[0]], ["%.6f" % x for x in shares[1]]))
    print()
    print("per-layer deltas (medians of the traced runs)")
    for w in workloads:
        p_runs, c_runs = parent.get((w, True), {}), change.get((w, True), {})
        if not p_runs or not c_runs:
            continue
        for m in bench["per_layer"]:
            name = m["name"]
            pv = [r["metrics"][name]["value"] for r in p_runs.values() if name in r["metrics"]]
            cv = [r["metrics"][name]["value"] for r in c_runs.values() if name in r["metrics"]]
            if not pv or not cv:
                continue
            pm, cm = statistics.median(pv), statistics.median(cv)
            rel = "%+7.1f%%" % (100 * (cm - pm) / pm) if pm else "    n/a"
            print("%-20s %-24s %12.5g -> %12.5g %s %s" % (
                w, name, pm, cm, spec[name]["unit"], rel))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
