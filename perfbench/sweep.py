#!/usr/bin/env python3
"""Run the benchmark over several seeds and keep every result.

    python3 perfbench/sweep.py --out DIR [--workloads a,b] [--seeds 1-10]
                               [--traced-seeds 1] [--seconds 30]

Each run's result (the last line run.py prints) is saved as
DIR/<workload>.<seed>.json, traced runs as DIR/<workload>.trace.<seed>.json.
A run that exits non-zero or prints no result leaves DIR/<name>.error
instead (exit code and the end of its standard error), so the missing pair
stays visible.  The summary printed at the end gives, per workload and
metric, the median and the quartile spread as a share of the median, and
lists the runs that failed; compare.py takes two such directories.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402


def seed_list(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out += list(range(int(lo), int(hi) + 1))
        elif part:
            out.append(int(part))
    return out


def run_name(workload, seed, trace):
    return "%s.%s%d" % (workload, "trace." if trace else "", seed)


def load_dir(path, suffix="json"):
    """{(workload, traced): {seed: result}} of a sweep directory; with
    suffix "error", {(workload, traced): {seed: error text}} of its failed
    runs."""
    out = {}
    for name in sorted(os.listdir(path)):
        parts = name.split(".")
        if parts[-1] != suffix or len(parts) not in (3, 4):
            continue
        traced = len(parts) == 4 and parts[1] == "trace"
        with open(os.path.join(path, name)) as f:
            value = json.load(f) if suffix == "json" else f.read()
        out.setdefault((parts[0], traced), {})[int(parts[-2])] = value
    return out


def spread(values):
    """Quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else float("inf")


def summarize(results, errors):
    for (workload, traced), runs in sorted(errors.items()):
        print("%s%s: no result from seeds %s" % (workload, " (traced)" if traced else "",
                                                 sorted(runs)))
    for (workload, traced), runs in sorted(results.items()):
        if traced:
            continue
        print("%s (%d runs, correct: %s, failed/attempted: %s)" % (
            workload, len(runs), all(r["correct"] for r in runs.values()),
            sorted(set("%d/%d" % (r["failed"], r["attempted"]) for r in runs.values()))[:3]))
        metrics = next(iter(runs.values()))["metrics"]
        for m in metrics:
            vals = [r["metrics"][m]["value"] for r in runs.values()]
            print("  %-14s median %14.6g  spread %6.3f" % (m, statistics.median(vals), spread(vals)))


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--out", required=True)
    p.add_argument("--workloads", default=",".join(run.WORKLOADS))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--traced-seeds", default="")
    p.add_argument("--seconds", default="30")
    args = p.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    for workload in args.workloads.split(","):
        for trace, seeds in ((0, seed_list(args.seeds)), (1, seed_list(args.traced_seeds))):
            for seed in seeds:
                t0 = time.time()
                cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", args.seconds, "--trace", str(trace)]
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                      cwd=run.ROOT)
                lines = proc.stdout.decode().strip().splitlines()
                name = os.path.join(args.out, run_name(workload, seed, trace))
                for stale in (name + ".json", name + ".error"):
                    if os.path.exists(stale):
                        os.remove(stale)
                if proc.returncode != 0 or not lines:
                    print("%s seed %d trace %d: exit %d, no result" % (workload, seed, trace,
                                                                       proc.returncode))
                    with open(name + ".error", "w") as f:
                        f.write("exit %d\n" % proc.returncode)
                        f.write("\n".join(proc.stderr.decode().splitlines()[-20:]) + "\n")
                    continue
                with open(name + ".json", "w") as f:
                    f.write(lines[-1] + "\n")
                print("%s seed %d trace %d: done in %.1f s" % (workload, seed, trace, time.time() - t0),
                      flush=True)
    summarize(load_dir(args.out), load_dir(args.out, "error"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
