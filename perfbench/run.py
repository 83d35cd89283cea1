#!/usr/bin/env python3
"""The repository's benchmark: tuning and serving, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke        # all workloads, tiny budgets
    python3 perfbench/run.py --self-test    # every check rejects tampering

Run it from the repository root.  It builds the program and the benchmark
tool from source into .bench_build/ (or $CARGO_TARGET_DIR), works in
.bench_work/, and prints as its last line one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json; with --trace 1 a traced run reports the
per-layer ones, writes its spans as Chrome trace-event JSON and prints the
tracing overhead.  README.md in this directory explains every workload,
metric and check.
"""

import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
TOOL = os.path.join(BUILD, "perfbench_tool")
DAEMON = os.path.join(BUILD, "harl_serve")

# The load generator gets a CPU of its own and the daemon the rest, so the
# two never wait for each other's time slice (each process's affinity only;
# nothing of the machine is changed).
_CPUS = sorted(os.sched_getaffinity(0))
GEN_CPUS = set(_CPUS[-1:]) if len(_CPUS) > 1 else None
DAEMON_CPUS = set(_CPUS[:-1]) if len(_CPUS) > 1 else None


def pinned(cpus):
    """preexec_fn that pins the child (and every thread it starts) to `cpus`."""
    return (lambda: os.sched_setaffinity(0, cpus)) if cpus else None


# Each workload's configuration.  `tunes` are (network, policy, trials)
# triples, each tuned once per sub-seed (`subseeds` seeds derived from
# --seed): a tune workload reports medians over them, a serve workload
# serves the record logs they leave.  Many seeds per run keep one seed's
# luck (the greedy task selector can starve every task but one, which
# multiplies that tune's refit work) from moving a run's median.
WORKLOADS = {
    "tune-harl-bert": {
        "kind": "tune", "tunes": [("bert", "HARL", 400)], "subseeds": 8,
        "nets": ["bert"],
    },
    "tune-ansor-resnet50": {
        "kind": "tune", "tunes": [("resnet50", "Ansor", 600)], "subseeds": 50,
        "nets": ["resnet50"],
    },
    "serve-read-write": {
        "kind": "serve", "tunes": [("bert", "Ansor", 400), ("resnet50", "Ansor", 600)],
        "subseeds": 20,
        "nets": ["bert", "resnet50"],
        # tenant:network:policy:trials, submitted in this order when the
        # stream's last segment starts; seeds come from --seed.
        "jobs": ["A:bert:HARL:150", "B:resnet50:Ansor:600", "A:resnet50:Ansor:600",
                 "B:bert:HARL:150", "A:bert:Ansor:400", "B:resnet50:Ansor:800"],
    },
}
PROBE_JOBS = ["default:bert:Ansor:600"] * 5
SETUP_PROCESSES = 12   # extra fresh-process set-ups of a tune workload
STREAM_SHARE = 0.25    # of --seconds: how long the query stream is due to last
STREAM_SEGMENTS = 6    # segments of an untraced serve run's stream
DAEMON_STARTS = 5      # timed daemon starts of a serve workload, besides the last
# Calibration time (calibrate.hpp) that run.py's times are expressed at: what
# the kernel took on the machine the reference figures come from.
CAL_REF_S = 0.015
WARMUP_S = 0.5         # untimed query stream right after the daemon starts

SMOKE = {
    "tune-harl-bert": {"tunes": [("bert", "HARL", 120)], "subseeds": 1},
    "tune-ansor-resnet50": {"tunes": [("resnet50", "Ansor", 300)], "subseeds": 1},
    "serve-read-write": {"tunes": [("bert", "Ansor", 120), ("resnet50", "Ansor", 300)],
                         "subseeds": 1,
                         "jobs": ["A:bert:Ansor:120", "B:resnet50:Ansor:260"]},
}

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _BENCH = json.load(_f)
UNITS = {m["name"]: m["unit"] for m in _BENCH["end_to_end"] + _BENCH["per_layer"]}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    """A failure of the benchmark itself: it prints no result."""


# ------------------------------------------------------------------ build

def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + gen
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            raise BenchError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise BenchError("build failed")


# -------------------------------------------------------------- processes

def run_tool(args, cpus=None):
    """Runs the tool in a fresh process; returns (json, peak RSS in MB)."""
    proc = subprocess.Popen([TOOL] + args, stdout=subprocess.PIPE, preexec_fn=pinned(cpus))
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError("perfbench_tool %s exited %d" % (args[0], proc.returncode))
    return json.loads(out.decode().strip().splitlines()[-1]), usage.ru_maxrss / 1024.0


class Daemon:
    """A harl_serve primary in its own process, stopped by `stop`."""

    def __init__(self, state):
        self.state = state
        self.port_file = os.path.join(state, "port")
        if os.path.exists(self.port_file):
            os.remove(self.port_file)
        self.proc = None
        self.sock = None

    def start(self, first_key):
        """Starts the daemon and answers one query; returns the seconds from
        launch to that first answer (which includes hydrating the shard)."""
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [DAEMON, "--state-dir=" + self.state, "--port=0", "--max-concurrent=1", "--quiet",
             "--port-file=" + self.port_file], stdout=subprocess.DEVNULL,
            preexec_fn=pinned(DAEMON_CPUS))
        port = None
        while port is None:
            if self.proc.poll() is not None:
                raise BenchError("harl_serve exited at start")
            if time.perf_counter() - t0 > 30:
                raise BenchError("harl_serve did not publish its port")
            try:
                with open(self.port_file) as f:
                    port = int(f.read().strip())
            except (OSError, ValueError):
                time.sleep(0.0002)
        self.port = port
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.file = self.sock.makefile("rwb")
        reply = self.request({"v": 1, "type": "query", "network": first_key[0],
                              "task": first_key[1], "hw": "xeon"})
        seconds = time.perf_counter() - t0
        if not reply.get("ok") or reply.get("tier") != "L1":
            raise BenchError("first query was not answered from L1: %r" % reply)
        return seconds

    def request(self, msg):
        self.file.write((json.dumps(msg, separators=(",", ":")) + "\n").encode())
        self.file.flush()
        return json.loads(self.file.readline())

    def stop(self):
        """Drains the daemon; returns its peak RSS in MB."""
        if self.proc is None:
            return 0.0
        if self.sock is None:
            self.proc.kill()
        else:
            try:
                self.request({"v": 1, "type": "shutdown"})
            except (OSError, ValueError):
                self.proc.kill()
            self.file.close()
            self.sock.close()
        deadline = time.time() + 60
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid != 0:
                break
            if time.time() > deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.005)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc = None
        return usage.ru_maxrss / 1024.0



# ----------------------------------------------------------------- checks
# Every check reads the program's outputs (record logs, tool results, query
# replies) and recomputes what they must be from the inputs; none compares
# against a stored copy of earlier output.  Each returns a list of failure
# messages, empty when the check passes.

def read_log(path):
    with open(path) as f:
        return [line.rstrip("\n") for line in f if line.strip()]


def log_minima(lines):
    """Per (network, task): (time, line) of the best successful record,
    under the knowledge cache's order: time ascending, then the serialized
    record bytes."""
    best = {}
    for line in lines:
        rec = json.loads(line)
        if rec.get("fail") or not rec["ms"] > 0:
            continue
        key = (rec["net"], rec["task"])
        cand = (rec["ms"], line)
        if key not in best or cand < best[key]:
            best[key] = cand
    return best


def check_tune(out, lines, verify, budget):
    errs = []
    if out["trials_used"] != budget:
        errs.append("trials used %d != budget %d" % (out["trials_used"], budget))
    alloc = sum(t["trials"] for t in out["tasks"])
    if alloc != out["trials_used"]:
        errs.append("task allocations sum to %d, trials used %d" % (alloc, out["trials_used"]))
    minima = log_minima(lines)
    total = 0.0
    for t in out["tasks"]:
        m = minima.get((out["network"], t["name"]))
        if m is None or m[0] != t["best_ms"]:
            errs.append("task %s best %r != log minimum %r" % (t["name"], t["best_ms"], m and m[0]))
            continue
        total += t["weight"] * m[0]
    if total != out["best_ms"]:
        errs.append("sum of w*min = %r != best_ms %r" % (total, out["best_ms"]))
    if not verify["ok"]:
        bad = [t["name"] for t in verify["tasks"] if not (t.get("tiles_ok") and t.get("band_ok"))]
        errs.append("tile-product or re-simulation check failed for %s" % bad)
    return errs


def l2_answers(load):
    """The distinct (network, task, record) of the L2 answers a load run got."""
    return sorted(set((r["network"], r["task"], r["record"])
                      for r in load["replies"] + load["verify"] if r["tier"] == "L2"))


def transferred(answers):
    """Each L2 answer's record rebuilt for its query task through the
    cache's transfer path: {(network, task, record): tool result}."""
    path = os.path.join(WORK, "l2-answers.tsv")
    with open(path, "w") as f:
        f.writelines("\t".join(a) + "\n" for a in answers)
    out, _ = run_tool(["transfer", "--answers", path])
    return dict(zip(answers, out))


def check_traced(traced, untraced):
    """A traced tune must end at the untraced tune's best_ms, bit for bit."""
    if traced["best_bits"] != untraced["best_bits"]:
        return ["traced %s best_ms %s != untraced %s"
                % (traced["network"], traced["best_bits"], untraced["best_bits"])]
    return []


def check_serve(load, inproc, expected, read_write, transfers):
    """`expected`: per (network, task) the best (time, line) of the logs the
    answers must come from (for read_write: the logs after the last job).
    `transfers`: the L2 answers rebuilt from their records (`transferred`)."""
    errs = []
    ref = {(a["network"], a["task"]): a for a in inproc["answers"]}
    for a in inproc["answers"]:
        if a["tier"] in ("L1", "L2", "L3") and not a.get("tiles_ok"):
            errs.append("%s/%s: served schedule's tiles do not split the task's extents"
                        % (a["network"], a["task"]))
    l3_fp = {}
    last_est = {}
    for r in load["replies"]:
        key = (r["network"], r["task"])
        if r["tier"] == "L1":
            if read_write:
                if r["est"] < expected[key][0]:
                    errs.append("%s/%s: L1 answer beats every logged time" % key)
                k = (r["conn"], key)
                if k in last_est and r["est"] > last_est[k]:
                    errs.append("%s/%s: L1 est_time_ms rose on connection %d" % (key + (r["conn"],)))
                last_est[k] = r["est"]
            elif key not in expected or r["record"] != expected[key][1]:
                errs.append("%s/%s: L1 reply is not the log's best record" % key)
        elif r["tier"] == "L2":
            t = transfers.get((r["network"], r["task"], r["record"]))
            if not (t and t["rebuilt"] and t["tiles_ok"]):
                errs.append("%s/%s: L2 reply's record does not transfer to the query extents" % key)
            elif t["fp"] != r["fp"]:
                errs.append("%s/%s: L2 reply schedule is not its record's transferred one" % key)
            elif not read_write and r["fp"] != ref[key]["fp"]:
                errs.append("%s/%s: L2 reply schedule differs from the in-process answer" % key)
        elif r["tier"] == "L3":
            if l3_fp.setdefault(key, r["fp"]) != r["fp"]:
                errs.append("%s/%s: L3 key returned two schedules" % key)
    for v in load["verify"]:
        key = (v["network"], v["task"])
        if v["tier"] != ref[key]["tier"]:
            errs.append("%s/%s: daemon tier %s != in-process tier %s"
                        % (key + (v["tier"], ref[key]["tier"])))
        elif v["tier"] == "L1" and v["record"] != expected[key][1]:
            errs.append("%s/%s: final L1 answer is not the log's best record" % key)
        elif v["tier"] in ("L2", "L3") and v["fp"] != ref[key]["fp"]:
            errs.append("%s/%s: final %s answer differs from the in-process answer"
                        % (key + (v["tier"],)))
        if v["tier"] == "L3" and l3_fp.setdefault(key, v["fp"]) != v["fp"]:
            errs.append("%s/%s: L3 key returned two schedules" % key)
    for j in load["jobs"]:
        if not j["ok"] or j["trials_used"] != j["trials"]:
            errs.append("job %s (%s %s) ended %s with %s trials"
                        % (j["job"], j["network"], j["policy"], j["state"], j["trials_used"]))
    if load["stream"]["failed"]:
        errs.append("%d queries failed" % load["stream"]["failed"])
    return errs


# -------------------------------------------------------------- workloads

def has_writes(load):
    """Whether the workload's own jobs ran during this load's stream (probe
    jobs run after it)."""
    return any(not j["probe"] for j in load["jobs"])


def subseed(seed, i):
    return seed * 100 + i + 1


def log_name(network, tag):
    return "%s_b1-%s.jsonl" % (network, tag)


def tune_once(shard, network, policy, trials, seed, tag, trace_out=None):
    path = os.path.join(shard, log_name(network, tag))
    args = ["tune", "--network", network, "--policy", policy, "--trials", str(trials),
            "--seed", str(seed), "--log", path]
    if trace_out:
        args += ["--trace-out", trace_out]
    out, rss = run_tool(args)
    return out, rss, path


def checked_tune(ctx, shard, network, policy, trials, seed, tag):
    out, rss, path = tune_once(shard, network, policy, trials, seed, tag)
    verify, _ = run_tool(["verify", "--network", network, "--logs", path])
    ctx["errors"] += check_tune(out, read_log(path), verify, trials)
    ctx["trials"] += out["trials_used"]
    ctx["failed_measurements"] += out["failed_measurements"]
    return out, rss, path


def traced_tunes(ctx, tunes):
    """The traced run's tune layer: each tune once more with the delegating
    wrappers, into a scratch log; best_ms must match the untraced run's
    bit for bit."""
    layers, overhead = [], []
    for i, ((network, policy, trials), ref) in enumerate(zip(tunes, ctx["untraced"])):
        trace_out = os.path.join(WORK, "trace-tune-%d.json" % i)
        out, _, path = tune_once(WORK, network, policy, trials, ref["seed"], "traced", trace_out)
        ctx["errors"] += check_traced(out, ref)
        out["layers"]["log_bytes"] = os.path.getsize(path)
        out["layers"]["policy"] = policy
        out["layers"]["trials_used"] = out["trials_used"]
        out["layers"]["cache_hits"] = out["cache_hits"]
        layers.append(out["layers"])
        overhead.append(out["tune_s"] - ref["tune_s"])
        ctx["trace_files"].append(trace_out)
    ctx["tune_layers"] = layers
    ctx["tune_overhead_s"] = sum(overhead)


def serve_phase(ctx, cfg, state, stream_s, qps_step_s, qps_bisect, trace, probe_jobs,
                setup_starts, segments):
    """Daemon phase: timed starts, the open-loop stream in `segments` equal
    back-to-back segments on one daemon (the workload's jobs in the last),
    qps search, probe jobs, checks."""
    shard = os.path.join(state, "xeon")
    first_key = ("%s_b1" % cfg["nets"][0], ctx["first_task"])
    starts = []

    def timed_start(daemon):
        cal = run_tool(["calibrate"])[0]["cal_s"]
        seconds = daemon.start(first_key)
        cal = 0.5 * (cal + run_tool(["calibrate"])[0]["cal_s"])
        starts.append(at_ref_speed(seconds, cal))

    for _ in range(setup_starts):
        d = Daemon(state)
        try:
            timed_start(d)
        finally:
            d.stop()
    daemon = Daemon(state)
    loads = []
    try:
        timed_start(daemon)
        # An untimed warm-up stream: the first queries a daemon answers run
        # slower (the just-started process's caches and pages are cold).
        warm = run_tool(["load", "--port", str(daemon.port), "--nets", ",".join(cfg["nets"]),
                         "--seed", str(ctx["seed"] + 500), "--seconds", str(WARMUP_S),
                         "--qps-step-s", "0", "--qps-bisect", "0"], GEN_CPUS)[0]
        warm["warmup"] = True
        loads.append(warm)
        for k in range(segments):
            last = k == segments - 1
            args = ["load", "--port", str(daemon.port), "--nets", ",".join(cfg["nets"]),
                    "--seed", str(ctx["seed"] + 1000 * k), "--seconds", str(stream_s / segments),
                    "--qps-step-s", str(qps_step_s if last else 0), "--qps-bisect", str(qps_bisect)]
            if cfg.get("jobs") and last:
                args += ["--jobs", ",".join(cfg["jobs"])]
            if probe_jobs and last:
                args += ["--probe-jobs", ",".join(probe_jobs)]
            if trace:
                trace_out = os.path.join(WORK, "trace-load-%d.json" % k)
                args += ["--trace", "--trace-out", trace_out]
                ctx["trace_files"].append(trace_out)
            loads.append(run_tool(args, GEN_CPUS)[0])
    finally:
        rss = daemon.stop()

    # A segment without jobs was answered from the logs the daemon started
    # on; the segment with the workload's jobs from those and the jobs'
    # logs.  Probe jobs ran after the last checked query.
    job_logs = {log_name(j["network"], "job%d" % j["job"]): j["probe"]
                for load in loads for j in load["jobs"]}
    names = sorted(n for n in os.listdir(shard) if n.endswith(".jsonl"))
    transfers = transferred(sorted(set(a for load in loads for a in l2_answers(load))))
    served = {}  # writes -> (in-process answers, per-key log minima)
    for load in loads:
        writes = has_writes(load)
        if writes not in served:
            logs = [os.path.join(shard, n) for n in names
                    if n not in job_logs or (writes and not job_logs[n])]
            inproc_dir = os.path.join(WORK, "inproc-%d" % writes)
            os.makedirs(inproc_dir)
            for p in logs:
                shutil.copy(p, inproc_dir)
            inproc, _ = run_tool(["inproc", "--shard", inproc_dir, "--nets", ",".join(cfg["nets"]),
                                  "--publish", os.path.join(WORK, "published.cache.json")])
            served[writes] = (inproc, log_minima([line for p in logs for line in read_log(p)]))
        inproc, minima = served[writes]
        ctx["errors"] += check_serve(load, inproc, minima, writes, transfers)
    ctx["loads"], ctx["load"], ctx["inproc"] = loads, loads[-1], inproc
    ctx["daemon_starts"], ctx["daemon_rss"] = starts, rss


def at_ref_speed(seconds, cal_s):
    """A time measured beside a calibration of `cal_s` seconds, expressed at
    the reference speed (README, Calibrated times)."""
    return seconds * CAL_REF_S / cal_s


def run_workload(name, seed, seconds, trace, smoke=False):
    cfg = dict(WORKLOADS[name])
    if smoke:
        cfg.update(SMOKE[name])
    if os.path.isdir(WORK):
        shutil.rmtree(WORK)
    state = os.path.join(WORK, "state")
    shard = os.path.join(state, "xeon")
    os.makedirs(shard)
    ctx = {"seed": seed, "errors": [], "trials": 0, "failed_measurements": 0,
           "trace_files": [], "untraced": [], "loads": []}
    setups, tune_rss = [], []

    # Tune phase: every (network, policy, trials) triple once per sub-seed
    # (a traced run: the first sub-seed only), each in a fresh process.
    for i in range(1 if trace else cfg["subseeds"]):
        for network, policy, trials in cfg["tunes"]:
            out, rss, _ = checked_tune(ctx, shard, network, policy, trials, subseed(seed, i),
                                       "s%d" % i)
            ctx["untraced"].append(out)
            setups.append(at_ref_speed(out["setup_s"], out["cal_s"]))
            tune_rss.append(rss)
    if cfg["kind"] == "tune" and not trace:
        network, policy, _ = cfg["tunes"][0]
        for _ in range(2 if smoke else SETUP_PROCESSES):
            out, _ = run_tool(["setup", "--network", network, "--policy", policy,
                               "--seed", str(seed)])
            setups.append(at_ref_speed(out["setup_s"], out["cal_s"]))
    ctx["first_task"] = ctx["untraced"][0]["tasks"][0]["name"]
    if trace:
        traced_tunes(ctx, cfg["tunes"])

    # Daemon phase: a serve workload's runs, and every traced run.  An
    # untraced serve workload streams in segments, its jobs in the last.
    if cfg["kind"] == "serve" or trace:
        if smoke:
            stream_s, qps_step, bisect = 1.0, 0.1, 2
        else:
            stream_s, qps_step, bisect = STREAM_SHARE * seconds, 0.4, 5
        if not trace:
            qps_step = 0  # query.qps is a per-layer metric: traced runs only
        # Probe jobs feed the per-layer job metrics of a workload without
        # jobs of its own, so only a traced run sends them.
        probes = PROBE_JOBS if trace and not cfg.get("jobs") else []
        starts = 0 if trace else (1 if smoke else DAEMON_STARTS)
        segments = 1 if trace else STREAM_SEGMENTS
        serve_phase(ctx, cfg, state, stream_s, qps_step, bisect, trace,
                    probes[:1] if smoke else probes, starts, segments)

    # Per seed, the time of its tunes; the median over the seeds, since a
    # starved selector makes some seeds' tunes several times longer.
    per_seed = len(cfg["tunes"])
    tuned = [sum(at_ref_speed(o["tune_s"], o["cal_s"]) for o in ctx["untraced"][i:i + per_seed])
             for i in range(0, len(ctx["untraced"]), per_seed)]
    raw = [sum(o["tune_s"] for o in ctx["untraced"][i:i + per_seed])
           for i in range(0, len(ctx["untraced"]), per_seed)]
    if cfg["kind"] == "tune":
        # Σ w_n · (median over the seeds of task n's best): per task, the
        # typical result; one seed whose selector starved most tasks moves
        # only the tasks it starved, and only past the median.
        first = ctx["untraced"][0]["tasks"]
        tuned_best = 0.0
        for n, t in enumerate(first):
            tuned_best += t["weight"] * statistics.median(
                o["tasks"][n]["best_ms"] for o in ctx["untraced"])
    else:
        # Served quality of the serve workloads: the estimate a client
        # computes from the daemon's final L1 answers for every task of the
        # first network.
        est = {(v["network"], v["task"]): v["est"] for v in ctx["load"]["verify"]}
        net = ctx["untraced"][0]
        tuned_best = 0.0
        for t in net["tasks"]:
            tuned_best += t["weight"] * est[(net["network"], t["name"])]

    loads = ctx["loads"]
    total = lambda key: sum(l["stream"][key] for l in loads)
    verified = sum(len(l["verify"]) for l in loads)
    jobs = ctx["load"]["jobs"] if loads else []
    attempted = total("sent") + verified + ctx["trials"] + len(jobs)
    failed = total("failed") + ctx["failed_measurements"] + sum(1 for j in jobs if not j["ok"])
    print("queries: sent %d, answered %d, failed %d (+%d verification queries)"
          % (total("sent"), total("answered"), total("failed"), verified))
    print("trials: %d, failed measurements %d" % (ctx["trials"], ctx["failed_measurements"]))
    print("jobs: admitted %d, done %d" % (len(jobs), sum(1 for j in jobs if j["ok"])))
    cals = [o["cal_s"] for o in ctx["untraced"]]
    log("calibration: median %.5f s (reference %.5f s); tune_s raw median %.4f s"
        % (statistics.median(cals), CAL_REF_S, statistics.median(raw)))
    if loads:
        stream, load = ctx["load"]["stream"], ctx["load"]
        log("stream segments' p50: %s us"
            % ["%.0f%s" % (l["stream"]["lat_p50_us"], " (warm-up)" if l.get("warmup")
                           else " (jobs)" if has_writes(l) else "") for l in loads])
        log("last segment: p50 %.0f us, windowed p99 %.0f us (whole-stream %.0f), sender late "
            "p99 %.0f us, hop p50/p99 %.0f/%.0f us, serve p50/p99 %.1f/%.1f us; qps search %s"
            % (stream["lat_p50_us"], stream["lat_p99_us"], stream["lat_p99_all_us"],
               stream["late_p99_us"], stream["hop_p50_us"], stream["hop_p99_us"],
               stream["serve_p50_us"], stream["serve_p99_us"],
               [(round(st["rate"]), st["pass"]) for st in load["qps"].get("steps", [])]))

    if not trace:
        metrics = {
            "setup_s": statistics.median(setups if cfg["kind"] == "tune"
                                         else ctx["daemon_starts"]),
            "tune_s": statistics.median(tuned),
            "best_ms": tuned_best,
            "peak_rss_mb": statistics.median(tune_rss) if cfg["kind"] == "tune"
            else ctx["daemon_rss"],
        }
    else:
        metrics = layer_metrics(ctx)
        print("tracing overhead: tune_s %+.4f s (traced - untraced), query.p50_us %+.2f us "
              "(traced half - untraced half of the stream)"
              % (ctx["tune_overhead_s"], stream["traced_p50_us"] - stream["untraced_p50_us"]))
        merged = {"traceEvents": []}
        for path in ctx["trace_files"]:
            with open(path) as f:
                merged["traceEvents"] += json.load(f)["traceEvents"]
        trace_path = os.path.join(WORK, "trace.json")
        with open(trace_path, "w") as f:
            json.dump(merged, f)
        print("spans: %d written to %s" % (len(merged["traceEvents"]), trace_path))

    for e in ctx["errors"]:
        log("CHECK FAILED: " + e)
    result = {
        "correct": not ctx["errors"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": UNITS[k]} for k, v in metrics.items()},
    }
    return result, ctx


def layer_metrics(ctx):
    """Per-layer metrics of a traced run, from the traced tunes, the load
    generator and the in-process cache calls."""
    L = ctx["tune_layers"]
    tot = lambda k: sum(l[k] for l in L)
    rtot = lambda k: sum(l["replay"][k] for l in L)
    rounds = tot("rounds")
    refit_ms = rtot("refit_ms_total")
    simulate_ms = rtot("simulate_us_total") / 1e3
    policy_self_ms = tot("tune_round_ms_total") - refit_ms - simulate_ms
    ppo = L[0]["ppo"]
    # PPO calls the HARL policy made: one act per track step (the adaptive
    # stopping visit budget per round), one train per `train_interval` steps.
    rl_ms = sum(l["ppo"]["act_us"] / 1e3 * l["ppo"]["visits_per_round"] * l["rounds"]
                + l["ppo"]["train_ms"] * (l["harl_steps"] // l["ppo"]["train_interval"])
                for l in L if l["policy"] == "HARL")
    load, inproc = ctx["load"], ctx["inproc"]
    s = load["stream"]
    tiers = s["tiers"]
    jobs = load["jobs"]
    mean_of = lambda xs: statistics.mean(xs) if xs else 0.0
    stats0, stats1 = load["stats"][0], load["stats"][-1]
    m = {
        "search.select_us": tot("select_us_total") / max(1, tot("selects")),
        "search.tune_round_ms": tot("tune_round_ms_total") / rounds,
        "search.rounds": rounds,
        "search.new_best_ratio": tot("new_bests") / rounds,
        "search.policy_self_ms": policy_self_ms / rounds,
        "rl.act_us": ppo["act_us"],
        "rl.train_ms": ppo["train_ms"],
        "rl.policy_share": rl_ms / policy_self_ms,
        "cost.refit_ms": refit_ms / max(1, rtot("refits")),
        "cost.refit_max_ms": max(l["replay"]["refit_max_ms"] for l in L),
        "cost.samples_max": max(l["replay"]["samples_max"] for l in L),
        "cost.refit_share": refit_ms / tot("tune_round_ms_total"),
        "cost.predict_us": rtot("predict_us_total") / rtot("rows"),
        "features.extract_us": rtot("extract_us_total") / rtot("rows"),
        "hwsim.simulate_us": rtot("simulate_us_total") / rtot("rows"),
        "hwsim.trials": tot("trials_used"),
        "hwsim.cache_hits": tot("cache_hits"),
        "io.log_us": tot("log_us_total") / tot("log_calls"),
        "io.log_bytes": tot("log_bytes"),
        "serve.hydrate_ms": inproc["hydrate_ms"],
        "serve.l1_us": inproc["l1_us"],
        "serve.l2_us": inproc["l2_us"],
        "serve.l3_us": inproc["l3_us"],
        "serve.serve_us_p50": s["serve_p50_us"],
        "serve.serve_us_p99": s["serve_p99_us"],
        "serve.l1": tiers.get("L1", 0),
        "serve.l2": tiers.get("L2", 0),
        "serve.l3": tiers.get("L3", 0),
        "serve.publish_ms": inproc["publish_ms"],
        "serve.generations": s["generations"],
        "server.hop_us_p50": s["hop_p50_us"],
        "server.hop_us_p99": s["hop_p99_us"],
        "server.hop_share": s["hop_p50_us"] / s["lat_p50_us"],
        "server.encode_us": s["encode_us"],
        "server.decode_us": s["decode_us"],
        "server.job_s": mean_of([j["job_s"] for j in jobs]),
        "server.queue_ms": mean_of([j["queue_ms"] for j in jobs if j["queue_ms"] is not None]),
        "server.round_ms": mean_of([j["round_gap_ms"] for j in jobs
                                    if j["round_gap_ms"] is not None]),
        "server.refreshes": stats1["refreshes"] - stats0["refreshes"],
        "server.invalidations": stats1["invalidations"] - stats0["invalidations"],
        "gen.late_us_p99": s["late_p99_us"],
        "query.p50_us": s["lat_p50_us"],
        "query.p99_us": s["lat_p99_us"],
        "query.qps": load["qps"]["result"],
    }
    return m


# ------------------------------------------------------------------- main

def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="all workloads, tiny budgets")
    p.add_argument("--self-test", action="store_true",
                   help="show that every check rejects a tampered output")
    args = p.parse_args(argv)
    # A terminated run still stops its daemon (the finally blocks run).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        build()
        if args.self_test:
            import selftest
            return selftest.main(sys.modules[__name__])
        if args.smoke:
            ok = True
            for name in WORKLOADS:
                for trace in (0, 1):
                    t0 = time.perf_counter()
                    res, _ = run_workload(name, args.seed, args.seconds, trace, smoke=True)
                    ok = ok and res["correct"]
                    log("smoke %s trace=%d: correct=%s in %.1f s"
                        % (name, trace, res["correct"], time.perf_counter() - t0))
            print(json.dumps({"smoke": "pass" if ok else "fail"}))
            return 0 if ok else 1
        if not args.workload:
            p.error("--workload is required")
        result, _ = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as e:
        log("perfbench: " + str(e))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
