"""Self-test of the benchmark's correctness checks (run.py --self-test).

Runs one small tune and one small serve scenario, confirms that every check
passes on the real outputs, then tampers with one output at a time and
confirms that the check responsible rejects it.
"""

import copy
import json
import math
import os
import shutil


def tamper_log(src, dst, edit):
    """Copies a record log, applying `edit` to the best record's JSON."""
    lines = [line for line in open(src).read().splitlines() if line]
    best = min(range(len(lines)), key=lambda i: json.loads(lines[i])["ms"])
    rec = json.loads(lines[best])
    edit(rec)
    lines[best] = json.dumps(rec, separators=(",", ":"))
    with open(dst, "w") as f:
        f.write("\n".join(lines) + "\n")


def main(run):
    cases = []

    def expect(name, errors, should_fail, because=""):
        """`because`: text the rejection must contain, so the case shows the
        check it names rejecting the output, not another one."""
        ok = bool(errors) == should_fail and (not because or any(because in e for e in errors))
        cases.append(ok)
        run.log("%-58s %s%s" % (name, "ok" if ok else "WRONG",
                                ("  (" + errors[0] + ")") if errors and not ok else ""))

    # ---- tune checks --------------------------------------------------
    run.log("tune checks:")
    _, ctx = run.run_workload("tune-harl-bert", 7, 5, 0, smoke=True)
    out = ctx["untraced"][0]
    budget = out["trials_used"]
    path = os.path.join(run.WORK, "state", "xeon", run.log_name("bert", "s0"))
    lines = run.read_log(path)
    verify, _ = run.run_tool(["verify", "--network", "bert", "--logs", path])
    expect("untampered tune passes", run.check_tune(out, lines, verify, budget), False)

    expect("traced tune with the untraced best passes", run.check_traced(out, out), False)
    t = copy.deepcopy(out)
    t["best_bits"] = "%016x" % (int(t["best_bits"], 16) ^ 1)
    expect("traced best_ms one bit off the untraced one is rejected", run.check_traced(t, out),
           True, "traced")
    t = copy.deepcopy(out)
    t["best_ms"] = math.nextafter(t["best_ms"], math.inf)
    expect("best_ms one ulp high is rejected", run.check_tune(t, lines, verify, budget), True)
    t = copy.deepcopy(out)
    t["trials_used"] += 10
    expect("trials used != budget is rejected", run.check_tune(t, lines, verify, budget), True)
    t = copy.deepcopy(out)
    t["tasks"][0]["trials"] += 10
    expect("allocations not summing to trials is rejected",
           run.check_tune(t, lines, verify, budget), True)
    t = copy.deepcopy(out)
    t["tasks"][1]["best_ms"] = math.nextafter(t["tasks"][1]["best_ms"], 0)
    expect("task best != log minimum is rejected", run.check_tune(t, lines, verify, budget), True)

    bad = os.path.join(run.WORK, "tampered.jsonl")

    def double_a_tile(rec):
        rec["stages"][0]["t"][0][0] *= 2

    tamper_log(path, bad, double_a_tile)
    v, _ = run.run_tool(["verify", "--network", "bert", "--logs", bad])
    expect("best schedule whose tiles miss an extent is rejected",
           run.check_tune(out, lines, v, budget), True)

    def faster_than_simulated(rec):
        rec["ms"] *= 0.8

    tamper_log(path, bad, faster_than_simulated)
    v, _ = run.run_tool(["verify", "--network", "bert", "--logs", bad])
    expect("best time outside the noise band is rejected", run.check_tune(out, lines, v, budget),
           True)

    # ---- serve checks -------------------------------------------------
    run.log("serve checks:")
    # A traced tune workload: a read-only stream, then a probe job.
    _, ctx = run.run_workload("tune-ansor-resnet50", 7, 5, 1, smoke=True)
    load, inproc = ctx["load"], ctx["inproc"]
    shard = os.path.join(run.WORK, "state", "xeon")
    probe_logs = set(run.log_name(j["network"], "job%d" % j["job"])
                     for j in load["jobs"] if j["probe"])
    lines = [line for n in sorted(os.listdir(shard))
             if n.endswith(".jsonl") and n not in probe_logs
             for line in run.read_log(os.path.join(shard, n))]
    expected = run.log_minima(lines)
    tr = run.transferred(run.l2_answers(load))

    def check(load, read_write, inproc=inproc, transfers=tr):
        return run.check_serve(load, inproc, expected, read_write, transfers)

    expect("untampered read-only stream passes", check(load, False), False)
    expect("untampered replies pass the read-write checks", check(load, True), False)

    def first(items, tier):
        return next(i for i, r in enumerate(items) if r["tier"] == tier)

    t = copy.deepcopy(load)
    r = t["replies"][first(t["replies"], "L1")]
    r["record"] = r["record"].replace('"cached":false', '"cached":falsf', 1)
    expect("L1 reply record with one byte changed is rejected",
           check(t, False), True)
    t = copy.deepcopy(load)
    t["replies"][first(t["replies"], "L2")]["fp"] += 1
    expect("L2 reply with another schedule is rejected",
           check(t, False), True)
    expect("L2 reply that is not its record's transfer is rejected under writes",
           check(t, True), True, "transferred")
    t = copy.deepcopy(load)
    r = t["replies"][first(t["replies"], "L2")]
    rec = json.loads(r["record"])
    rec["stages"][0]["unr"] = 0 if rec["stages"][0]["unr"] else 1
    r["record"] = json.dumps(rec, separators=(",", ":"))
    expect("L2 reply whose record transfers to another schedule is rejected under writes",
           check(t, True, transfers=run.transferred(run.l2_answers(t))), True, "transfer")
    t = copy.deepcopy(inproc)
    t["answers"][first(t["answers"], "L2")]["tiles_ok"] = False
    expect("L2 schedule whose tiles miss the query extents is rejected",
           check(load, False, inproc=t), True)
    t = copy.deepcopy(load)
    i = first(t["replies"], "L3")
    other = copy.deepcopy(t["replies"][i])
    other["fp"] += 1
    t["replies"].append(other)
    expect("L3 key answered with two schedules is rejected",
           check(t, False), True)
    t = copy.deepcopy(load)
    i = first(t["replies"], "L1")
    later = copy.deepcopy(t["replies"][i])
    later["est"] = math.nextafter(later["est"], math.inf)
    t["replies"].append(later)
    expect("L1 est_time_ms rising along a connection is rejected",
           check(t, True), True)
    t = copy.deepcopy(load)
    r = t["replies"][first(t["replies"], "L1")]
    r["est"] = math.nextafter(expected[(r["network"], r["task"])][0], 0)
    expect("L1 answer below every logged time is rejected under writes",
           check(t, True), True, "beats every logged time")
    t = copy.deepcopy(load)
    v = t["verify"][first(t["verify"], "L2")]
    v["tier"] = "L3"
    expect("final answer from another tier than in process is rejected",
           check(t, False), True, "in-process tier")
    t = copy.deepcopy(load)
    v = t["verify"][first(t["verify"], "L1")]
    v["record"] = v["record"].replace('"v":1', '"v":2', 1)
    expect("final L1 answer that is not the log minimum is rejected",
           check(t, True), True)
    t = copy.deepcopy(load)
    t["jobs"][0]["trials_used"] -= 10
    expect("job that used fewer trials than admitted is rejected",
           check(t, False), True)
    t = copy.deepcopy(load)
    t["stream"]["failed"] = 1
    expect("a failed query is rejected", check(t, False), True)

    shutil.rmtree(run.WORK, ignore_errors=True)
    passed = all(cases)
    run.log("self-test: %d of %d cases behave as expected" % (sum(cases), len(cases)))
    print(json.dumps({"self_test": "pass" if passed else "fail"}))
    return 0 if passed else 1
