#!/usr/bin/env python3
"""The repo benchmark: one command, run from the root of a checkout.

    python3 rsbench/run.py --workload W --seed N --seconds S --trace 0|1
        Builds the runner (rsbench/rsbench.exe, via dune), measures one run
        of workload W on inputs generated from seed N, checks every output
        against reference checksums from an independent engine, and prints
        the metrics by name with their units. The last line of standard
        output is one JSON object {"correct", "attempted", "failed",
        "metrics"}: the end-to-end metrics with --trace 0, the per-layer
        metrics of a separate traced run with --trace 1.
        --out FILE appends the full record (seed, commit, input sizes, every
        metric, failed_share) to FILE as one JSON line.
        --size tiny runs the small inputs; --corrupt drops one output row
        before the check, so the run must count a failure.

    python3 rsbench/run.py --sweep 1,2,3 [--workloads a,b] [--trace 0|1]
                           [--seconds S] --out FILE
        Runs each workload once per seed and appends the records to FILE.

    python3 rsbench/run.py --compare OLD.jsonl NEW.jsonl
        Prints, per workload and end-to-end metric, each side's median and
        quartiles and the relative delta, judged against the metric's bound
        in BENCHMARK.json: "worse" beyond the bound, "unresolved" where
        either side's quartile spread is wider than the bound. Exits 1 on
        any "worse".

    python3 rsbench/run.py --self-test
        Runs every workload once at tiny size, checks that every metric in
        BENCHMARK.json is printed with its unit and that the outputs check
        out, and that a run with one dropped output row is counted as
        failed.

Workloads (see BENCHMARK.json for why each is there):
    graph-analytics   TC, SG, CC and REACH over one RMAT graph (512
                      vertices, 2560 edges), each through the
                      `recstep run` path.
    program-analysis  Andersen (dataset 3, scale 2) and CSPA (httpd-like,
                      scale 2) through the same path.
    serve-churn       1000 Zipf(1.1) queries from 10,000 tenants over 300
                      simulated seconds with 12 churn deltas, through the
                      `recstep load` path on 8 fixed workers with a 3 MiB
                      result cache. Each run serves the stream at least
                      three times; every figure is the median over the
                      passes.
Every workload's inputs are drawn once, from a fixed shape seed; --seed
renumbers their constants (vertices, variables), so every seed gives other
inputs and other output rows but the same amount of work.

Every run prints every metric of BENCHMARK.json, so each is defined for all
three workloads: on the batch workloads a "query" is one program evaluation, so
query_p50_s is the median of the programs' median simulated latencies,
query_p99_s the nearest-rank p99 of those (the slowest program), and
serve_ops_per_s counts program evaluations per wall second of a pass. On
serve-churn eval_wall_s is one Service.run, eval_sim_s the simulated
dispatch-to-completion seconds of its served queries, query_p99_s the
nearest-rank p99 of all served queries and query_p50_s the median of those
not served from the cache (a hit's latency is the configured hit cost).
failed_share (failed / attempted) is printed and recorded but is not a
metric of the result line, whose "attempted" and "failed" carry it.
Per-layer metrics a workload does not exercise read 0.
"""

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "rsbench", "rsbench.exe")
WORK = ".rsbench_work"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("rsbench: " + msg, file=sys.stderr)
    sys.exit(1)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        fail("no dune-project here: run from the root of a repo checkout")
    try:
        r = subprocess.run(
            # no shared dune cache: the build stays inside the checkout
            ["dune", "build", "--root", ".", "--cache=disabled", "./rsbench/rsbench.exe"],
            cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0:
        fail("build failed")


def runner(args, timeout=RUN_TIMEOUT_S):
    """Runs rsbench.exe and returns its last stdout line as JSON."""
    try:
        r = subprocess.run([EXE] + args, cwd=ROOT, capture_output=True, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("runner timed out: %s" % " ".join(args))
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        fail("runner failed: %s" % " ".join(args))
    lines = r.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def commit():
    """The git commit when there is one, else a digest of the sources."""
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha1()
    for top in ("lib", "bin", "rsbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                p = os.path.join(d, name)
                h.update(p.encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return "tree:" + h.hexdigest()


def run_one(workload, seed, seconds, trace, size="full", corrupt=False):
    """One measured and verified run; returns the full record."""
    work = os.path.join(WORK, size, workload)
    common = ["--workload", workload, "--seed", str(seed), "--size", size, "--work", work]
    measure = ["measure", "--seconds", str(seconds), "--trace", str(trace)] + common
    if corrupt:
        measure.append("--corrupt")
    t0 = time.time()
    rec = runner(measure)
    check = runner(["verify", "--frozen", os.path.join("rsbench", "refs")] + common)
    failed = check["mismatched"] + check["unserved"]
    rec.update({
        "commit": commit(),
        "checked": check["checked"],
        "mismatched": check["mismatched"],
        "failed": failed,
        "correct": failed == 0,
        "failed_share": failed / rec["attempted"],
        "elapsed_s": time.time() - t0,
    })
    return rec


def layer_sums(rec):
    """(layers, whole) pairs for the simulated and the wall time of a traced
    run: the layers' self times and the traced end-to-end time."""
    m = {k: v["value"] for k, v in rec["metrics"].items()}
    pairs = [("sim", m.get("trace.layers_sim_s"), m.get("trace.eval_sim_s"))]
    if m.get("trace.layers_wall_s"):
        pairs.append(("wall", m["trace.layers_wall_s"], m["trace.eval_wall_s"]))
    return [(k, a, b) for k, a, b in pairs if a is not None and b]


def report(rec):
    print("workload=%s seed=%d size=%s trace=%d commit=%s" % (
        rec["workload"], rec["seed"], rec["size"], rec["trace"], rec["commit"]))
    print("inputs: " + " ".join("%s=%d" % kv for kv in rec["inputs"].items()))
    for prog, t in rec.get("programs", {}).items():
        print("program %-10s Interpreter.run %.6g s wall, %.6g s simulated" % (
            prog, t["wall_s"], t["sim_s"]))
    for name, m in rec["metrics"].items():
        print("%-32s %14.6g %s" % (name, m["value"], m["unit"]))
    print("%-32s %14.6g ratio  (%d failed of %d attempted, %d outputs checked)" % (
        "failed_share", rec["failed_share"], rec["failed"], rec["attempted"], rec["checked"]))
    for kind, layers, whole in layer_sums(rec):
        print("layers add up (%s): %.6g s of %.6g s traced" % (kind, layers, whole))


def result_line(rec):
    return json.dumps({"correct": rec["correct"], "attempted": rec["attempted"],
                       "failed": rec["failed"], "metrics": rec["metrics"]})


def append(path, rec):
    with open(path, "a") as f:
        f.write(json.dumps(rec) + "\n")


def opt(argv, name, default=None):
    if name in argv:
        i = argv.index(name)
        if i + 1 >= len(argv):
            fail("missing value for " + name)
        return argv[i + 1]
    return default


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(old_path, new_path):
    def load(path):
        by = {}
        with open(path) as f:
            for line in f:
                if line.strip():
                    r = json.loads(line)
                    if r.get("trace", 0) == 0:
                        by.setdefault(r["workload"], []).append(r)
        return by

    old, new = load(old_path), load(new_path)
    worse = 0
    print("%-17s %-16s %5s %30s %30s %8s  %s" % (
        "workload", "metric", "runs", "old median [q1, q3]", "new median [q1, q3]", "delta",
        "verdict"))
    for w in sorted(set(old) & set(new)):
        for m in spec()["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            a = [r["metrics"][name]["value"] for r in old[w] if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in new[w] if name in r["metrics"]]
            if not a or not b:
                continue
            (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
            delta = (bm - am) / am if am else 0.0
            spread = max((a3 - a1) / am if am else 0.0, (b3 - b1) / bm if bm else 0.0)
            regress = delta > bound if lower else -delta > bound
            all_better = (max(b) < min(a)) if lower else (min(b) > max(a))
            if spread > bound and not all_better:
                verdict = "unresolved (spread %.3f > bound %.3f)" % (spread, bound)
            elif regress:
                verdict = "worse (bound %.3f)" % bound
                worse += 1
            elif all_better or abs(delta) > spread and (delta < 0) == lower and delta != 0:
                verdict = "better"
            else:
                verdict = "same (bound %.3f)" % bound
            print("%-17s %-16s %2d/%-2d %12.5g [%7.4g, %7.4g] %12.5g [%7.4g, %7.4g] %+7.1f%%  %s" % (
                w, name, len(a), len(b), am, a1, a3, bm, b1, b3, 100 * delta, verdict))
    return 1 if worse else 0


def self_test():
    s = spec()
    e2e = {m["name"]: m["unit"] for m in s["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in s["per_layer"]}
    problems = []
    for w in [x["name"] for x in s["workloads"]]:
        for trace, want in ((0, e2e), (1, layers)):
            rec = run_one(w, 7, 1, trace, size="tiny")
            got = {k: v["unit"] for k, v in rec["metrics"].items()}
            if got != want:
                problems.append("%s trace=%d: metrics/units differ from BENCHMARK.json: %s" % (
                    w, trace, sorted(set(got.items()) ^ set(want.items()))))
            for kind, parts, whole in layer_sums(rec):
                if abs(parts - whole) > 1e-6 * max(1.0, whole):
                    problems.append("%s: %s layer self times sum to %g, traced total %g" % (
                        w, kind, parts, whole))
            if not rec["correct"] or rec["failed"] != 0:
                problems.append("%s trace=%d: clean run counted %d failures" % (
                    w, trace, rec["failed"]))
        rec = run_one(w, 7, 1, 0, size="tiny", corrupt=True)
        if rec["correct"] or rec["failed"] != 1:
            problems.append("%s: one dropped row counted %d failures, correct=%s" % (
                w, rec["failed"], rec["correct"]))
        print("self-test %s: %s" % (w, "ok" if not problems else "FAILED"))
    for p in problems:
        print("self-test: " + p)
    return 1 if problems else 0


def main(argv):
    if "--compare" in argv:
        i = argv.index("--compare")
        if i + 2 >= len(argv):
            fail("--compare needs two result files")
        return compare(argv[i + 1], argv[i + 2])
    build()
    if "--self-test" in argv:
        return self_test()
    seconds = opt(argv, "--seconds", "10")
    trace = int(opt(argv, "--trace", "0"))
    out = opt(argv, "--out")
    if "--sweep" in argv:
        if not out:
            fail("--sweep needs --out FILE")
        names = opt(argv, "--workloads")
        names = names.split(",") if names else [w["name"] for w in spec()["workloads"]]
        for w in names:
            for seed in opt(argv, "--sweep").split(","):
                rec = run_one(w, int(seed), seconds, trace)
                report(rec)
                append(out, rec)
        return 0
    workload = opt(argv, "--workload")
    if not workload:
        fail("missing --workload")
    rec = run_one(workload, int(opt(argv, "--seed", "1")), seconds, trace,
                  size=opt(argv, "--size", "full"), corrupt="--corrupt" in argv)
    report(rec)
    if out:
        append(out, rec)
    print(result_line(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
