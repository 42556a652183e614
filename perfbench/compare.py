#!/usr/bin/env python3
"""Compare a parent and a change checkout on the benchmark.

    python3 perfbench/compare.py run --parent DIR --change DIR --out ab.jsonl
    python3 perfbench/compare.py report ab.jsonl

`run` makes ten interleaved pairs of timed runs (--trace 0) on every workload
of BENCHMARK.json, each run as long as its run_seconds, alternating which side
goes first, both sides on the same seed within a pair, then one traced run
(--trace 1) per side and workload. Each run is appended to the JSONL file as
it finishes. `report` prints, per workload, each side's count of failed runs
and, per end-to-end metric, each side's median and quartiles over its correct
runs, the pairs the change won out of all pairs run (a pair in which either
run failed is not won), and a verdict:

  worse         the change failed more runs than the parent, or its median is
                worse than the parent's by more than the metric's bound in
                BENCHMARK.json
  improved      the change won at least 9 of 10 pairs and the medians differ
                by more than the parent's own quartile spread
  unresolved    the parent's own spread is wider than the bound, so "no
                worse" cannot be shown (unless every change run beats every
                parent run)
  within bound  otherwise

It then prints the per-layer deltas between the two traced runs.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

from run import load_spec, quartiles

PAIRS = 10
# Pair i of `run` uses seed SEED_BASE + i on both sides.
SEED_BASE = 101
SIDES = ("parent", "change")


def run_one(checkout, workload, seed, seconds, trace):
    env = dict(os.environ)
    # Each checkout builds into its own tree; an absolute shared target
    # directory would mix the two builds.
    if os.path.isabs(env.get("CARGO_TARGET_DIR", "")):
        del env["CARGO_TARGET_DIR"]
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                         text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                "error": "exit %d" % res.returncode}
    return json.loads(lines[-1])


def cmd_run(a):
    spec = load_spec()
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    sides = {"parent": os.path.abspath(a.parent),
             "change": os.path.abspath(a.change)}
    with open(a.out, "a") as out:
        def record(side, w, pair, seed, trace):
            r = run_one(sides[side], w, seed, seconds, trace)
            out.write(json.dumps({"side": side, "workload": w, "pair": pair,
                                  "seed": seed, "trace": trace,
                                  "result": r}) + "\n")
            out.flush()
            print("%s %s pair %d trace %d correct=%s" % (
                side, w, pair, trace, r["correct"]), file=sys.stderr)

        for i in range(PAIRS):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for w in workloads:
                for side in order:
                    record(side, w, i, SEED_BASE + i, 0)
        for j, w in enumerate(workloads):
            order = SIDES if j % 2 == 0 else SIDES[::-1]
            for side in order:
                record(side, w, -1, SEED_BASE, 1)


def ok(result):
    return result["correct"] and result["failed"] == 0


def verdict(p, c, bound, lower_better, pairs_won, pairs, failed_p=0,
            failed_c=0):
    """p, c: the metric over each side's correct runs; pairs_won of pairs."""
    if failed_c > failed_p:
        return "worse"
    if not p or not c:
        return "unresolved"
    pm, cm = statistics.median(p), statistics.median(c)
    q1, q3 = quartiles(p)
    worse_by = ((cm - pm) if lower_better else (pm - cm)) / pm if pm else 0.0
    if worse_by > bound:
        return "worse"
    better = cm < pm if lower_better else cm > pm
    if pairs and better and pairs_won >= 0.9 * pairs and abs(cm - pm) > q3 - q1:
        return "improved"
    all_better = (max(c) < min(p)) if lower_better else (min(c) > max(p))
    if pm and (q3 - q1) / abs(pm) > bound and not all_better:
        return "unresolved"
    return "within bound"


def summary(v):
    if not v:
        return "-"
    return "%.4g [%.4g, %.4g]" % ((statistics.median(v),) + quartiles(v))


def cmd_report(a):
    spec = load_spec()
    with open(a.results) as f:
        rows = [json.loads(line) for line in f if line.strip()]
    workloads = [w["name"] for w in spec["workloads"]]
    for r in rows:
        if not ok(r["result"]):
            print("INCORRECT RUN: %s %s pair %d trace %d" % (
                r["side"], r["workload"], r["pair"], r["trace"]))

    print("%-13s %-12s %-30s %-30s %-8s %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "won", "verdict"))
    for w in workloads:
        timed = {}
        for r in rows:
            if r["workload"] == w and r["trace"] == 0:
                timed.setdefault(r["pair"], {})[r["side"]] = r["result"]
        pairs = [v for v in timed.values() if len(v) == 2]
        if not pairs:
            continue
        failed = {s: sum(1 for x in pairs if not ok(x[s])) for s in SIDES}
        print("%-13s failed runs: parent %d of %d, change %d of %d" % (
            w, failed["parent"], len(pairs), failed["change"], len(pairs)))
        for m in spec["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            p = [x["parent"]["metrics"][name]["value"] for x in pairs
                 if ok(x["parent"])]
            c = [x["change"]["metrics"][name]["value"] for x in pairs
                 if ok(x["change"])]
            won = 0
            for x in pairs:
                if ok(x["parent"]) and ok(x["change"]):
                    pv = x["parent"]["metrics"][name]["value"]
                    cv = x["change"]["metrics"][name]["value"]
                    won += cv < pv if lower else cv > pv
            print("%-13s %-12s %-30s %-30s %-8s %s" % (
                w, name, summary(p), summary(c), "%d/%d" % (won, len(pairs)),
                verdict(p, c, m["bound"], lower, won, len(pairs),
                        failed["parent"], failed["change"])))

    print("\nper-layer (traced runs): parent -> change")
    for w in workloads:
        traced = {r["side"]: r["result"] for r in rows
                  if r["workload"] == w and r["trace"] == 1}
        if len(traced) != 2:
            continue
        for m in spec["per_layer"]:
            pv = traced["parent"]["metrics"].get(m["name"], {}).get("value")
            cv = traced["change"]["metrics"].get(m["name"], {}).get("value")
            if pv is None or cv is None or (pv == 0 and cv == 0):
                continue
            delta = "%+.1f%%" % ((cv - pv) / pv * 100) if pv else "new"
            print("  %-13s %-26s %14.6g -> %-14.6g %-8s %s" % (
                w, m["name"], pv, cv, m["unit"], delta))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="make interleaved parent/change runs")
    r.add_argument("--parent", required=True, help="parent checkout root")
    r.add_argument("--change", required=True, help="change checkout root")
    r.add_argument("--out", required=True, help="JSONL file to append to")
    p = sub.add_parser("report", help="summarize a JSONL file of runs")
    p.add_argument("results")
    a = ap.parse_args()
    if a.cmd == "run":
        cmd_run(a)
    else:
        cmd_report(a)


if __name__ == "__main__":
    main()
