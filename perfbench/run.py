#!/usr/bin/env python3
"""Benchmark entry point: build the driver, run one workload, report metrics.

    python3 perfbench/run.py --workload figs_full --seed 1 --seconds 25 --trace 0

Run from the repository root. The driver (perfbench.cpp) is built from the
sources in this checkout on first use, into $CARGO_TARGET_DIR (default
.bench_build). With --trace 0 the last stdout line is a JSON object holding
every end-to-end metric of BENCHMARK.json; with --trace 1 it holds every
per-layer metric instead, and a Chrome trace-event file (open it in
https://ui.perfetto.dev) is written next to the build. Human-readable detail
goes to the lines before it.

    python3 perfbench/run.py --write-ref 1-10,42

recomputes the full-detail CPI reference (ref_cpi.json) for those seeds.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REF_FILE = os.path.join(HERE, "ref_cpi.json")
WORKLOADS = ("figs_full", "figs_sampled", "replay")
# figs_sampled's worst-cell CPI may differ from full detail by this much.
CPI_ERR_LIMIT_PCT = 3.0
# The driver must end within the per-run limit.
RUN_TIMEOUT_S = 170
# Short mode: a small database and short streams, for tests.
SHORT_ARGS = ["--scale", "256", "--records", "20000", "--setup-reps", "2",
              "--min-passes", "2"]


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configure once, then (re)build the driver; return its path."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "dss_perfbench"])
    for cmd in steps:
        try:
            res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                 stderr=subprocess.STDOUT, text=True)
        except OSError as e:
            fail("cannot run %s: %s" % (cmd[0], e))
        if res.returncode != 0:
            sys.stderr.write(res.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "dss_perfbench")


def run_driver(binary, args):
    try:
        res = subprocess.run([binary] + args, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver timed out: " + " ".join(args))
    if res.returncode != 0 or not res.stdout.strip():
        fail("driver failed (exit %d): %s" % (res.returncode, " ".join(args)))
    return json.loads(res.stdout.strip().splitlines()[-1])


def commit():
    try:
        res = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    return res.stdout.strip() or "unknown"


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def load_ref():
    with open(REF_FILE) as f:
        return json.load(f)


def quartiles(vals):
    if len(vals) < 2:
        return (vals[0], vals[0]) if vals else (0.0, 0.0)
    q = statistics.quantiles(vals, n=4)
    return q[0], q[2]


def med(vals):
    return statistics.median(vals) if vals else 0.0


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def write_ref(seeds):
    binary = build()
    ref = {"scale": 16, "about": "full-detail Fig. 3 cell CPI per seed",
           "cpi": {}}
    for s in seeds:
        out = run_driver(binary, ["--workload", "figs_full", "--seed", str(s),
                                  "--seconds", "0", "--trace", "0",
                                  "--setup-reps", "1", "--min-passes", "1"])
        ref["cpi"][str(s)] = out["cell_cpi"]
        print("seed %d done" % s, file=sys.stderr)
    with open(REF_FILE, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")


def cpi_error_pct(out, args):
    """Worst-cell |sampled - full| / full CPI, in percent, and its source."""
    full = out["full_cpi"]
    source = "computed in this run"
    if not full:
        full = load_ref()["cpi"][str(args.seed)]
        source = "ref_cpi.json"
    worst = 0.0
    for cell, cpi in out["cell_cpi"].items():
        worst = max(worst, abs(cpi - full[cell]) / full[cell] * 100.0)
    return worst, source


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help="scale 256 and 20k-record streams (tests)")
    ap.add_argument("--write-ref", metavar="SEEDS",
                    help="recompute ref_cpi.json for e.g. 1-10,42")
    args = ap.parse_args()
    if args.write_ref:
        write_ref(parse_seeds(args.write_ref))
        return
    if not args.workload:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must not be negative")

    spec = load_spec()
    binary = build()
    dargs = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.short:
        dargs += SHORT_ARGS
    if args.workload == "figs_sampled" and (
            args.short or str(args.seed) not in load_ref()["cpi"]):
        dargs += ["--full-ref", "1"]
    trace_path = None
    if args.trace:
        trace_path = os.path.join(
            os.path.dirname(build_dir()),
            "trace_%s_seed%d.json" % (args.workload, args.seed))
        dargs += ["--trace-out", trace_path]
    out = run_driver(binary, dargs)

    # Correctness: every driver check, no failed cell or stream, and the
    # sampled CPI close to full detail.
    problems = [k for k, v in sorted(out["checks"].items()) if not v]
    problems += out["errors"]
    cpi_err = None
    if args.workload == "figs_sampled" and out["cell_cpi"]:
        cpi_err, cpi_src = cpi_error_pct(out, args)
        if cpi_err > CPI_ERR_LIMIT_PCT:
            problems.append("sampled CPI off by %.2f%% (limit %.1f%%)"
                            % (cpi_err, CPI_ERR_LIMIT_PCT))
    attempted = max(1, int(out["attempted"]))
    failed = int(out["failed"])
    timed = out["traced_pass_s"] if args.trace else out["pass_s"]
    if not timed:
        problems.append("no pass completed")
    correct = not problems and failed == 0

    print("workload %s  seed %d  scale 1/%d  jobs %d  trace %d"
          % (args.workload, args.seed, out["scale"], out["jobs"], args.trace))
    print("host nproc %d  compiler %s  build %s  commit %s"
          % (os.cpu_count() or 0, out["compiler"], out["build_type"],
             commit()))
    if not out["comparable"]:
        print("NOT COMPARABLE: a Debug or sanitizer build; do not compare "
              "these times with anything")
    print("digest of simulated counters: %s" % out["digest"])
    print("  %-26s %16.6g %-6s (lower is better; must be 0: %d of %d failed)"
          % ("fail_frac", failed / attempted, "frac", failed, attempted))
    if cpi_err is not None:
        print("  %-26s %16.6g %-6s (lower is better; limit %.1f, worst cell "
              "against the full-detail CPI from %s)"
              % ("cpi_err_pct", cpi_err, "%", CPI_ERR_LIMIT_PCT, cpi_src))
    for p in problems:
        print("FAILED CHECK: %s" % p)

    if args.trace == 0:
        q1, q3 = quartiles(out["pass_s"])
        print("pass_s median %.4f  quartiles [%.4f, %.4f]  n=%d"
              % (med(out["pass_s"]), q1, q3, len(out["pass_s"])))
        rates = [r / s / 1e6 for r, s in zip(out["refs"], out["pass_s"])]
        print("setup_s median of %d set-ups" % len(out["setup_s"]))
        values = {
            "setup_s": med(out["setup_s"]),
            "pass_s": med(out["pass_s"]),
            "cpu_s": med(out["cpu_s"]),
            "mrefs_per_s": med(rates),
            "peak_rss_mb": out["peak_rss_mb"],
        }
        specs = spec["end_to_end"]
    else:
        values = dict(out["layers"])
        untraced = med(out["untraced_pass_s"])
        values["trace.overhead"] = (med(out["traced_pass_s"]) / untraced
                                    if untraced else 0.0)
        print("trace written to %s" % trace_path)
        specs = spec["per_layer"]

    metrics = {}
    for m in specs:
        # 0 marks a layer this workload does not exercise.
        v = float(values.get(m["name"], 0.0))
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        print("  %-26s %16.6g %-6s (%s is better)"
              % (m["name"], v, m["unit"], m["better"]))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
