#!/usr/bin/env python3
"""Steadiness check for the SNAP benchmark.

    python3 perfbench/steady.py --workload NAME [--runs K]
                                [--first-seed S] [--save FILE]
    python3 perfbench/steady.py --compare A.json B.json

Runs perfbench/run.py K times (seeds S, S+1, ..., S+K-1) as one set and
prints, for every metric, the median, the quartiles
(statistics.quantiles(n=4)) and the spread (q3 - q1) / median next to the
metric's bound in BENCHMARK.json; the set is steady when the spread of every
end-to-end metric is within its bound. --save writes the set as JSON.
--compare judges two saved sets of one workload, made at different times:
both steady, no median of the second worse than the first's by more than
the bound, and the same share of failed operations. Run from the root of a
checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_bounds():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    return bench, {m["name"]: m for m in bench["end_to_end"]}


def run_set(bench, workload, seeds):
    runs = []
    for seed in seeds:
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
               "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit("steady: run with seed %d exited %d" %
                     (seed, proc.returncode))
        result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
        print("  seed %d: correct=%s attempted=%d failed=%d" %
              (seed, result["correct"], result["attempted"],
               result["failed"]), flush=True)
        runs.append(result)
    return {"workload": workload, "seeds": list(seeds), "runs": runs}


def summarize(s):
    metrics = {}
    for r in s["runs"]:
        for name, m in r["metrics"].items():
            metrics.setdefault(name, {"unit": m["unit"], "values": []})
            metrics[name]["values"].append(m["value"])
    out = {}
    for name, m in metrics.items():
        v = m["values"]
        q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else v * 3
        out[name] = {"unit": m["unit"], "q1": q1, "median": med, "q3": q3,
                     "spread": (q3 - q1) / med if med else float("inf")}
    failed = sum(r["failed"] for r in s["runs"])
    attempted = sum(r["attempted"] for r in s["runs"])
    return out, failed, attempted


def report(s, bounds):
    summary, failed, attempted = summarize(s)
    print("%s, seeds %s: %d/%d operations failed" %
          (s["workload"], s["seeds"], failed, attempted))
    print("%-40s %-6s %14s %14s %14s %8s %6s" %
          ("metric", "unit", "q1", "median", "q3", "spread", "bound"))
    ok = True
    for name in sorted(summary):
        m = summary[name]
        b = bounds.get(name)
        verdict = ""
        if b is not None:
            good = m["spread"] <= b["bound"]
            ok &= good
            verdict = "ok" if good else "TOO WIDE"
        print("%-40s %-6s %14.6g %14.6g %14.6g %8.4f %6s %s" %
              (name, m["unit"], m["q1"], m["median"], m["q3"], m["spread"],
               "%.2f" % b["bound"] if b else "-", verdict))
    return ok


def compare(a, b, bounds):
    sa, fa, ta = summarize(a)
    sb, fb, tb = summarize(b)
    ok = fa * tb == fb * ta
    print("failed share: %d/%d vs %d/%d %s" %
          (fa, ta, fb, tb, "ok" if ok else "DIFFERS"))
    for name, bnd in bounds.items():
        if name not in sa or name not in sb:
            continue
        ma, mb = sa[name]["median"], sb[name]["median"]
        worse = (mb - ma) / ma if bnd["better"] == "lower" else (ma - mb) / ma
        good = worse <= bnd["bound"]
        ok &= good
        print("%-40s %14.6g -> %14.6g  worse by %+.4f (bound %.2f) %s" %
              (name, ma, mb, worse, bnd["bound"], "ok" if good else "FAIL"))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--save")
    ap.add_argument("--compare", nargs=2, metavar="FILE")
    args = ap.parse_args()
    if not os.path.isfile("perfbench/run.py"):
        sys.exit("steady: run from the root of a checkout")
    bench, bounds = load_bounds()

    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        if sets[0]["workload"] != sets[1]["workload"]:
            sys.exit("steady: the two sets are of different workloads")
    else:
        if not args.workload or args.runs < 2:
            sys.exit("steady: --workload and --runs >= 2 are required")
        first = args.first_seed
        sets = [run_set(bench, args.workload,
                        range(first, first + args.runs))]
        if args.save:
            with open(args.save, "w") as f:
                json.dump(sets[0], f)

    ok = True
    for s in sets:
        ok &= report(s, bounds)
    if len(sets) == 2:
        print("\nsecond set vs first (%s):" % sets[0]["workload"])
        ok &= compare(sets[0], sets[1], bounds)
    print("\nverdict: %s" % ("STEADY" if ok else "NOT STEADY"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
