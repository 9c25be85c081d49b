#!/usr/bin/env python3
"""Repeats and compares benchmark runs (run from the root of a checkout).

    python3 perfbench/compare.py sweep DIR --workload W --seeds 1-10
        Runs perfbench/run.py once per seed and keeps each result record
        (shape, environment, metrics) under DIR.
    python3 perfbench/compare.py spread DIR
        Per workload and metric: median, quartiles and the quartile
        spread as a share of the median, against the metric's bound in
        BENCHMARK.json.
    python3 perfbench/compare.py diff BASE_DIR NEW_DIR
        Per workload and metric: NEW median against BASE median, flagged
        when it is worse by more than the bound.

Records whose shape (profile, n, tokens, family, workers, gutter bytes,
snapshot cadence, query) or environment (kernel backend, nproc, compiler)
differ are never pooled or compared: the command refuses and exits 2.
"""
import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys


def load_bounds():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    for m in spec["per_layer"]:
        bounds[m["name"]] = (m["better"], None)
    return bounds


def load(directory):
    """Records grouped by (workload, trace); refuses mixed shapes."""
    groups = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            rec = json.load(f)
        key = (rec["workload"], rec["shape"]["trace"])
        groups.setdefault(key, []).append(rec)
    for key, recs in groups.items():
        ident = {json.dumps([r["shape"], r["env"]], sort_keys=True)
                 for r in recs}
        if len(ident) > 1:
            sys.exit("compare.py: %s in %s mixes shapes or environments; "
                     "refusing to pool them" % (key[0], directory))
    return groups


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def cmd_sweep(args):
    os.makedirs(args.dir, exist_ok=True)
    lo, _, hi = args.seeds.partition("-")
    for seed in range(int(lo), int(hi or lo) + 1):
        cmd = [sys.executable, "perfbench/run.py", "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode != 0:
            sys.exit("compare.py: run failed: " + " ".join(cmd))
        name = "%s-seed%d-trace%d.json" % (args.workload, seed, args.trace)
        shutil.copy(os.path.join(".bench_out", "results", name),
                    os.path.join(args.dir, name))
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print("seed %d: correct=%s failed=%d/%d" % (
            seed, result["correct"], result["failed"], result["attempted"]),
            flush=True)


def cmd_spread(args):
    bounds = load_bounds()
    worst = 0.0
    for (workload, trace), recs in sorted(load(args.dir).items()):
        print("%s trace=%d: %d runs, failed %d of %d" % (
            workload, trace, len(recs), sum(r["failed"] for r in recs),
            sum(r["attempted"] for r in recs)))
        for name in recs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in recs]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = bounds.get(name, (None, None))[1]
            flag = ""
            if bound is not None:
                flag = "bound %.2f%s" % (
                    bound, "  OVER" if spread > bound else
                    ("  >1/3" if spread > bound / 3 else ""))
                if name != "setup_s":
                    worst = max(worst, spread / bound)
            print("  %-40s median %14.4f  q1 %14.4f  q3 %14.4f  "
                  "spread %6.3f  %s" % (name, med, q1, q3, spread, flag))
    print("worst spread / bound (setup_s excluded): %.2f" % worst)


def cmd_diff(args):
    bounds = load_bounds()
    base, new = load(args.base), load(args.new)
    regressions = 0
    for key in sorted(set(base) & set(new)):
        a, b = base[key][0], new[key][0]
        if (a["shape"], a["env"]) != (b["shape"], b["env"]):
            sys.exit("compare.py: %s shape or environment differs between "
                     "%s and %s; refusing to compare" %
                     (key[0], args.base, args.new))
        print("%s trace=%d" % key)
        for name in a["metrics"]:
            ma = statistics.median(r["metrics"][name]["value"]
                                   for r in base[key])
            mb = statistics.median(r["metrics"][name]["value"]
                                   for r in new[key])
            better, bound = bounds.get(name, ("lower", None))
            change = (mb - ma) / abs(ma) if ma else 0.0
            worse = change if better == "lower" else -change
            flag = ""
            if bound is not None and worse > bound:
                flag = "  WORSE than bound %.2f" % bound
                regressions += 1
            print("  %-40s %14.4f -> %14.4f  %+7.2f%%%s" % (
                name, ma, mb, 100 * change, flag))
    return 1 if regressions else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sw = sub.add_parser("sweep")
    sw.add_argument("dir")
    sw.add_argument("--workload", required=True)
    sw.add_argument("--seeds", default="1-10")
    sw.add_argument("--seconds", type=int, default=50)
    sw.add_argument("--trace", type=int, default=0)
    sp = sub.add_parser("spread")
    sp.add_argument("dir")
    df = sub.add_parser("diff")
    df.add_argument("base")
    df.add_argument("new")
    args = ap.parse_args()
    if args.cmd == "sweep":
        return cmd_sweep(args)
    if args.cmd == "spread":
        return cmd_spread(args)
    return cmd_diff(args)


if __name__ == "__main__":
    sys.exit(main())
