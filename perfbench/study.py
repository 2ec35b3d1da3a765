#!/usr/bin/env python3
"""Steadiness study: runs the benchmark over several seeds per workload and
reports, for each end-to-end metric, the median, the quartiles and the
spread (interquartile distance over the median) against the metric's bound
in BENCHMARK.json.

    python3 perfbench/study.py [--workloads a,b] [--seeds 10 | --seed-list 1,1,2]
                               [--first-seed 101] [--seconds S] [--threads T]
                               [--raw FILE]

Runs go one after another, never in parallel. Seeds that appear more than
once (--seed-list) must give identical objective_d_rel and response_rel.
--raw appends every run's JSON result to FILE, one line each, with the
run's unscaled timings and reference-kernel median.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DETERMINISTIC = ("objective_d_rel", "response_rel")


def run_once(workload, seed, seconds, threads):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    if threads is not None:
        cmd += ["--threads", str(threads)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, check=True)
    measured = [l for l in proc.stderr.splitlines()
                if l.startswith("measured seconds")]
    return json.loads(proc.stdout.strip().splitlines()[-1]), measured


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--seed-list")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--threads", type=int)
    ap.add_argument("--raw")
    args = ap.parse_args()

    seeds = ([int(s) for s in args.seed_list.split(",")] if args.seed_list
             else list(range(args.first_seed, args.first_seed + args.seeds)))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    all_ok = True
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds:
            r, measured = run_once(workload, seed, args.seconds, args.threads)
            results.append((seed, r))
            if args.raw:
                with open(args.raw, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed,
                                        "threads": args.threads, "result": r,
                                        "measured": measured}) + "\n")
            if not r["correct"] or r["failed"]:
                all_ok = False
        print(f"\n{workload}: {len(seeds)} runs, seeds {seeds[0]}..{seeds[-1]}"
              f", {args.seconds:g} s each, passes "
              f"{min(r['attempted'] for _, r in results)}.."
              f"{max(r['attempted'] for _, r in results)}")
        print(f"{'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name in bounds:
            vals = [r["metrics"][name]["value"] for _, r in results]
            q1, med, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                           else (vals[0],) * 3)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if name != "setup_s" and spread > bounds[name] / 3:
                flag = "  > bound/3"
            print(f"{name:<20} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bounds[name]:6.2f}{flag}")
        for name in DETERMINISTIC:
            by_seed = {}
            for seed, r in results:
                by_seed.setdefault(seed, set()).add(r["metrics"][name]["value"])
            for seed, values in by_seed.items():
                if len(values) > 1:
                    all_ok = False
                    print(f"{name} differs between runs of seed {seed}: "
                          f"{sorted(values)}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
