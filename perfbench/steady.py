#!/usr/bin/env python3
"""Steadiness check: runs each workload several times, one seed per run, and
prints every end-to-end metric's median and quartiles against its bound.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workloads a,b]

Run from the repository root. The spread is the distance between the first
and third quartile (statistics.quantiles, n=4) as a share of the median; a
metric is steady when its spread stays below its bound (setup_s excepted: its
bound limits how far a later median may move). Two invocations of this
command on the same code should print medians within each metric's bound.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    ok = True
    for name in names:
        values, failed, attempted = {}, [], []
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {out.returncode}, no result")
                ok = False
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: checks failed")
                ok = False
            failed.append(result["failed"])
            attempted.append(result["attempted"])
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        print(f"\n{name}: {len(attempted)} runs, failed/attempted = {sum(failed)}/{sum(attempted)}")
        print(f"  {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for m in bench["end_to_end"]:
            v = values.get(m["name"], [])
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if m["name"] != "setup_s" and spread > m["bound"]:
                flag, ok = "  OVER BOUND", False
            elif m["name"] != "setup_s" and spread > m["bound"] / 3:
                flag = "  over a third"
            print(f"  {m['name']:<14} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.3f} {m['bound']:>6}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
