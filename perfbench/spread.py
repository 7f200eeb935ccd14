#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command from BENCHMARK.json once per (seed, workload), interleaving
the workloads within each seed so slow drift of the host hits every workload
alike, then prints for each workload and metric the quartiles of the values,
their spread (q3 - q1) / median, and the metric's bound.

    python3 perfbench/spread.py [--seeds 10] [--first-seed 1] [--workloads a,b]
                                [--trace 0|1] [--out runs.jsonl]

Run it from the repository root. Raw results are appended to --out as JSON
lines, one per run.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = [w for w in args.workloads.split(",") if w]
    metrics = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]
    values = {w: {m["name"]: [] for m in metrics} for w in workloads}
    failures = 0
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for w in workloads:
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
            ]
            start = time.time()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            took = time.time() - start
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            try:
                result = json.loads(last)
            except json.JSONDecodeError:
                print(f"seed {seed} {w}: exit {proc.returncode}, no result\n{proc.stderr[-2000:]}")
                failures += 1
                continue
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                failures += 1
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"seed": seed, "workload": w, "took_s": took,
                                        "exit": proc.returncode, "result": result}) + "\n")
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"seed {seed} {w}: {took:.1f}s correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)

    bounds = {m["name"]: m.get("bound") for m in metrics}
    worst = 0.0
    for w in workloads:
        print(f"\n{w}")
        for name, vs in values[w].items():
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "ok" if spread < bound / 3 else ("WITHIN BOUND" if spread < bound else "OVER BOUND")
                if name != "setup_s":
                    worst = max(worst, spread / bound)
            print(f"  {name:<28} median {med:14.6f}  q1 {q1:14.6f}  q3 {q3:14.6f}  "
                  f"spread {spread:7.4f}  bound {bound}  {flag}")
    print(f"\nfailed runs: {failures}; worst spread/bound (setup_s excluded): {worst:.3f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
