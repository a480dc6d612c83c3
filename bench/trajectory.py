#!/usr/bin/env python3
"""Records one trajectory point of the benchmark.

Runs every workload of BENCHMARK.json in two sets of runs, each run with its
own seed, and writes per set, workload and end-to-end metric the median,
the quartiles and the spread (quartile distance over median), beside the
machine facts the numbers depend on. Run it from the root of the checkout:

    python3 bench/trajectory.py --runs 10 --out bench/results/<commit>.json
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else 0.0, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    ap.add_argument("--sets", type=int, default=2, help="run sets")
    ap.add_argument("--workloads", nargs="*", help="subset of workloads (default all)")
    ap.add_argument("--out", required=True, help="result file")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = opts.workloads or [w["name"] for w in bench["workloads"]]
    go = subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip()
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
    out = {
        "commit": commit,
        "go": go,
        "nproc": len(os.sched_getaffinity(0)),
        # Go defaults GOMAXPROCS to the CPUs this process may run on.
        "gomaxprocs": int(os.environ.get("GOMAXPROCS", len(os.sched_getaffinity(0)))),
        "machine": platform.machine(),
        "run_seconds": bench["run_seconds"],
        "bounds": {m["name"]: m["bound"] for m in bench["end_to_end"]},
        "sets": [],
    }
    seed = 1
    for s in range(opts.sets):
        result = {}
        for w in workloads:
            metrics, failed, seeds = {}, 0, []
            for _ in range(opts.runs):
                r = run_once(bench["command"], w, seed, bench["run_seconds"])
                seeds.append(seed)
                seed += 1
                failed += r["failed"]
                for name, m in r["metrics"].items():
                    metrics.setdefault(name, []).append(m["value"])
            result[w] = {"seeds": seeds, "failed": failed,
                         "metrics": {n: summarize(v) for n, v in sorted(metrics.items())}}
            line = ", ".join(f"{n} {v['median']:.4g} ({100 * v['spread']:.1f}%)" for n, v in result[w]["metrics"].items())
            print(f"set {s + 1} {w}: {line}", flush=True)
        out["sets"].append(result)
    os.makedirs(os.path.dirname(opts.out) or ".", exist_ok=True)
    with open(opts.out, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
