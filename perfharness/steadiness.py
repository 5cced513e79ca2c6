#!/usr/bin/env python3
"""Runs the benchmark on several seeds, in one or more sets, and reports
each end-to-end metric's median, quartiles and spread (IQR / median).

Run from the repository root:

    python3 perfharness/steadiness.py --seeds 10 --sets 2 --out perfharness/STEADINESS.json
    python3 perfharness/steadiness.py --seeds 5 --sets 1 --workloads suite-cold

Every set runs the same seeds, so two sets differ only in when they ran.
The exit code is 1 if a metric's spread exceeds its bound or a later
set's median is worse than the first set's by more than the bound; a
spread above a third of the bound, the steadiness target, is flagged.
The output is stamped with the host (CPU model, nproc, rustc) and the
commit measured.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def host():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain", "--", "crates", "Cargo.toml"],
                           capture_output=True, text=True).stdout.strip()
    return {"cpu": cpu, "nproc": os.cpu_count(), "rustc": rustc,
            "commit": commit or "unknown", "simulator_sources_modified": bool(dirty)}


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    started = time.time()
    p = subprocess.run(cmd, capture_output=True, text=True)
    took = time.time() - started
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run\n{p.stderr[-2000:]}")
    return result, took


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--out")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    report = {"host": host(), "run_seconds": bench["run_seconds"], "sets": []}
    ok = True
    for s in range(args.sets):
        seeds = [args.first_seed + i for i in range(args.seeds)]
        per_workload = {}
        for w in workloads:
            values = {name: [] for name in bounds}
            run_s = []
            for seed in seeds:
                result, took = run_once(bench, w, seed)
                run_s.append(took)
                for name in bounds:
                    values[name].append(result["metrics"][name]["value"])
            per_workload[w] = {"seeds": seeds, "run_s_max": max(run_s),
                               "metrics": {n: summarize(v) for n, v in values.items()}}
            for n, st in per_workload[w]["metrics"].items():
                flag = ""
                if st["spread"] > bounds[n]:
                    flag = "  SPREAD > bound"
                    ok = False
                elif st["spread"] > bounds[n] / 3:
                    flag = "  spread > bound/3"
                print(f"set {s} {w:13} {n:18} median {st['median']:.6g}  spread {st['spread']:.4f}"
                      f"  bound {bounds[n]}{flag}", flush=True)
        report["sets"].append(per_workload)
    if args.sets > 1:
        first = report["sets"][0]
        report["drift"] = {}
        for w in workloads:
            for n in bounds:
                better = next(m["better"] for m in bench["end_to_end"] if m["name"] == n)
                a = first[w]["metrics"][n]["median"]
                for later in report["sets"][1:]:
                    b = later[w]["metrics"][n]["median"]
                    worse = (b - a) / a if better == "lower" else (a - b) / a
                    report["drift"][f"{w}/{n}"] = worse
                    flag = "  DRIFT > bound" if worse > bounds[n] else ""
                    ok = ok and not flag
                    print(f"drift {w:13} {n:18} {worse:+.4f}  bound {bounds[n]}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
