#!/usr/bin/env python3
"""Repeat the benchmark over seeds and report each metric's run-to-run spread.

    python3 perfbench/spread.py --runs 10 --first-seed 101 \
        [--workloads figure1,table_law] [--trace-runs 1] [--out perfbench/baseline.json]

Runs ``BENCHMARK.json``'s command once per (workload, seed), one run at a
time, each with its own seed.  For every end-to-end metric it prints the
median, the quartiles from ``statistics.quantiles(values, n=4)`` and the
spread (q3 - q1) / median next to the metric's bound.  With
``--trace-runs`` it also makes that many traced runs per workload, all on
the first seed, and keeps their per-layer metrics.  ``--out`` writes all of
it as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = next(json.loads(line[len("# record "):])
                  for line in proc.stdout.splitlines()
                  if line.startswith("# record "))
    return result, record


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values),
            "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace-runs", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        runs = [run_once(spec, workload, s, 0) for s in seeds]
        entry = {"seeds": seeds, "record": runs[0][1],
                 "attempted": [r["attempted"] for r, _ in runs],
                 "failed": [r["failed"] for r, _ in runs],
                 # CPU time equal to wall time means slower runs executed
                 # slower, rather than waited for the CPU.
                 "timed_seconds": [rec["timed_seconds"] for _, rec in runs],
                 "timed_cpu_seconds": [rec["timed_cpu_seconds"] for _, rec in runs],
                 "end_to_end": {}}
        for name in bounds:
            s = summarize([r["metrics"][name]["value"] for r, _ in runs])
            s["unit"] = runs[0][0]["metrics"][name]["unit"]
            s["bound"] = bounds[name]
            entry["end_to_end"][name] = s
            print(f"{workload:12s} {name:12s} median {s['median']:.6g} {s['unit']:8s} "
                  f"spread {s['spread']:.4f} (bound {bounds[name]}, "
                  f"{s['spread'] / bounds[name]:.2f} of it)", flush=True)
        if sum(entry["failed"]):
            print(f"{workload:12s} FAILED calls: {entry['failed']}", flush=True)
        # Traced runs share one seed, so their counts must repeat exactly.
        traced = [run_once(spec, workload, args.first_seed, 1)[0]
                  for _ in range(args.trace_runs)]
        if traced:
            entry["per_layer"] = {
                name: {"values": [t["metrics"][name]["value"] for t in traced],
                       "unit": traced[0]["metrics"][name]["unit"]}
                for name in traced[0]["metrics"]}
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
