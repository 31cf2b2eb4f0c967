"""Paired benchmark runs of two checkouts: does the change gain, and by how much.

Usage: python3 tools/paired_bench.py PARENT CHANGE --workload W --pairs N --seed0 K

PARENT and CHANGE are checkouts of this repository.  Pair i (0..N-1) runs
the workload with seed K+i in each tree, the parent first in even pairs and
the change first in odd ones, and prints each run's metrics as it ends.  A
run is `run_once` of the tree's own `perfbench/spread.py`: BENCHMARK.json's
command in that tree, for BENCHMARK.json's run_seconds, with `--trace 0`.
Both sides take CHANGE's BENCHMARK.json, so both run equally long.  Then,
for every end-to-end metric it lists, the tool prints both sides' medians
and quartiles (spread.py's `summarize`, so the spread is the one
perfbench/baseline.json records), the pairs the change won (ties count for
neither side) and whether a gain holds: the change wins at least nine tenths
of the pairs and its median is better than the parent's by more than the
distance between the parent's quartiles.  Exits 1 as soon as a run fails or
reports `correct: false`.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import subprocess
import sys
from pathlib import Path


def load_spread(tree: Path):
    """tree's perfbench/spread.py, whose run_once runs the benchmark in tree."""
    spec = importlib.util.spec_from_file_location("spread", tree / "perfbench" / "spread.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPREAD = load_spread(Path(__file__).resolve().parent.parent)


def summarize(parent: list, change: list, metrics: list) -> list:
    """One row per metric of metrics (BENCHMARK.json's end_to_end entries)
    from the paired runs parent[i], change[i] ({name: value} each): both
    sides' spread.py summaries, the change's wins, and whether its gain
    holds."""
    rows = []
    for metric in metrics:
        name = metric["name"]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        p = [run[name] for run in parent]
        c = [run[name] for run in change]
        wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
        ps, cs = SPREAD.summarize(p), SPREAD.summarize(c)
        gain = (10 * wins >= 9 * len(p)
                and sign * (cs["median"] - ps["median"]) > ps["q3"] - ps["q1"])
        rows.append({"name": name, "unit": metric["unit"], "parent": ps,
                     "change": cs, "wins": wins, "pairs": len(p), "gain": gain})
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 to have quartiles")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    spread = {"parent": load_spread(args.parent), "change": load_spread(args.change)}
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed0 + i
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            try:
                result, _ = spread[side].run_once(spec, args.workload, seed, 0)
            except subprocess.SubprocessError as exc:
                print(f"paired_bench: {side} seed {seed}: {exc}\n"
                      f"{getattr(exc, 'stderr', '')}", file=sys.stderr)
                return 1
            if not result["correct"]:
                print(f"paired_bench: {side} seed {seed}: correct: false "
                      f"({result['failed']} of {result['attempted']} calls failed)",
                      file=sys.stderr)
                return 1
            values = {m["name"]: result["metrics"][m["name"]]["value"] for m in metrics}
            runs[side].append(values)
            shown = "  ".join(f"{name}={value:.6g}" for name, value in values.items())
            print(f"pair {i} seed {seed} {side:6s} {shown}", flush=True)
    print(f"{'metric':14s} {'parent q1/med/q3':>30s} {'change q1/med/q3':>30s}  wins  gain")
    for row in summarize(runs["parent"], runs["change"], metrics):
        p, c = ("/".join(f"{row[side][key]:.4g}" for key in ("q1", "median", "q3"))
                for side in ("parent", "change"))
        print(f"{row['name']:14s} {p:>30s} {c:>30s}  {row['wins']:2d}/{row['pairs']:<2d} "
              f"{'yes' if row['gain'] else 'no'}  ({row['unit']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
