"""Paired benchmark runs of two checkouts: does the change gain, and by how much.

Usage: python3 tools/paired_bench.py PARENT CHANGE --workload W --pairs N --seed0 K
       python3 tools/paired_bench.py PARENT CHANGE --workload W --interleave ROUNDS
           [--sets S] --seed0 K

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

--interleave times single calls instead of whole runs, which resolves
gains that the spread of 40-s runs hides.  Each checkout gets one
long-lived worker process that imports that tree's src/ and builds its
perfbench/workloads.py workload W with seed K, runs setup() and warmup(),
and then times one call() per request with perf_counter_ns; a figure1 call
solves one chunk of 53 replications (CALL_REPS).  Round i asks both workers
for call i, on the same inputs, the parent first in even rounds and the
change first in odd ones.  After each timed call the worker checks the
output with the workload's problems(); the tool exits 1 on the first
problem.  It prints each side's per-call median and quartiles, the
per-round ratio parent/change (its median and quartiles) and the rounds
the change was faster in.

--sets S runs S such interleaved sets one after another, set j with seed
K+j and a fresh pair of workers, and prints each set's summary as it ends,
then the median and the range of the sets' median ratios, the rounds
the change was faster in over all sets and a 95% bootstrap interval of
the median ratio over the sets.  figure1's median ratios have
moved more between sets with fresh workers than the quartiles of one set
suggest (benchmarks/ell_masks_runs.txt), so a claim of a few percent
rests on several sets.

After the last set, --interleave writes CHANGE/benchmarks/BENCH_<W>.json:
the git sha that each checkout's .git names (read from the files, so a
tree with uncommitted changes shows its HEAD), the machine (platform and
the CPU model of /proc/cpuinfo), the numpy and Python versions, the
rounds, sets and first seed, each set's per-call quartiles of both sides
with its ratio summary and wins, the summary over the sets
(sets_summary) and a seeded 95% bootstrap interval of the median ratio
that resamples the sets (bootstrap_interval).  An A/A run of one checkout (PARENT = CHANGE) records
that checkout's spread.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import math
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional


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


# Replications per figure1 call in --interleave: one streamed chunk at
# figure 1's (d, n, beta).
CALL_REPS = {"figure1": 53}


def serve(tree: str, workload: str, seed: str) -> None:
    """The --interleave worker: builds tree's workload, then answers each
    line i on stdin with the nanoseconds of call(i) and the workload's
    problems with its output, as one JSON line on stdout."""
    reply = sys.stdout
    sys.stdout = sys.stderr         # whatever the workload prints stays off the replies
    sys.path.insert(0, str(Path(tree) / "src"))
    spec = importlib.util.spec_from_file_location("workloads", Path(tree) / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with tempfile.TemporaryDirectory() as work_dir:
        wl = module.WORKLOADS[workload](int(seed), 1.0, work_dir)
        wl.setup()
        if workload in CALL_REPS:
            wl.reps = CALL_REPS[workload]
        wl.warmup()
        print("ready", file=reply, flush=True)
        for line in sys.stdin:
            i = int(line)
            t0 = time.perf_counter_ns()
            out = wl.call(i, module.MEASURED_PASS)
            ns = time.perf_counter_ns() - t0
            print(json.dumps({"ns": ns, "problems": wl.problems(i, out)}), file=reply, flush=True)


class Worker:
    """A serve() process for one checkout."""

    def __init__(self, tree: Path, workload: str, seed: int):
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import paired_bench; "
                "paired_bench.serve(*sys.argv[2:])")
        self.proc = subprocess.Popen(
            [sys.executable, "-c", code, str(Path(__file__).resolve().parent),
             str(tree), workload, str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError(f"the worker of {tree} did not start")

    def call(self, i: int) -> dict:
        self.proc.stdin.write(f"{i}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the worker stopped at call {i}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()         # the worker's loop ends at EOF
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def interleave_summary(parent_ns: list, change_ns: list) -> dict:
    """Per-call and per-round summaries of interleaved rounds: each side's
    spread.py summary in ms, the ratios parent/change of each round, and
    the rounds the change was faster in."""
    ratios = [p / c for p, c in zip(parent_ns, change_ns)]
    return {"parent": SPREAD.summarize([v / 1e6 for v in parent_ns]),
            "change": SPREAD.summarize([v / 1e6 for v in change_ns]),
            "ratio": SPREAD.summarize(ratios),
            "wins": sum(r > 1.0 for r in ratios), "rounds": len(ratios)}


def sets_summary(sets: list) -> dict:
    """Over interleave_summary results of several sets: the median and the
    range of their median ratios, and the rounds the change won of all."""
    medians = [s["ratio"]["median"] for s in sets]
    return {"median": statistics.median(medians), "lo": min(medians), "hi": max(medians),
            "wins": sum(s["wins"] for s in sets), "rounds": sum(s["rounds"] for s in sets)}


# The bootstrap of the median ratio over sets: resamples and seed.
BOOTSTRAP_RESAMPLES = 10_000
BOOTSTRAP_SEED = 0


def bootstrap_interval(sets: list, level: float = 0.95,
                       resamples: int = BOOTSTRAP_RESAMPLES,
                       seed: int = BOOTSTRAP_SEED) -> dict:
    """A percentile bootstrap interval of the median ratio over the sets
    (interleave_summary results): each resample draws as many sets as
    there are, with replacement, from a seeded random.Random, and takes
    the median of their median ratios.  Sets, not the rounds of one set,
    are resampled: the ratio moves more between sets with fresh workers
    than within one.  With few sets the interval is at most their range."""
    medians = [s["ratio"]["median"] for s in sets]
    rng = random.Random(seed)
    stats = sorted(statistics.median(rng.choices(medians, k=len(medians)))
                   for _ in range(resamples))
    tail = (1.0 - level) / 2.0
    return {"level": level, "resamples": resamples, "seed": seed,
            "lo": stats[int(tail * resamples)],
            "hi": stats[min(resamples, math.ceil((1.0 - tail) * resamples)) - 1]}


def git_sha(tree: Path) -> Optional[str]:
    """The commit tree's HEAD names, read from its .git (a directory, or a
    file `gitdir: PATH`), loose refs first, then packed-refs; None when
    there is no .git or the ref is not found."""
    git = tree / ".git"
    if git.is_file():
        git = tree / git.read_text().split("gitdir:", 1)[1].strip()
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref:"):
        return head
    ref = head[4:].strip()
    roots = [git]
    if (git / "commondir").is_file():       # a worktree keeps its refs there
        roots.append(git / (git / "commondir").read_text().strip())
    for root in roots:
        if (root / ref).is_file():
            return (root / ref).read_text().strip()
        packed = root / "packed-refs"
        if packed.is_file():
            for line in packed.read_text().splitlines():
                sha, _, name = line.partition(" ")
                if name == ref:
                    return sha
    return None


def cpu_model(cpuinfo: Path = Path("/proc/cpuinfo")) -> Optional[str]:
    """The first `model name` of cpuinfo, or None where there is none."""
    try:
        lines = cpuinfo.read_text().splitlines()
    except OSError:
        return None
    for line in lines:
        key, _, value = line.partition(":")
        if key.strip() == "model name":
            return value.strip()
    return None


def bench_record(parent: Path, change: Path, workload: str, rounds: int, seed0: int,
                 sets: list) -> dict:
    """The BENCH_<workload>.json document of interleaved sets (their
    interleave_summary results, set j on seed seed0 + j)."""
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None

    def quartiles(q: dict) -> dict:
        return {key: q[key] for key in ("q1", "median", "q3")}

    return {
        "workload": workload,
        "parent_sha": git_sha(parent), "change_sha": git_sha(change),
        "machine": {"platform": platform.platform(), "cpu": cpu_model()},
        "numpy": numpy, "python": platform.python_version(),
        "rounds": rounds, "sets": len(sets), "seed0": seed0,
        "per_set": [{"seed": seed0 + j, "parent_ms": quartiles(s["parent"]),
                     "change_ms": quartiles(s["change"]), "ratio": quartiles(s["ratio"]),
                     "wins": s["wins"], "rounds": s["rounds"]} for j, s in enumerate(sets)],
        "over_sets": sets_summary(sets),
        "bootstrap": bootstrap_interval(sets),
    }


def interleave(parent: Path, change: Path, workload: str, rounds: int,
               seed: int) -> Optional[dict]:
    """One interleaved set with a fresh pair of workers: prints and returns
    its interleave_summary, or None after a failure, which it reports."""
    workers = {}
    try:
        for side, tree in (("parent", parent), ("change", change)):
            workers[side] = Worker(tree, workload, seed)
        ns = {"parent": [], "change": []}
        for i in range(rounds):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                reply = workers[side].call(i)
                if reply["problems"]:
                    print(f"paired_bench: {side} call {i}: {reply['problems']}", file=sys.stderr)
                    return None
                ns[side].append(reply["ns"])
    except RuntimeError as exc:
        print(f"paired_bench: {exc}", file=sys.stderr)
        return None
    finally:
        for worker in workers.values():
            worker.close()
    s = interleave_summary(ns["parent"], ns["change"])
    print(f"interleaved {workload}: {rounds} rounds, seed {seed}, the parent first in even rounds")
    for side in ("parent", "change"):
        q = s[side]
        print(f"{side:6s} per call: median {q['median']:.4f} ms [{q['q1']:.4f}, {q['q3']:.4f}]")
    r = s["ratio"]
    print(f"ratio parent/change: median {r['median']:.4f} [{r['q1']:.4f}, {r['q3']:.4f}]")
    print(f"change faster in {s['wins']}/{s['rounds']} rounds", flush=True)
    return s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--interleave", type=int, metavar="ROUNDS",
                    help="time ROUNDS alternating single calls instead of paired runs")
    ap.add_argument("--sets", type=int, default=1,
                    help="with --interleave: run this many sets, each with fresh workers")
    args = ap.parse_args(argv)
    if args.sets != 1 and args.interleave is None:
        ap.error("--sets needs --interleave")
    if args.interleave is not None:
        if args.interleave < 2:
            ap.error("--interleave must be at least 2 to have quartiles")
        if args.sets < 1:
            ap.error("--sets must be at least 1")
        sets = []
        for j in range(args.sets):
            s = interleave(args.parent, args.change, args.workload, args.interleave,
                           args.seed0 + j)
            if s is None:
                return 1
            sets.append(s)
        if args.sets > 1:
            t, b = sets_summary(sets), bootstrap_interval(sets)
            print(f"{args.sets} sets: median ratio over the sets {t['median']:.4f} "
                  f"[range {t['lo']:.4f}, {t['hi']:.4f}]; change faster in "
                  f"{t['wins']}/{t['rounds']} rounds; {b['level']:.0%} bootstrap "
                  f"interval over sets [{b['lo']:.4f}, {b['hi']:.4f}]")
        out = args.change / "benchmarks" / f"BENCH_{args.workload}.json"
        out.parent.mkdir(exist_ok=True)
        record = bench_record(args.parent, args.change, args.workload, args.interleave,
                              args.seed0, sets)
        out.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {out}")
        return 0
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
