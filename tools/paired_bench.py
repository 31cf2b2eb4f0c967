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
gains that the spread of 40-s runs hides.  A set runs in one fresh Python
process that holds both trees: it loads each tree's src/polylab under its
own package name (polylab_parent, polylab_change; the package imports
itself only relatively, so each copy's submodules come from its own
tree) and builds that tree's perfbench/workloads.py workload W with
`polylab` bound to that tree's package while the workload is made, set
up and warmed up.  A figure1 call solves one chunk of 53 replications
(CALL_REPS).  Round i makes call i of the ballast (below), untimed, and
then times call i of both workloads with perf_counter_ns, on the same
inputs, the parent first in even rounds and the change first in odd
ones, and checks each output with the workload's
problems(); the tool exits 1 on the first problem, or when a workload
cannot be built.  Whatever the workloads print goes to stderr.  The tool
prints each side's per-call median and quartiles, the per-round ratio
parent/change (its median and quartiles) and the rounds the change was
faster in.  Timing both trees in one process removes the few percent
that followed each tree's own process state when every tree had a
process of its own.

The first workload warmed in a process runs slower than the next for as
long as it lives: the tree warmed second read 0.6-1.2% faster on
scaling_d3 and about 0.7% on figure1.  So a set first builds and warms a
third copy of one tree (polylab_ballast), which it keeps and never
times; the tree built second then read about 0.3% faster on scaling_d3
and no faster on figure1.  Without the ballast's call before each round,
the first call of every round after the first followed a call of its
own tree (p c | c p | p c ...), whose data it found in the caches: in
eight A/A sets of scaling_d3 (300 rounds, 2-vCPU Xeon) every set's
even-round median ratio read 1.2-3.4% below its odd-round one.  With
it, each round's first call follows a call of neither side, and the two
medians agreed to within 0.7%, either way.

--sets S runs S such interleaved sets one after another, set j in a new
process with seed K+j, and prints each set's summary as it ends, then
the median and the range of the sets' median ratios, the rounds the
change was faster in over all sets and a 95% bootstrap interval of the
median ratio over the sets.  Set j builds the parent's workload first
(after the ballast, a copy of the parent's tree) when j is even and the
change's first when j is odd, so that an even number of sets balances
what order effect is left.

After the last set, --interleave writes CHANGE/benchmarks/BENCH_<W>.json:
the git sha that each checkout's .git names (read from the files, so a
tree with uncommitted changes shows its HEAD), the machine (platform and
the CPU model of /proc/cpuinfo), the numpy and Python versions, the
rounds, sets and first seed, each set's per-call quartiles of both sides
with its ratio summary, wins and the tree loaded first, the summary over
the sets (sets_summary) and a seeded 95% bootstrap interval of the median
ratio that resamples the sets (bootstrap_interval).  An A/A run of one
checkout (PARENT = CHANGE) records that checkout's spread.
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


def load(name: str, path: Path, **spec_args):
    """The module at path (a package's __init__.py with
    submodule_search_locations), run and registered in sys.modules as name."""
    spec = importlib.util.spec_from_file_location(name, path, **spec_args)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_spread(tree: Path):
    """tree's perfbench/spread.py, whose run_once runs the benchmark in tree."""
    return load("spread", tree / "perfbench" / "spread.py")


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


def load_package(tree: Path, name: str):
    """tree's src/polylab as the package name.  The package imports itself
    only relatively, so its submodules load as name.engine, name.harness,
    ... from the same tree."""
    src = tree / "src" / "polylab"
    return load(name, src / "__init__.py", submodule_search_locations=[str(src)])


def build(tree: Path, side: str, workload: str, seed: int, work_dir: str):
    """tree's workloads module and its workload, made, set up and warmed up
    while `polylab` and `polylab.<sub>` in sys.modules name tree's package,
    loaded as polylab_<side>, and its submodules."""
    package = load_package(tree, f"polylab_{side}")
    sys.modules.update({"polylab" + name[len(package.__name__):]: module
                        for name, module in list(sys.modules.items())
                        if name.split(".")[0] == package.__name__})
    module = load(f"workloads_{side}", tree / "perfbench" / "workloads.py")
    wl = module.WORKLOADS[workload](seed, 1.0, str(Path(work_dir) / side))
    wl.setup()
    if workload in CALL_REPS:
        wl.reps = CALL_REPS[workload]
    wl.warmup()
    for name in [name for name in sys.modules if name.split(".")[0] == "polylab"]:
        del sys.modules[name]
    return module, wl


def run_set(parent: str, change: str, workload: str, rounds: int, seed: int,
            first: str) -> None:
    """One interleaved set, in a process of its own: builds the ballast
    and both trees' workloads, first's first, times the rounds, each after
    an untimed call of the ballast, and prints the nanoseconds of each
    side's calls as one JSON line on stdout.  Exits with a message at the
    first problem."""
    result = sys.stdout
    sys.stdout = sys.stderr         # whatever the workloads print stays off the result
    trees = {"parent": Path(parent), "change": Path(change)}
    with tempfile.TemporaryDirectory() as work_dir:
        # untimed, in the place of the first workload warmed
        ballast, ballast_wl = build(trees[first], "ballast", workload, seed, work_dir)
        built = {side: build(trees[side], side, workload, seed, work_dir)
                 for side in (first, "change" if first == "parent" else "parent")}
        ns = {"parent": [], "change": []}
        for i in range(rounds):
            # so that neither side's first call follows a call of its own tree
            ballast_wl.call(i, ballast.MEASURED_PASS)
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                module, wl = built[side]
                t0 = time.perf_counter_ns()
                out = wl.call(i, module.MEASURED_PASS)
                ns[side].append(time.perf_counter_ns() - t0)
                problems = wl.problems(i, out)
                if problems:
                    sys.exit(f"paired_bench: {side} call {i}: {problems}")
    print(json.dumps(ns), file=result, flush=True)


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
    are resampled: the ratio moves more between sets, each in a fresh
    process, than within one.  With few sets the interval is at most their range."""
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
                     "wins": s["wins"], "rounds": s["rounds"],
                     "loaded_first": s["loaded_first"]} for j, s in enumerate(sets)],
        "over_sets": sets_summary(sets),
        "bootstrap": bootstrap_interval(sets),
    }


def interleave(parent: Path, change: Path, workload: str, rounds: int,
               seed: int, first: str) -> Optional[dict]:
    """One interleaved set in a fresh process that loads first's tree
    first: prints and returns its interleave_summary with the tree loaded
    first, or None after a failure, which it reports."""
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import paired_bench; "
            "paired_bench.run_set(**json.loads(sys.argv[2]))")
    args = {"parent": str(parent), "change": str(change), "workload": workload,
            "rounds": rounds, "seed": seed, "first": first}
    proc = subprocess.run([sys.executable, "-c", code, str(Path(__file__).resolve().parent),
                           json.dumps(args)], stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        print(f"paired_bench: the set on seed {seed} failed (exit {proc.returncode})",
              file=sys.stderr)
        return None
    ns = json.loads(proc.stdout)
    s = dict(interleave_summary(ns["parent"], ns["change"]), loaded_first=first)
    print(f"interleaved {workload}: {rounds} rounds, seed {seed}, the parent first in "
          f"even rounds, the {first}'s tree loaded first")
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
                    help="with --interleave: run this many sets, each in a fresh process")
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
                           args.seed0 + j, "parent" if j % 2 == 0 else "change")
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
