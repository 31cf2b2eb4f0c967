#!/usr/bin/env python3
"""polylab benchmark: one workload, one closed-loop caller, serial.

    python3 perfbench/run.py --workload figure1 --seed 1 --seconds 40 --trace 0

Run from anywhere; polylab is imported from ``src/`` next to this
directory and nowhere else.  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` splits the seconds between an untraced pass and a pass with
the span tracer installed, and reports per-layer metrics and the tracing
overhead.  Human-readable lines start with ``#``; the last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics,
whose metric names are those listed in BENCHMARK.json.  A fuller record
(run context, every metric, every output problem) goes to
``perfbench/out/``; with tracing, the raw spans go there too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"
SETUP_REPEATS = 9
TAIL_BEYOND = 10                 # calls that must lie beyond the tail percentile


class BenchError(Exception):
    """The benchmark cannot run here (no polylab source, no BENCHMARK.json)."""


def prepare_process():
    """Serial, single-threaded and pinned to one CPU: steadier timings."""
    os.environ.pop("POLYLAB_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def import_polylab():
    """Import polylab from this checkout's src/, refusing any other copy."""
    init = SRC / "polylab" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no polylab source at {init}")
    sys.path.insert(0, str(SRC))
    import polylab
    if Path(polylab.__file__).resolve() != init.resolve():
        raise BenchError(f"imported polylab from {polylab.__file__}, not {init}")
    return polylab


def contract():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"missing {path}")
    return json.loads(path.read_text())


# -- measurement -----------------------------------------------------------


class Pass:
    def __init__(self):
        self.durations_ns = []
        self.cpu_ns = 0                  # process CPU time (user + system) of the calls
        self.items = 0
        self.failed = 0
        self.problems = []

    @property
    def seconds(self):
        return sum(self.durations_ns) / 1e9


def reference_problems(wl, i, pass_id, out, reference):
    expected = reference.get(wl.name, [])
    ref = wl.reference_index(i, pass_id)
    if ref is None or ref >= len(expected):
        return []
    bad = []
    for j, (got, exp) in enumerate(zip(wl.values(out), expected[ref])):
        for g, e in zip(got, exp):
            if not abs(g - e) <= wl.tolerance(e):
                bad.append(f"call {i} item {j}: {g!r} differs from reference "
                           f"{e!r} by more than {wl.tolerance(e):.3g}")
    return bad


def timed_pass(wl, pass_id, seconds, tracer=None, reference=None):
    """Closed loop: the next call starts when the previous one and its
    output check are done; calls stop once `seconds` of wall time passed."""
    p = Pass()
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        out = None
        c0 = time.process_time_ns()
        t0 = time.perf_counter_ns()
        try:
            if tracer is None:
                out = wl.call(i, pass_id)
            else:
                tracer.phase = "timed"
                try:
                    out = tracer.root(i, wl.call, i, pass_id)
                finally:
                    tracer.phase = None
        except Exception:
            p.problems.append(f"call {i} raised:\n{traceback.format_exc()}")
        p.durations_ns.append(time.perf_counter_ns() - t0)
        p.cpu_ns += time.process_time_ns() - c0
        if out is None:
            p.failed += 1
        else:
            p.items += wl.items(out)
            bad = wl.problems(i, out)
            if reference is not None:
                bad += reference_problems(wl, i, pass_id, out, reference)
            if bad:
                p.failed += 1
                p.problems += bad
        i += 1
        if wl.single_call or time.perf_counter() >= deadline:
            return p


def setup_seconds(workload, seed, seconds, repeats):
    """Wall time of fresh processes that start, import polylab, build and
    validate the law, make the inputs and exit; one sample per process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--setup-only"]
    samples = []
    for _ in range(repeats):
        # No timeout: with one, the wait polls in steps of up to 50 ms.
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples


def end_to_end(p, setup_samples):
    calls = len(p.durations_ns)
    ms = sorted(d / 1e6 for d in p.durations_ns)
    m = {
        "items_per_s": (p.items / p.seconds, "items/s"),
        "call_ms_p50": (statistics.median(ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "failed_frac": (p.failed / calls, "ratio"),
    }
    if calls > TAIL_BEYOND:
        m["call_ms_tail"] = (ms[calls - TAIL_BEYOND - 1], "ms")
    if setup_samples:
        m["setup_s"] = (statistics.median(setup_samples), "s")
    return m


def per_layer(tracer, traced, untraced):
    """Per-layer metrics of the traced timed phase, per item unless the
    unit says otherwise."""
    from tracer import ROOT_SPAN, TARGETS
    spans, counts = tracer.self_times("timed"), tracer.phase_counts["timed"]
    items = max(traced.items, 1)
    m = {}
    for name, (calls, self_ns) in sorted(spans.items()):
        m[f"{name}.self_ms"] = (self_ns / 1e6 / items, "ms/item")
        m[f"{name}.calls"] = (calls / items, "count/item")
    for name in ("rng.variates", "laws.quantile.values", "engine.env_cells",
                 "engine.cells_swept", "engine.bytes_computed"):
        m[name] = (counts.get(name, 0) / items,
                   "B/item" if name.endswith("bytes_computed") else "count/item")
    for name in [span for _, _, span, _ in TARGETS] + ["laws.quantile"]:
        m.setdefault(f"{name}.self_ms", (0.0, "ms/item"))
        m.setdefault(f"{name}.calls", (0.0, "count/item"))
    distinct = counts.get("engine.env_cells_distinct", 0)
    m["engine.env_regen_ratio"] = (
        counts.get("engine.env_cells", 0) / distinct if distinct else 0.0, "ratio")
    fb_calls, fb_ns = spans.get("engine.forward_backward", (0, 0))
    swept = counts.get("engine.cells_swept", 0)
    m["engine.ns_per_cell"] = (fb_ns / swept if swept else 0.0, "ns/cell")
    m["engine.solves_per_call"] = (fb_calls / len(traced.durations_ns), "count/call")
    m["laws.validate.self_ms"] = (
        tracer.self_times("setup").get("laws.validate", (0, 0))[1] / 1e6, "ms")
    m["trace.timed_wall_ms"] = (traced.seconds * 1e3 / items, "ms/item")
    m["trace.layer_coverage"] = (
        sum(ns for name, (_, ns) in spans.items() if name != ROOT_SPAN)
        / (traced.seconds * 1e9), "ratio")
    m["trace.overhead_frac"] = (
        (untraced.items / untraced.seconds) / (traced.items / traced.seconds) - 1.0,
        "ratio")
    return m


# -- run record ------------------------------------------------------------


def _command(*cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, timeout=30,
                              cwd=ROOT).stdout
    except (OSError, subprocess.SubprocessError):
        return ""


def run_record(args, timed):
    import numpy
    cpu = {}
    if shutil.which("lscpu"):
        for line in _command("lscpu").splitlines():
            key, _, val = line.partition(":")
            if key in ("Model name", "L1d cache", "L2 cache", "L3 cache"):
                cpu[key] = val.strip()
    if "Model name" not in cpu:
        try:
            for line in Path("/proc/cpuinfo").read_text().splitlines():
                if line.startswith("model name"):
                    cpu["Model name"] = line.partition(":")[2].strip()
                    break
        except OSError:
            pass
    return {
        "git_sha": ((ROOT / ".git").exists()
                    and _command("git", "rev-parse", "HEAD").strip()) or "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "timed_seconds": timed.seconds,
        "timed_cpu_seconds": timed.cpu_ns / 1e9,
        "calls": len(timed.durations_ns),
    }


# -- entry points ------------------------------------------------------------


def run_benchmark(workload, seed, seconds, trace, setup_repeats=SETUP_REPEATS):
    """Set up, warm up and measure one workload; return (metrics, pass
    results, tracer).  Does not pin or alter the process environment.

    Untraced, the timed pass gets all the seconds and the set-up samples
    are taken half before it and half after, so that they straddle the
    host's slower and faster spells.  Traced, the untraced and the traced
    pass get half the seconds each, so a traced run costs what an untraced
    one does."""
    import workloads
    from tracer import Tracer
    if trace:
        seconds /= 2
    wl = workloads.WORKLOADS[workload](seed, seconds, OUT_DIR)
    reference = json.loads(REFERENCE.read_text())["workloads"]
    tracer = Tracer() if trace else None
    if tracer is None:
        wl.setup()
    else:
        with tracer:
            tracer.phase = "setup"
            try:
                wl.setup()
            finally:
                tracer.phase = None
    try:
        wl.warmup()
    except Exception:            # the timed calls will fail and be counted
        traceback.print_exc()
    samples = []
    if tracer is None:
        samples = setup_seconds(workload, seed, seconds, (setup_repeats + 1) // 2)
    untraced = timed_pass(wl, workloads.MEASURED_PASS, seconds, reference=reference)
    passes = [untraced]
    if tracer is None:
        samples += setup_seconds(workload, seed, seconds, setup_repeats // 2)
        metrics = end_to_end(untraced, samples)
    else:
        with tracer:
            traced = timed_pass(wl, workloads.TRACED_PASS, seconds, tracer=tracer,
                                reference=reference)
        passes.append(traced)
        metrics = per_layer(tracer, traced, untraced)
    return metrics, passes, tracer


def write_reference():
    """Record the default seed's outputs of the measured pass (the first
    reference_calls calls of each workload) in reference.json."""
    import workloads
    out = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(workloads.DEFAULT_SEED, 0, OUT_DIR)
        wl.setup()
        if name == "figure1":
            wl.reps = wl.reference_reps
        calls = []
        for i in range(wl.reference_calls):
            result = wl.call(i, workloads.MEASURED_PASS)
            bad = wl.problems(i, result)
            if bad:
                raise BenchError(f"{name} call {i}: {bad}")
            calls.append(wl.values(result))
        out[name] = calls
        print(f"# {name}: {len(calls)} calls recorded", flush=True)
    REFERENCE.write_text(json.dumps(
        {"seed": workloads.DEFAULT_SEED, "workloads": out}) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up the workload and exit (one setup_s sample)")
    ap.add_argument("--write-reference", action="store_true",
                    help="record the default seed's outputs in reference.json")
    args = ap.parse_args(argv)
    prepare_process()              # before numpy is imported: thread counts
    try:
        spec = contract()
        import_polylab()
        import workloads
        if args.write_reference:
            write_reference()
            return 0
        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {sorted(workloads.WORKLOADS)}")
        if not REFERENCE.is_file():
            raise BenchError(f"missing {REFERENCE}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        workloads.WORKLOADS[args.workload](args.seed, args.seconds, OUT_DIR).setup()
        return 0

    metrics, passes, tracer = run_benchmark(args.workload, args.seed,
                                            args.seconds, args.trace)
    attempted = sum(len(p.durations_ns) for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        for problem in p.problems:
            print(f"perfbench: {problem}", file=sys.stderr)
    record = run_record(args, passes[-1])
    if "call_ms_tail" in metrics:
        record["call_ms_tail_percentile"] = 100 * (1 - TAIL_BEYOND / record["calls"])
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(
        {"record": record, "attempted": attempted, "failed": failed,
         "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
         "problems": [q for p in passes for q in p.problems]}, indent=1) + "\n")
    if tracer is not None:
        tracer.save(OUT_DIR / f"spans-{args.workload}.npz")

    print(f"# record {json.dumps(record, sort_keys=True)}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"# {name} = {value!r} {unit}")
    listed = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in listed}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
