"""tools/paired_bench.py: the summary of paired parent/change runs."""

import ast
import dataclasses
import importlib.util
import json
import os
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

import polylab

_SPEC = importlib.util.spec_from_file_location(
    "paired_bench", Path(__file__).resolve().parent.parent / "tools" / "paired_bench.py")
paired_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(paired_bench)

ROOT = Path(__file__).resolve().parent.parent

METRICS = [{"name": "items_per_s", "unit": "items/s", "better": "higher", "bound": 0.25},
           {"name": "call_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
           {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1}]


def runs(items, ms, rss):
    return [{"items_per_s": i, "call_ms_p50": m, "peak_rss_mb": r}
            for i, m, r in zip(items, ms, rss)]


def test_summary_counts_wins_and_checks_the_gain_rule():
    parent = runs([100, 104, 96, 102, 98, 100, 103, 97, 101, 99],
                  [50, 52, 48, 51, 49, 50, 50, 50, 50, 50],
                  [46, 46, 46, 46, 46, 46, 46, 46, 46, 46])
    # items: 9 wins and a median 20.5 above the parent's (quartiles by
    # perfbench/spread.py's exclusive method, spread 4.5): a gain.  ms: 8
    # wins of 10, so no gain however far the medians lie.  rss: one win and
    # nine ties, which count for neither side.
    change = runs([120, 125, 118, 121, 119, 122, 124, 117, 121, 90],
                  [40, 41, 39, 40, 40, 41, 40, 40, 55, 60],
                  [44, 46, 46, 46, 46, 46, 46, 46, 46, 46])
    rows = {row["name"]: row for row in paired_bench.summarize(parent, change, METRICS)}
    items = rows["items_per_s"]
    assert (items["wins"], items["pairs"], items["gain"]) == (9, 10, True)
    assert [items["parent"][k] for k in ("q1", "median", "q3")] == [97.75, 100.0, 102.25]
    assert [items["change"][k] for k in ("q1", "median", "q3")] == [117.75, 120.5, 122.5]
    assert (rows["call_ms_p50"]["wins"], rows["call_ms_p50"]["gain"]) == (8, False)
    assert (rows["peak_rss_mb"]["wins"], rows["peak_rss_mb"]["gain"]) == (1, False)


def test_nine_wins_within_the_parents_spread_are_no_gain():
    parent = runs([90, 110, 95, 105, 100, 92, 108, 97, 103, 100], [1] * 10, [1] * 10)
    change = runs([v + 1 for v in [90, 110, 95, 105, 100, 92, 108, 97, 103]] + [99],
                  [1] * 10, [1] * 10)
    row = paired_bench.summarize(parent, change, METRICS[:1])[0]
    assert row["wins"] == 9 and not row["gain"]
    assert (row["parent"]["q1"], row["parent"]["q3"]) == (94.25, 105.75)


def fake_tree(root, correct):
    """A checkout whose perfbench/spread.py runs nothing: each run reports
    items_per_s = seed and the given correct flag."""
    (root / "perfbench").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text(json.dumps(
        {"command": [], "run_seconds": 40, "end_to_end": METRICS[:1]}))
    (root / "perfbench" / "spread.py").write_text(
        "def run_once(spec, workload, seed, trace):\n"
        "    assert spec['run_seconds'] == 40 and trace == 0\n"
        f"    return ({{'correct': {correct}, 'failed': 1, 'attempted': 2,\n"
        "             'metrics': {'items_per_s': {'value': float(seed)}}}, {})\n")
    return root


def test_main_prints_every_run_and_stops_at_a_wrong_one(tmp_path, capsys):
    good = str(fake_tree(tmp_path / "good", True))
    bad = str(fake_tree(tmp_path / "bad", False))
    assert paired_bench.main([good, good, "--workload", "w", "--pairs", "2", "--seed0", "5"]) == 0
    out = capsys.readouterr().out
    assert out.count("items_per_s=5") == 2 and out.count("items_per_s=6") == 2
    assert " 0/2  no" in out
    assert paired_bench.main([good, bad, "--workload", "w", "--pairs", "2"]) == 1
    assert "change seed 1: correct: false" in capsys.readouterr().err


def stub_tree(root, name, sleep_ms, log, bad_call=None):
    """A checkout with a stub src/polylab and a perfbench/workloads.py
    with one workload "w" that reads the package through
    polylab_modules(), as the real workloads do.  Every tree gets the same
    workloads.py: the package logs "load NAME PID" when it loads, and each
    call sleeps its SLEEP_MS, appends "NAME i pass seed" to log, and has a
    problem at its BAD_CALL."""
    (root / "src" / "polylab").mkdir(parents=True)
    (root / "src" / "polylab" / "__init__.py").write_text("from . import core\n")
    (root / "src" / "polylab" / "core.py").write_text(
        "import os\n"
        f"NAME, SLEEP_MS, BAD_CALL = {name!r}, {sleep_ms!r}, {bad_call!r}\n"
        f"with open({str(log)!r}, 'a') as fh:\n"
        "    fh.write('load %s %d\\n' % (NAME, os.getpid()))\n")
    (root / "perfbench").mkdir()
    (root / "perfbench" / "workloads.py").write_text(
        "import sys, time\n"
        "MEASURED_PASS = 0\n"
        "def polylab_modules():\n"
        "    import polylab\n"
        "    return {'core': sys.modules['polylab.core']}\n"
        "class W:\n"
        "    def __init__(self, seed, seconds, work_dir):\n"
        "        self.seed = seed\n"
        "        self.pl = polylab_modules()\n"
        "    def setup(self):\n"
        "        print('setup output stays off the result')\n"
        "    def warmup(self):\n"
        "        pass\n"
        "    def call(self, i, pass_id):\n"
        "        core = self.pl['core']\n"
        "        time.sleep(core.SLEEP_MS / 1000)\n"
        f"        with open({str(log)!r}, 'a') as fh:\n"
        "            fh.write('%s %d %d %d\\n' % (core.NAME, i, pass_id, self.seed))\n"
        "        return i\n"
        "    def problems(self, i, out):\n"
        "        return ['wrong output'] if i == self.pl['core'].BAD_CALL else []\n"
        "WORKLOADS = {'w': W}\n")
    return str(root)


def loads(lines):
    """The (name, pid) of each "load NAME PID" line of a stub log."""
    return [tuple(line.split()[1:]) for line in lines if line.startswith("load ")]


def test_interleave_alternates_the_first_side_and_times_each_call(tmp_path, capfd):
    log = tmp_path / "calls.log"
    slow = stub_tree(tmp_path / "slow", "slow", 40, log)
    fast = stub_tree(tmp_path / "fast", "fast", 5, log)
    assert paired_bench.main([slow, fast, "--workload", "w", "--interleave", "4",
                              "--seed0", "9"]) == 0
    lines = log.read_text().splitlines()
    # one process loads the parent's package twice, for the untimed ballast
    # and for the parent, then the change's; each round opens with the
    # ballast's call i (a copy of the parent's tree here), then the parent
    # first in even rounds, the change first in odd ones; all three make
    # call i of the measured pass with the same seed, each on its own
    # tree's package
    (ballast, pid), (parent, pid1), (change, pid2) = loads(lines[:3])
    assert (ballast, parent, change) == ("slow", "slow", "fast")
    assert pid == pid1 == pid2 != str(os.getpid())
    assert lines[3:] == [
        "slow 0 0 9", "slow 0 0 9", "fast 0 0 9",
        "slow 1 0 9", "fast 1 0 9", "slow 1 0 9",
        "slow 2 0 9", "slow 2 0 9", "fast 2 0 9",
        "slow 3 0 9", "fast 3 0 9", "slow 3 0 9"]
    out, err = capfd.readouterr()
    assert "interleaved w: 4 rounds, seed 9" in out
    assert "the parent's tree loaded first" in out
    assert "change faster in 4/4 rounds" in out
    ratio = float(out.split("ratio parent/change: median ")[1].split()[0])
    assert ratio > 2.0
    # what the workloads print goes to stderr, not into the result
    assert "setup output stays off the result" not in out
    assert err.count("setup output stays off the result") == 3


def fake_git(tree, head, refs=None, packed=None):
    """A .git directory in tree with the given HEAD, loose refs and
    packed-refs lines."""
    git = Path(tree) / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text(head + "\n")
    for name, sha in (refs or {}).items():
        (git / name).write_text(sha + "\n")
    if packed:
        (git / "packed-refs").write_text("# pack-refs with: peeled\n" + "\n".join(packed) + "\n")
    return git


def test_interleave_writes_the_bench_file(tmp_path, capsys):
    log = tmp_path / "calls.log"
    slow = stub_tree(tmp_path / "slow", "slow", 20, log)
    fast = stub_tree(tmp_path / "fast", "fast", 2, log)
    fake_git(slow, "ref: refs/heads/main", refs={"refs/heads/main": "a" * 40})
    fake_git(fast, "ref: refs/heads/topic", packed=[f"{'b' * 40} refs/heads/topic"])
    assert paired_bench.main([slow, fast, "--workload", "w", "--interleave", "3",
                              "--sets", "2", "--seed0", "4"]) == 0
    out = Path(fast) / "benchmarks" / "BENCH_w.json"
    assert f"wrote {out}" in capsys.readouterr().out
    record = json.loads(out.read_text())
    assert record["workload"] == "w"
    assert (record["parent_sha"], record["change_sha"]) == ("a" * 40, "b" * 40)
    assert (record["rounds"], record["sets"], record["seed0"]) == (3, 2, 4)
    assert record["machine"]["cpu"] == paired_bench.cpu_model()
    assert record["machine"]["platform"] and record["python"].count(".") == 2
    assert record["numpy"] == np.__version__
    assert [s["seed"] for s in record["per_set"]] == [4, 5]
    for s in record["per_set"]:
        assert (s["wins"], s["rounds"]) == (3, 3)
        for key in ("parent_ms", "change_ms", "ratio"):
            assert list(s[key]) == ["q1", "median", "q3"]
        assert s["parent_ms"]["median"] > 15 > 5 > s["change_ms"]["median"]
    over = record["over_sets"]
    assert (over["wins"], over["rounds"]) == (6, 6)
    assert over["lo"] <= over["median"] <= over["hi"]
    assert over["median"] == statistics.median(s["ratio"]["median"] for s in record["per_set"])


def test_an_aa_run_of_a_tree_without_git_records_no_sha(tmp_path):
    tree = stub_tree(tmp_path / "tree", "tree", 0, tmp_path / "calls.log")
    assert paired_bench.main([tree, tree, "--workload", "w", "--interleave", "2"]) == 0
    record = json.loads((Path(tree) / "benchmarks" / "BENCH_w.json").read_text())
    assert record["parent_sha"] is record["change_sha"] is None
    assert record["per_set"][0]["rounds"] == 2


def test_git_sha_reads_detached_heads_and_gitdir_files(tmp_path):
    fake_git(tmp_path / "detached", "c" * 40)
    assert paired_bench.git_sha(tmp_path / "detached") == "c" * 40
    # a worktree: .git is a file naming its git dir, whose commondir holds the refs
    main = fake_git(tmp_path / "main", "ref: refs/heads/main", refs={"refs/heads/main": "d" * 40})
    wt_git = main / "worktrees" / "wt"
    wt_git.mkdir(parents=True)
    (wt_git / "HEAD").write_text("ref: refs/heads/main\n")
    (wt_git / "commondir").write_text("../..\n")
    (tmp_path / "wt").mkdir()
    (tmp_path / "wt" / ".git").write_text(f"gitdir: {wt_git}\n")
    assert paired_bench.git_sha(tmp_path / "wt") == "d" * 40
    fake_git(tmp_path / "dangling", "ref: refs/heads/gone")
    assert paired_bench.git_sha(tmp_path / "dangling") is None
    assert paired_bench.git_sha(tmp_path) is None


def test_cpu_model_reads_the_first_model_name(tmp_path):
    info = tmp_path / "cpuinfo"
    info.write_text("processor\t: 0\nmodel name\t: Test CPU @ 2.0GHz\n\n"
                    "processor\t: 1\nmodel name\t: Other\n")
    assert paired_bench.cpu_model(info) == "Test CPU @ 2.0GHz"
    info.write_text("processor\t: 0\n")
    assert paired_bench.cpu_model(info) is None
    assert paired_bench.cpu_model(tmp_path / "missing") is None


def test_interleave_stops_at_a_problem(tmp_path, capfd):
    log = tmp_path / "calls.log"
    good = stub_tree(tmp_path / "good", "good", 0, log)
    bad = stub_tree(tmp_path / "bad", "bad", 0, log, bad_call=1)
    assert paired_bench.main([good, bad, "--workload", "w", "--interleave", "5"]) == 1
    err = capfd.readouterr().err
    assert "change call 1: ['wrong output']" in err
    assert "the set on seed 1 failed (exit 1)" in err
    assert log.read_text().splitlines()[-1] == "bad 1 0 1"
    assert not (Path(bad) / "benchmarks").exists()      # a failed run writes no record
    # a workload that cannot be built
    assert paired_bench.main([good, good, "--workload", "nope", "--interleave", "2"]) == 1
    err = capfd.readouterr().err
    assert "KeyError: 'nope'" in err and "the set on seed 1 failed (exit 1)" in err
    assert not (Path(good) / "benchmarks").exists()


def test_interleave_summary_on_fixed_numbers():
    parent = [10e6, 12e6, 11e6, 13e6, 10e6]
    change = [8e6, 10e6, 12e6, 10e6, 10e6]
    s = paired_bench.interleave_summary(parent, change)
    assert (s["wins"], s["rounds"]) == (3, 5)       # a tie is no win
    assert s["parent"]["median"] == 11.0 and s["change"]["median"] == 10.0
    assert s["ratio"]["median"] == 1.2
    assert s["ratio"]["values"] == [1.25, 1.2, 11 / 12, 1.3, 1.0]


def test_sets_run_in_fresh_processes_on_consecutive_seeds(tmp_path, capsys):
    log = tmp_path / "calls.log"
    slow = stub_tree(tmp_path / "slow", "slow", 20, log)
    fast = stub_tree(tmp_path / "fast", "fast", 2, log)
    assert paired_bench.main([slow, fast, "--workload", "w", "--interleave", "2",
                              "--sets", "3", "--seed0", "7"]) == 0
    lines = log.read_text().splitlines()
    # per set: a new process loads the ballast and both packages, the
    # parent's first in even sets, then two rounds on the set's seed, each
    # opened by the ballast's call (a copy of the tree loaded first)
    pids = []
    for j, seed in enumerate((7, 8, 9)):
        (ballast, pid), (first, pid1), (second, pid2) = loads(lines[9 * j:9 * j + 3])
        assert (ballast, first, second) == (("slow", "slow", "fast") if j % 2 == 0
                                            else ("fast", "fast", "slow"))
        assert pid == pid1 == pid2
        pids.append(pid)
        assert lines[9 * j + 3:9 * j + 9] == [
            f"{ballast} 0 0 {seed}", f"slow 0 0 {seed}", f"fast 0 0 {seed}",
            f"{ballast} 1 0 {seed}", f"fast 1 0 {seed}", f"slow 1 0 {seed}"]
    assert len(set(pids)) == 3 and str(os.getpid()) not in pids
    out = capsys.readouterr().out
    assert [f"seed {s}," in out for s in (7, 8, 9)] == [True] * 3
    assert out.count("change faster in 2/2 rounds") == 3
    assert "3 sets: median ratio over the sets " in out
    assert "change faster in 6/6 rounds" in out
    record = json.loads((Path(fast) / "benchmarks" / "BENCH_w.json").read_text())
    assert [s["loaded_first"] for s in record["per_set"]] == ["parent", "change", "parent"]


def test_sets_summary_on_fixed_numbers():
    sets = [{"ratio": {"median": m}, "wins": w, "rounds": 10}
            for m, w in ((1.02, 7), (0.97, 4), (1.10, 9))]
    assert paired_bench.sets_summary(sets) == {
        "median": 1.02, "lo": 0.97, "hi": 1.10, "wins": 20, "rounds": 30}


def test_sets_need_interleave(tmp_path):
    with pytest.raises(SystemExit):
        paired_bench.main([str(tmp_path), str(tmp_path), "--workload", "w", "--sets", "2"])
    with pytest.raises(SystemExit):
        paired_bench.main([str(tmp_path), str(tmp_path), "--workload", "w",
                           "--interleave", "2", "--sets", "0"])


def ratio_sets(medians, rounds=None):
    """interleave_summary-shaped sets with the given median ratios."""
    return [{"ratio": {"median": m, "values": rounds}, "wins": 0, "rounds": 1}
            for m in medians]


def test_bootstrap_interval_resamples_sets_on_fixed_numbers():
    medians = [1.02, 0.97, 1.10, 1.04, 0.99]
    b = paired_bench.bootstrap_interval(ratio_sets(medians))
    assert (b["level"], b["resamples"], b["seed"]) == (0.95, 10_000, 0)
    assert min(medians) <= b["lo"] <= statistics.median(medians) <= b["hi"] <= max(medians)
    assert b["lo"] in medians and b["hi"] in medians   # a median of 5 drawn set medians
    assert paired_bench.bootstrap_interval(ratio_sets(medians)) == b    # seeded
    assert paired_bench.bootstrap_interval(ratio_sets(medians), seed=1)["lo"] in medians
    # three sets: a resample's median is the low set's in 7 of 27 draws, so
    # the 2.5% and 97.5% points are the lowest and the highest set
    three = paired_bench.bootstrap_interval(ratio_sets([1.02, 0.97, 1.10]))
    assert (three["lo"], three["hi"]) == (0.97, 1.10)
    one = paired_bench.bootstrap_interval(ratio_sets([1.25]))
    assert (one["lo"], one["hi"]) == (1.25, 1.25)


def test_bootstrap_interval_ignores_the_rounds_within_a_set():
    """Sets whose rounds spread widely but whose medians agree give an
    interval of that median alone: the rounds are not resampled."""
    b = paired_bench.bootstrap_interval(ratio_sets([1.2] * 4, rounds=[0.5, 1.2, 3.0]))
    assert (b["lo"], b["hi"]) == (1.2, 1.2)


def test_the_bench_file_holds_the_bootstrap(tmp_path, capsys):
    log = tmp_path / "calls.log"
    slow = stub_tree(tmp_path / "slow", "slow", 20, log)
    fast = stub_tree(tmp_path / "fast", "fast", 2, log)
    assert paired_bench.main([slow, fast, "--workload", "w", "--interleave", "2",
                              "--sets", "3", "--seed0", "1"]) == 0
    assert "95% bootstrap interval over sets [" in capsys.readouterr().out
    record = json.loads((Path(fast) / "benchmarks" / "BENCH_w.json").read_text())
    medians = [s["ratio"]["median"] for s in record["per_set"]]
    b = record["bootstrap"]
    assert (b["lo"], b["hi"]) == (min(medians), max(medians))
    assert b == paired_bench.bootstrap_interval(
        [{"ratio": {"median": m}} for m in medians])


def test_the_package_imports_itself_only_relatively():
    """--interleave loads each tree's src/polylab under its own name; an
    absolute import of polylab inside it would load another copy."""
    relative = 0
    for path in sorted((ROOT / "src" / "polylab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                relative += node.level > 0
                names = [node.module or ""] if node.level == 0 else []
            else:
                continue
            assert all(name.split(".")[0] != "polylab" for name in names), \
                f"{path.name}:{node.lineno} imports polylab absolutely"
    assert relative >= 10


def test_the_package_under_another_name_solves_bit_for_bit():
    """A streamed batch (d=1, n=30, beta=3, five seeds) solved by the copy
    of src/polylab loaded as polylab_copy gives polylab's records, bit for
    bit, from the copy's own modules."""
    try:
        copy = paired_bench.load_package(ROOT, "polylab_copy")
        assert copy.harness.__name__ == "polylab_copy.harness"
        assert copy.harness.forward_backward is copy.engine.forward_backward
        assert copy.engine is not polylab.engine
        records = {}
        for package in (polylab, copy):
            config = package.ExperimentConfig(d=1, n=30, beta=3.0, law_spec="uniform:-1,1",
                                              replications=5, base_seed=11)
            records[package.__name__] = [
                dataclasses.astuple(r) for r in package.run_replications(config, workers=1)]
        want = records["polylab"]
        assert len(want) == 5
        assert np.array(records["polylab_copy"]).tobytes() == np.array(want).tobytes()
    finally:
        for name in [name for name in sys.modules if name.split(".")[0] == "polylab_copy"]:
            del sys.modules[name]
    assert "polylab_copy" not in sys.modules
