"""tools/paired_bench.py: the summary of paired parent/change runs."""

import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "paired_bench", Path(__file__).resolve().parent.parent / "tools" / "paired_bench.py")
paired_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(paired_bench)

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
