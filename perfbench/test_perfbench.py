"""Tests of the benchmark itself: tiny runs of every workload, the tracer's
clean-up, and that a corrupted output is counted as a failed call."""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.import_polylab()

import polylab  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = 0.05


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    metrics, passes, _ = run.run_benchmark(workload, workloads.DEFAULT_SEED,
                                           TINY, trace=0, setup_repeats=1)
    for name, unit in _units("end_to_end").items():
        value, got_unit = metrics[name]
        assert got_unit == unit and value > 0, name
    assert metrics["failed_frac"] == (0.0, "ratio")
    assert sum(p.failed for p in passes) == 0


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(workload):
    metrics, passes, _ = run.run_benchmark(workload, workloads.DEFAULT_SEED,
                                           TINY, trace=1)
    for name, unit in _units("per_layer").items():
        assert metrics[name][1] == unit, name
    assert sum(p.failed for p in passes) == 0
    value = {name: v for name, (v, _) in metrics.items()}
    assert value["engine.forward_backward.calls"] > 0
    assert 0 < value["trace.layer_coverage"] <= 1
    if workload == "figure1":
        assert value["engine.env_regen_ratio"] == pytest.approx(2.0, abs=1e-4)
    if workload == "scaling_d3":
        assert value["rng.variates"] == 0 and value["engine.env_layer.calls"] == 0
    if workload == "table_law":
        assert value["laws.quantile.values"] == value["rng.variates"] > 0
    if workload == "conditional":
        assert value["engine.solves_per_call"] == workloads.Conditional.resamples


def _bindings():
    mods = [m for name, m in sys.modules.items()
            if name == "polylab" or name.startswith("polylab.")]
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    snap[("EnvironmentLaw", "validate")] = polylab.laws.EnvironmentLaw.__dict__["validate"]
    return snap


def _same(a, b):
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def test_tracer_restores_every_attribute_even_when_the_run_raises():
    before = _bindings()
    with pytest.raises(RuntimeError, match="boom"):
        with tracer.Tracer():
            assert polylab.engine.forward_backward is not \
                before[("polylab.engine", "forward_backward")]
            assert polylab.functionals.env_layer is not \
                before[("polylab.functionals", "env_layer")]
            raise RuntimeError("boom")
    assert _same(before, _bindings())


def _scale_alpha(monkeypatch, factor):
    alpha_profile = polylab.functionals.alpha_profile
    monkeypatch.setattr(polylab.functionals, "alpha_profile",
                        lambda sol: alpha_profile(sol) * factor)


def _scale_ell(monkeypatch, factor):
    ell = polylab.functionals.ell
    monkeypatch.setattr(polylab.functionals, "ell",
                        lambda sol: (ell(sol)[0] * factor, *ell(sol)[1:]))


def _nan_log_partition(monkeypatch, _):
    solve = polylab.harness.forward_backward
    monkeypatch.setattr(polylab.harness, "forward_backward",
                        lambda *a, **kw: dataclasses.replace(
                            solve(*a, **kw), log_partition=float("nan")))


@pytest.mark.parametrize("workload, seed, corrupt, arg, expect", [
    # caught by the default seed's reference values only
    ("figure1", workloads.DEFAULT_SEED, _scale_alpha, 1 + 1e-9, "reference"),
    # caught by the benchmark's invariants on any seed
    ("figure1", 7, _nan_log_partition, None, "log Z"),
    # raised by polylab's own replication check, counted all the same
    ("figure1", 7, _scale_alpha, 50.0, "raised"),
    # scaling_d3's stored values hold for every seed
    ("scaling_d3", 7, _scale_ell, 1 + 1e-7, "reference"),
])
def test_corrupted_output_is_counted_as_failed(monkeypatch, workload, seed, corrupt,
                                               arg, expect):
    corrupt(monkeypatch, arg)
    metrics, passes, _ = run.run_benchmark(workload, seed, TINY, trace=0,
                                           setup_repeats=1)
    assert metrics["failed_frac"] == (1.0, "ratio")
    assert any(expect in q for q in passes[0].problems)
