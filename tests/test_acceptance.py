"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Criteria 01-07 and 11 call polylab.verify's check
families, which hold their sizes and tolerances; the others fix both here.
"""

import math
import time

import numpy as np
import pytest

from polylab import verify
from polylab.engine import PolymerInstance, forward_backward, sample_paths
from polylab.functionals import rho
from polylab.harness import (ExperimentConfig, report_file, report_rows,
                             run_replications, scaling_study)
from polylab.lattice import site_cells
from polylab.rng import derive_seed

FIG1 = ExperimentConfig(d=1, n=300, beta=3.0, law_spec="uniform:-1,1",
                        replications=1000, base_seed=20250823)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def figure1_records():
    return run_replications(FIG1)


def test_criterion_01_oracle_equivalence():
    t0 = time.perf_counter()
    (rec,) = verify.oracle_equivalence()
    elapsed = time.perf_counter() - t0
    _report(1, "oracle equivalence (25 instances)", rec["passed"] and elapsed < 30.0,
            f"{rec['detail']}, {elapsed:.1f}s")


def test_criterion_02_normalization():
    (rec,) = verify.layer_normalization()
    _report(2, "layer normalization over 300 layers", rec["passed"], rec["detail"])


@pytest.fixture(scope="module")
def chain_records():
    return verify.chain_and_floors()


def test_criterion_03_proposition1_chain(chain_records):
    _report(3, "overlap chain ell^2 <= rho <= ell on 100 instances",
            chain_records[0]["passed"], chain_records[0]["detail"])


def test_criterion_04_floor_bounds(chain_records):
    _report(4, "alpha_k >= (2k+1)^-d and rho >= 1/(3^d n)", chain_records[1]["passed"])


def test_criterion_05_derivative_identity():
    (rec,) = verify.derivative_identity()
    _report(5, "theta sensitivity identity at 100 random sites", rec["passed"],
            rec["detail"])


def test_criterion_06_zero_layer_sandwich():
    sandwich, bound = verify.zero_layer_bounds()
    _report(6, "zero-layer sandwich and conditional overlap bound",
            sandwich["passed"] and bound["passed"], bound["detail"])


def test_criterion_07_beta0_reduction():
    (rec,) = verify.beta0_reduction()
    _report(7, "beta=0 equals the simple random walk", rec["passed"], rec["detail"])


def test_criterion_08_scaling():
    t0 = time.perf_counter()
    _, slope1 = scaling_study(1, [64, 128, 256, 512, 1024])
    _, slope3 = scaling_study(3, [8, 16, 32])
    elapsed = time.perf_counter() - t0
    _report(8, "beta=0 localization-degree scaling",
            -0.65 <= slope1 <= -0.35 and -1.3 <= slope3 <= -0.7
            and elapsed < 120.0,
            f"d=1 slope {slope1:.3f}, d=3 slope {slope3:.3f}, {elapsed:.1f}s")


def test_criterion_09_sampler():
    inst = PolymerInstance(d=1, n=30, beta=3.0, law=verify.LAW, seed=9009)
    sol = forward_backward(inst)
    rng = np.random.default_rng(derive_seed(9009, 1, 0x5A3))
    m = 50_000
    paths = sample_paths(sol, m, rng)

    exceed = total = 0
    for k in range(1, 31):
        t = sol.theta_array(k)
        freq = np.bincount(site_cells(1, k, paths[:, k - 1]), minlength=t.size) / m
        live = t > 0
        se = np.sqrt(np.maximum(t[live] * (1 - t[live]), 1e-300) / m)
        exceed += int(np.sum(np.abs(freq[live] - t[live]) > 4 * se))
        total += int(live.sum())

    pairs = m // 2
    # the steps at which the two paths of each pair coincide
    ov = np.all(paths[0:2 * pairs:2] == paths[1:2 * pairs:2], axis=2).sum(axis=1) / 30.0
    exact = rho(sol)
    se_ov = ov.std(ddof=1) / math.sqrt(pairs)
    ov_ok = abs(ov.mean() - exact) <= 4 * se_ov
    _report(9, "exact sampler frequencies and replica overlap",
            exceed <= 0.01 * total and ov_ok,
            f"{exceed}/{total} sites beyond 4 SE; overlap "
            f"{ov.mean():.4f} vs rho {exact:.4f}")


def test_criterion_10_figure1(figure1_records):
    t0 = time.perf_counter()
    rhos = np.array([r.rho for r in figure1_records])
    inside = bool(np.all((rhos > 0.0) & (rhos < 1.0)))
    p_small = float(np.mean(rhos <= 0.01))
    _report(10, "1000-replication histogram run",
            inside and p_small == 0.0 and rhos.max() < 1.0,
            f"rho in [{rhos.min():.3f}, {rhos.max():.3f}], "
            f"P(rho<=0.01) = {p_small}")


def test_criterion_11_environment_battery():
    records = {rec["name"]: rec for rec in verify.law_battery()}
    _report(11, "environment law battery", all(r["passed"] for r in records.values()),
            f"{records['law_poincare_constant']['detail']}, "
            f"tensorized {records['law_tensorized_poincare']['detail']}")


def test_criterion_12_determinism(figure1_records, tmp_path):
    p1, p2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    report_file(str(p1)).finish(report_rows(figure1_records))
    report_file(str(p2)).finish(report_rows(run_replications(FIG1)))
    _report(12, "byte-identical rerun of the histogram config",
            p1.read_bytes() == p2.read_bytes())
