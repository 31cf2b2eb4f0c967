"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Tolerances are fixed here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from polylab.engine import (PolymerInstance, brute_force, forward_backward,
                            layer_theta, sample_paths, theta_derivative_check)
from polylab.functionals import (alpha_floor, alpha_profile, ell,
                                 primed_estimates, rho)
from polylab.harness import (ExperimentConfig, run_replications, scaling_study,
                             write_report_csv)
from polylab.lattice import layer_sites, overlap, site_cells
from polylab.laws import (check_ibp, check_poincare, check_poincare_tensorized,
                          gauss_legendre, kappa, make_uniform, phi,
                          poincare_constant)
from polylab.rng import derive_seed, replication_seed

LAW = make_uniform(-1.0, 1.0)

FIG1 = ExperimentConfig(d=1, n=300, beta=3.0, law_spec="uniform:-1,1",
                        replications=1000, base_seed=20250823)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def srw_marginal(k):
    """The binomial marginal at step k on the d=1 layout (sites -k, -k+2, ..., k)."""
    return np.array([math.comb(k, (k + int(x)) // 2) / 2 ** k
                     for x in layer_sites(1, k)[:, 0]])


def srw_rho_exact(n):
    total = 0.0
    for k in range(1, n + 1):
        total += sum(math.comb(k, j) ** 2 for j in range(k + 1)) / 4 ** k
    return total / n


@pytest.fixture(scope="module")
def figure1_records():
    return run_replications(FIG1)


def test_criterion_01_oracle_equivalence():
    t0 = time.perf_counter()
    combos = [(n, beta) for n in (4, 8, 12) for beta in (0.0, 1.0, 3.0)]
    worst = 0.0
    for i in range(25):
        n, beta = combos[i % len(combos)]
        inst = PolymerInstance(d=1, n=n, beta=beta, law=LAW,
                               seed=replication_seed(1001, i))
        sol = forward_backward(inst)
        bf_sol, bf_rho, bf_ell = brute_force(inst)
        for k in range(1, n + 1):
            worst = max(worst, float(np.max(np.abs(
                sol.theta_array(k) - bf_sol.theta_array(k)))))
        worst = max(worst,
                    abs(rho(sol) - bf_rho),
                    abs(ell(sol)[0] - bf_ell),
                    abs(sol.log_partition - bf_sol.log_partition))
    elapsed = time.perf_counter() - t0
    _report(1, "oracle equivalence (25 instances)",
            worst <= 1e-10 and elapsed < 30.0,
            f"worst diff {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_normalization():
    inst = PolymerInstance(d=1, n=300, beta=3.0, law=LAW,
                           seed=replication_seed(FIG1.base_seed, 0))
    sol = forward_backward(inst, keep_forward=False)
    worst = max(abs(float(t.sum()) - 1.0) for t in sol.theta_layers)
    _report(2, "layer normalization over 300 layers", worst <= 1e-10,
            f"worst |sum-1| = {worst:.2e}")


@pytest.fixture(scope="module")
def chain_instances():
    """100 instances spanning beta in {0,1,3,6}, n in {10,50,300}, d in {1,2}:
    every combo once, topped up with the cheaper configurations."""
    full = [(d, n, beta) for d in (1, 2) for n in (10, 50, 300)
            for beta in (0.0, 1.0, 3.0, 6.0)]
    cheap = [(d, n, beta) for d in (1, 2) for n in (10, 50)
             for beta in (0.0, 1.0, 3.0, 6.0)] + \
            [(1, 300, beta) for beta in (0.0, 1.0, 3.0, 6.0)]
    cases = list(full)
    i = 0
    while len(cases) < 100:
        cases.append(cheap[i % len(cheap)])
        i += 1
    out = []
    for idx, (d, n, beta) in enumerate(cases):
        inst = PolymerInstance(d=d, n=n, beta=beta, law=LAW,
                               seed=replication_seed(3003, idx))
        sol = forward_backward(inst, keep_forward=False)
        alpha = alpha_profile(sol)
        l, _ = ell(sol)
        out.append((d, n, beta, alpha, float(alpha.mean()), l))
    return out


def test_criterion_03_proposition1_chain(chain_instances):
    violations = [(d, n, beta) for d, n, beta, _, r, l in chain_instances
                  if not (l * l <= r + 1e-12 and r <= l + 1e-12)]
    _report(3, "overlap chain ell^2 <= rho <= ell on 100 instances",
            not violations, f"{len(chain_instances)} instances, "
            f"{len(violations)} violations")


def test_criterion_04_floor_bounds(chain_instances):
    ok = True
    for d, n, beta, alpha, r, _ in chain_instances:
        if not np.all(alpha >= alpha_floor(d, n)):
            ok = False
        if r < 1.0 / (3 ** d * n):
            ok = False
    _report(4, "alpha_k >= (2k+1)^-d and rho >= 1/(3^d n)", ok)


def test_criterion_05_derivative_identity():
    inst = PolymerInstance(d=1, n=40, beta=3.0, law=LAW, seed=5005)
    sol = forward_backward(inst)
    rng = np.random.default_rng(derive_seed(5005, 1))
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 41))
        xs = [x for x in range(-k, k + 1) if (x - k) % 2 == 0]
        x = (int(xs[rng.integers(len(xs))]),)
        analytic, numeric = theta_derivative_check(inst, sol, k, x, fd_step=1e-6)
        worst = max(worst, abs(analytic - numeric) / max(1.0, abs(analytic)))
    _report(5, "theta sensitivity identity at 100 random sites", worst <= 1e-5,
            f"worst mismatch {worst:.2e}")


def test_criterion_06_zero_layer_sandwich():
    ok = True
    detail = []
    for beta in (1.0, 3.0):
        inst = PolymerInstance(d=1, n=40, beta=beta, law=LAW,
                               seed=replication_seed(6006, int(beta)))
        sol = forward_backward(inst, keep_forward=False)
        bound = math.exp(beta * LAW.width)
        for k in (1, 5, 9, 13, 17, 21, 25, 29, 33, 40):
            zeta = layer_theta(inst, k, 0.0)
            theta = sol.theta_array(k)
            live = theta > 0
            ratio = zeta[live] / theta[live]
            if not (np.all(ratio >= (1 - 1e-9) / bound)
                    and np.all(ratio <= (1 + 1e-9) * bound)):
                ok = False
        # conditional overlap bound, Monte Carlo with 200 layer redraws
        k = 20
        alpha_k = float((sol.theta_array(k) ** 2).sum())
        ah, _, (se_a, _) = primed_estimates(inst, k, 200)
        if ah > math.exp(4 * beta * LAW.width) * alpha_k + 4 * se_a:
            ok = False
        detail.append(f"beta={beta}: alpha'={ah:.3g} vs alpha={alpha_k:.3g}")
    _report(6, "zero-layer sandwich and conditional overlap bound", ok,
            "; ".join(detail))


def test_criterion_07_beta0_reduction():
    inst = PolymerInstance(d=1, n=300, beta=0.0, law=LAW, seed=7007)
    sol = forward_backward(inst, keep_forward=False)
    worst = max(float(np.max(np.abs(sol.theta_array(k) - srw_marginal(k))))
                for k in range(1, 301))
    rho_err = abs(rho(sol) - srw_rho_exact(300))
    _report(7, "beta=0 equals the simple random walk",
            worst <= 1e-12 and rho_err <= 1e-12,
            f"theta sup-norm {worst:.2e}, rho err {rho_err:.2e}")


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
    inst = PolymerInstance(d=1, n=30, beta=3.0, law=LAW, seed=9009)
    sol = forward_backward(inst)
    rng = np.random.default_rng(derive_seed(9009, 1, 0x5A3))
    m = 50_000
    paths = sample_paths(sol, inst, m, rng)

    exceed = total = 0
    for k in range(1, 31):
        t = sol.theta_array(k)
        freq = np.bincount(site_cells(1, k, paths[:, k - 1]), minlength=t.size) / m
        live = t > 0
        se = np.sqrt(np.maximum(t[live] * (1 - t[live]), 1e-300) / m)
        exceed += int(np.sum(np.abs(freq[live] - t[live]) > 4 * se))
        total += int(live.sum())

    pairs = m // 2
    ov = np.array([overlap(paths[2 * i], paths[2 * i + 1])
                   for i in range(pairs)]) / 30.0
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
    battery = [
        (lambda x: np.asarray(x, dtype=float),
         lambda x: np.ones_like(np.asarray(x, dtype=float))),
        (lambda x: np.asarray(x) ** 2, lambda x: 2.0 * np.asarray(x)),
        (np.sin, np.cos),
        (lambda x: np.cos(3 * np.asarray(x)), lambda x: -3.0 * np.sin(3 * np.asarray(x))),
    ]
    h0_quad = gauss_legendre(lambda y: y * LAW.density(y), 0.0, 1.0) / 0.5
    ok = abs(LAW.h_eval(0.0) - 0.5) <= 1e-8 and abs(h0_quad - 0.5) <= 1e-8
    ok &= abs(poincare_constant(LAW) - 0.5) <= 1e-8
    ok &= all(check_ibp(LAW, g, gp) <= 1e-6 for g, gp in battery)
    ok &= all(check_poincare(LAW, g, gp) >= -1e-9 for g, gp in battery)
    margin, se = check_poincare_tensorized(
        LAW, 3, lambda x: x.sum(axis=-1),
        [lambda x: np.ones(x.shape[0])] * 3, mc_samples=100_000, seed=11)
    ok &= abs(margin - 0.5) <= 4 * se
    kap = kappa(LAW, 1)
    ok &= math.log(phi(LAW, 1.0 / kap)) <= -4 * math.log(2) - 4 + 1e-6
    _report(11, "environment law battery", bool(ok),
            f"K = {poincare_constant(LAW):.9f}, tensorized margin {margin:.4f}")


def test_criterion_12_determinism(figure1_records, tmp_path):
    p1, p2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    write_report_csv(figure1_records, str(p1))
    write_report_csv(run_replications(FIG1), str(p2))
    _report(12, "byte-identical rerun of the histogram config",
            p1.read_bytes() == p2.read_bytes())
