"""Self-verification battery.

Each check family exercises one testable property of the build against an
independent oracle or analytic fact: quadrature identities of the law,
brute-force equivalence of the recursion, the binomial reduction at beta=0,
layer normalization, the overlap chain ell^2 <= rho <= ell, per-step floor
bounds, the zero-layer sandwich (zeta_k from engine.layer_theta with
omega_k = 0), and the theta sensitivity identity (a central difference of
theta_k from one layer_theta call on the two forced layers).

Used by the `polylab verify` subcommand; the acceptance tests run the same
properties at their full sizes.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List

import numpy as np

from . import functionals, laws
from .engine import (PolymerInstance, brute_force, forward_backward, layer_theta,
                     theta_derivative_check)
from .lattice import layer_sites
from .rng import derive_seed, replication_seed

IBP_BATTERY = [
    ("x", lambda x: x, lambda x: np.ones_like(np.asarray(x, dtype=float))),
    ("x^2", lambda x: x ** 2, lambda x: 2.0 * x),
    ("sin", np.sin, np.cos),
    ("cos3x", lambda x: np.cos(3 * x), lambda x: -3.0 * np.sin(3 * x)),
]


def binomial_marginal(k: int) -> np.ndarray:
    """Simple-random-walk occupation probabilities at step k in the d = 1
    layout: entry j is site x = -k + 2j.

    Exact: integer binomial coefficients divided by 2^k, so each entry is
    the correctly rounded double of the true rational value.
    """
    x = layer_sites(1, k)[:, 0]
    return np.array([math.comb(k, (k + int(v)) // 2) / 2 ** k for v in x])


def _check(name: str, passed: bool, detail: str) -> Dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def run_checks(perturb_theta: bool = False, fast: bool = True) -> List[Dict]:
    """Run every check family; returns one record per family."""
    results: List[Dict] = []
    law = laws.make_uniform(-1.0, 1.0)

    # -- law battery ------------------------------------------------------
    grid = law.interior_grid(4096)
    hv = law.h(grid)
    h0 = law._h_quad(0.0)
    results.append(_check(
        "law_h_positivity",
        bool(np.all(hv > 0)) and abs(h0 - 0.5) < 1e-8,
        f"min h on grid = {float(np.min(hv)):.3e}, quadrature h(0) = {h0:.12f}"))

    worst = max(laws.check_ibp(law, g, gp) for _, g, gp in IBP_BATTERY)
    results.append(_check("law_ibp_battery", worst <= 1e-6,
                          f"worst residual = {worst:.3e}"))

    worst_m = min(laws.check_poincare(law, g, gp) for _, g, gp in IBP_BATTERY)
    results.append(_check("law_poincare_battery", worst_m >= -1e-9,
                          f"worst margin = {worst_m:.3e}"))

    margin, se = laws.check_poincare_tensorized(
        law, 3, lambda x: x.sum(axis=-1),
        [lambda x, j=j: np.ones(x.shape[0]) for j in range(3)],
        mc_samples=10_000 if fast else 100_000)
    results.append(_check("law_tensorized_poincare",
                          abs(margin - 0.5) <= 4 * se and margin >= -4 * se,
                          f"margin = {margin:.4f} (expect 0.5), se = {se:.4f}"))

    kap = laws.kappa(law, 1)
    lp = math.log(laws.phi(law, 1.0 / kap))
    thr = -4.0 * math.log(2) - 4.0
    results.append(_check("law_kappa_threshold", lp <= thr + 1e-6,
                          f"log phi(1/kappa) = {lp:.6f} vs threshold {thr:.6f}"))

    # -- oracle equivalence ------------------------------------------------
    worst_theta = worst_scalar = 0.0
    for i, (n, beta) in enumerate([(6, 0.0), (8, 1.0), (10, 3.0)]):
        inst = PolymerInstance(d=1, n=n, beta=beta, law=law,
                               seed=replication_seed(1234, i))
        sol = forward_backward(inst)
        bf_sol, bf_rho, bf_ell = brute_force(inst)
        for k in range(1, n + 1):
            worst_theta = max(worst_theta, float(np.max(np.abs(
                sol.theta_array(k) - bf_sol.theta_array(k)))))
        worst_scalar = max(
            worst_scalar,
            abs(functionals.rho(sol) - bf_rho),
            abs(functionals.ell(sol)[0] - bf_ell),
            abs(sol.log_partition - bf_sol.log_partition))
    results.append(_check("oracle_equivalence",
                          worst_theta <= 1e-10 and worst_scalar <= 1e-10,
                          f"theta sup-norm {worst_theta:.2e}, "
                          f"scalar diff {worst_scalar:.2e}"))

    # -- beta=0 binomial reduction ----------------------------------------
    n0 = 60 if fast else 300
    inst0 = PolymerInstance(d=1, n=n0, beta=0.0, law=law, seed=7)
    sol0 = forward_backward(inst0, keep_forward=False)
    err0 = max(float(np.max(np.abs(sol0.theta_array(k) - binomial_marginal(k))))
               for k in range(1, n0 + 1))
    results.append(_check("beta0_binomial_reduction", err0 <= 1e-12,
                          f"sup-norm vs binomial = {err0:.2e}"))

    # -- layer normalization (with perturbation hook) ----------------------
    inst1 = PolymerInstance(d=1, n=100 if fast else 300, beta=3.0, law=law, seed=99)
    sol1 = forward_backward(inst1, keep_forward=False)
    if perturb_theta:
        sol1.theta_layers[len(sol1.theta_layers) // 2][0] += 1e-3
    norm_err = max(abs(float(t.sum()) - 1.0) for t in sol1.theta_layers)
    results.append(_check("layer_normalization", norm_err <= 1e-10,
                          f"worst |sum theta - 1| = {norm_err:.2e}"))

    # -- overlap chain and floor bounds ------------------------------------
    chain_ok = floor_ok = True
    chain_detail = ""
    cases = [(1, 10, 0.0), (1, 50, 1.0), (2, 10, 3.0), (1, 30, 6.0)]
    if not fast:
        cases += [(2, 50, 1.0), (1, 100, 3.0)]
    for i, (d, n, beta) in enumerate(cases):
        inst = PolymerInstance(d=d, n=n, beta=beta, law=law,
                               seed=replication_seed(777, i))
        sol = forward_backward(inst, keep_forward=False)
        alpha = functionals.alpha_profile(sol)
        r = float(alpha.mean())
        l, path = functionals.ell(sol)
        if not (l * l <= r + 1e-12 and r <= l + 1e-12):
            chain_ok = False
            chain_detail = f"violation at d={d} n={n} beta={beta}"
        if not (np.all(alpha >= functionals.alpha_floor(d, n))
                and r >= 1.0 / (3 ** d * n)):
            floor_ok = False
    results.append(_check("proposition1_chain", chain_ok,
                          chain_detail or f"{len(cases)} instances pass"))
    results.append(_check("alpha_floor_bounds", floor_ok,
                          "alpha_k >= (2k+1)^-d and rho >= 1/(3^d n)"))

    # -- zero-layer sandwich ------------------------------------------------
    inst2 = PolymerInstance(d=1, n=40, beta=1.0, law=law, seed=2024)
    sol2 = forward_backward(inst2, keep_forward=False)
    width = law.width
    sandwich_ok = True
    worst_slack = 0.0
    for k in (1, 10, 20, 30, 40):
        z = layer_theta(inst2, k, 0.0)
        t = sol2.theta_array(k)
        lo = math.exp(-inst2.beta * width) * t
        hi = math.exp(inst2.beta * width) * t
        slack = 1e-9 * np.maximum(t, 1e-300)
        if not (np.all(z >= lo - slack) and np.all(z <= hi + slack)):
            sandwich_ok = False
        nz = t > 0
        if nz.any():
            worst_slack = max(worst_slack, float(np.max(z[nz] / t[nz])))
    results.append(_check("zeta_sandwich", sandwich_ok,
                          f"max zeta/theta = {worst_slack:.4f} "
                          f"(bound {math.exp(inst2.beta * width):.4f})"))

    # -- derivative identity -------------------------------------------------
    inst3 = PolymerInstance(d=1, n=20 if fast else 40, beta=3.0, law=law, seed=31337)
    sol3 = forward_backward(inst3)
    rng = np.random.default_rng(derive_seed(31337, 0xD1FF))
    worst_fd = 0.0
    trials = 10 if fast else 30
    for _ in range(trials):
        k = int(rng.integers(1, inst3.n + 1))
        xs = [x for x in range(-k, k + 1) if (x - k) % 2 == 0]
        x = (int(xs[rng.integers(len(xs))]),)
        analytic, numeric = theta_derivative_check(inst3, sol3, k, x)
        worst_fd = max(worst_fd,
                       abs(analytic - numeric) / max(1.0, abs(analytic)))
    results.append(_check("derivative_identity", worst_fd <= 1e-5,
                          f"worst relative FD mismatch = {worst_fd:.2e}"))

    return results
