"""Self-verification battery: the one check library.

Each family checks one property against an independent oracle or an
analytic fact and returns its check records.  Its sizes are arguments that
default to the acceptance sizes, run by tests/test_acceptance.py and
`polylab verify --full`; `polylab verify` runs FAST.  Tolerances are constants.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import functionals, laws
from .engine import (PolymerInstance, brute_force, forward_backward, layer_alpha,
                     layer_theta, theta_derivative_check)
from .harness import FIGURE1
from .lattice import layer_coords
from .rng import derive_seed, replication_seed

LAW = laws.make_uniform(-1.0, 1.0)
LAW_H0 = LAW_K = 0.5                # h(0) and K = sup h of Uniform(-1, 1)
LAW_TOL = 1e-8                      # on h(0) and K
IBP_TOL = 1e-6                      # worst IBP residual
POINCARE_TOL = 1e-9                 # most negative Poincare margin
KAPPA_TOL = 1e-6                    # log phi(1/kappa) above its threshold
SE_BAND = 4.0                       # Monte Carlo checks allow 4 standard errors
ORACLE_TOL = 1e-10                  # recursion vs brute force
BETA0_TOL = 1e-12                   # theta and rho vs the binomial closed forms
NORM_TOL = 1e-10                    # worst |sum theta - 1|
SANDWICH_TOL = 1e-9                 # relative slack on exp(-+beta*width)
FD_TOL = 1e-5                       # relative finite-difference mismatch

IBP_BATTERY = [
    ("x", lambda x: x, lambda x: np.ones_like(np.asarray(x, dtype=float))),
    ("x^2", lambda x: x ** 2, lambda x: 2.0 * x),
    ("sin", np.sin, np.cos),
    ("cos3x", lambda x: np.cos(3 * x), lambda x: -3.0 * np.sin(3 * x)),
]

_BETAS = (0.0, 1.0, 3.0, 6.0)
_ORACLE_CASES = (3 * [(n, beta) for n in (4, 8, 12) for beta in (0.0, 1.0, 3.0)])[:25]
# Every (d, n, beta) combination once, topped up to 100 with the cheaper ones.
_CHAIN_CASES = ([(d, n, beta) for d in (1, 2) for n in (10, 50, 300) for beta in _BETAS]
                + ([(d, n, beta) for d in (1, 2) for n in (10, 50) for beta in _BETAS]
                   + [(1, 300, beta) for beta in _BETAS]) * 4)[:100]

FAST = {
    "law_battery": dict(mc_samples=10_000, seed=0),
    "oracle_equivalence": dict(cases=[(6, 0.0), (8, 1.0), (10, 3.0)], base_seed=1234),
    "beta0_reduction": dict(n=60, seed=7),
    "layer_normalization": dict(n=100, seed=99),
    "chain_and_floors": dict(cases=[(1, 10, 0.0), (1, 50, 1.0), (2, 10, 3.0), (1, 30, 6.0),
                                    (3, 8, 3.0)],     # d=3: cube cells off the cone
                             base_seed=777),
    "zero_layer_bounds": dict(betas=(1.0,), n=20, ks=(1, 5, 10, 15, 20),
                              resamples=100, base_seed=2024),
    "derivative_identity": dict(n=20, trials=10, seed=31337),
}


def binomial_marginal(k: int) -> np.ndarray:
    """Simple-random-walk occupation probabilities at step k in the d = 1
    layout (entry j is site -k + 2j): exact integer binomials over 2^k,
    so each entry is the correctly rounded double of the true value."""
    x = layer_coords(1, k)[0]
    return np.array([math.comb(k, (k + int(v)) // 2) / 2 ** k for v in x])


def binomial_rho(n: int) -> float:
    """rho of the d = 1 simple random walk: the mean over k of
    sum_j C(k, j)^2 / 4^k, each term exact integer arithmetic rounded once."""
    return sum(sum(math.comb(k, j) ** 2 for j in range(k + 1)) / 4 ** k
               for k in range(1, n + 1)) / n


def _check(name: str, passed: bool, detail: str) -> Dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _instance(d: int, n: int, beta: float, seed: int) -> PolymerInstance:
    return PolymerInstance(d=d, n=n, beta=beta, law=LAW, seed=seed)


def law_battery(mc_samples: int = 100_000, seed: int = 11) -> List[Dict]:
    """Quadrature identities of LAW; the tensorized Poincare margin of
    sum_i x_i on the 3-fold product uses mc_samples draws from seed."""
    hv = LAW.h(LAW.interior_grid(4096))
    h0, h0_quad, K = LAW.h_eval(0.0), LAW._h_quad(0.0), laws.poincare_constant(LAW)
    worst = max(laws.check_ibp(LAW, g, gp) for _, g, gp in IBP_BATTERY)
    worst_m = min(laws.check_poincare(LAW, g, gp) for _, g, gp in IBP_BATTERY)
    margin, se = laws.check_poincare_tensorized(
        LAW, 3, lambda x: x.sum(axis=-1), [lambda x: np.ones(x.shape[0])] * 3,
        mc_samples=mc_samples, seed=seed)
    lp = math.log(laws.phi(LAW, 1.0 / laws.kappa(LAW, 1)))
    thr = -4.0 * math.log(2) - 4.0
    return [
        _check("law_h_positivity",
               np.all(hv > 0) and abs(h0 - LAW_H0) <= LAW_TOL
               and abs(h0_quad - LAW_H0) <= LAW_TOL,
               f"min h on grid = {float(np.min(hv)):.3e}, h(0) = {h0:.12f}, "
               f"quadrature h(0) = {h0_quad:.12f}"),
        _check("law_poincare_constant", abs(K - LAW_K) <= LAW_TOL,
               f"K = {K:.9f}"),
        _check("law_ibp_battery", worst <= IBP_TOL, f"worst residual = {worst:.3e}"),
        _check("law_poincare_battery", worst_m >= -POINCARE_TOL,
               f"worst margin = {worst_m:.3e}"),
        _check("law_tensorized_poincare", abs(margin - 0.5) <= SE_BAND * se,
               f"margin = {margin:.4f} (expect 0.5), se = {se:.4f}"),
        _check("law_kappa_threshold", lp <= thr + KAPPA_TOL,
               f"log phi(1/kappa) = {lp:.6f} vs threshold {thr:.6f}"),
    ]


def oracle_equivalence(cases: Sequence[Tuple[int, float]] = _ORACLE_CASES,
                       base_seed: int = 1001) -> List[Dict]:
    """The recursion against brute_force on d = 1 instances (n, beta); the
    i-th draws its environment from replication_seed(base_seed, i)."""
    worst = 0.0
    for i, (n, beta) in enumerate(cases):
        inst = _instance(1, n, beta, replication_seed(base_seed, i))
        sol = forward_backward(inst)
        bf_sol, bf_rho, bf_ell = brute_force(inst)
        for k in range(1, n + 1):
            worst = max(worst, float(np.max(np.abs(
                sol.theta_array(k) - bf_sol.theta_array(k)))))
        worst = max(worst,
                    abs(functionals.rho(sol) - bf_rho),
                    abs(functionals.ell_scores(sol) - bf_ell),
                    abs(sol.log_partition - bf_sol.log_partition))
    return [_check("oracle_equivalence", worst <= ORACLE_TOL, f"worst diff {worst:.2e}")]


def beta0_reduction(n: int = 300, seed: int = 7007) -> List[Dict]:
    """At beta = 0 the d = 1 polymer is the simple random walk, whatever the
    environment drawn from seed."""
    sol = forward_backward(_instance(1, n, 0.0, seed), keep_forward=False)
    theta_err = max(float(np.max(np.abs(sol.theta_array(k) - binomial_marginal(k))))
                    for k in range(1, n + 1))
    rho_err = abs(functionals.rho(sol) - binomial_rho(n))
    return [_check("beta0_binomial_reduction",
                   theta_err <= BETA0_TOL and rho_err <= BETA0_TOL,
                   f"theta sup-norm {theta_err:.2e}, rho err {rho_err:.2e}")]


def layer_normalization(n: int = FIGURE1.n,
                        seed: int = replication_seed(FIGURE1.base_seed, 0)
                        ) -> List[Dict]:
    """Every theta layer of one d = 1 instance at figure 1's beta sums to 1."""
    sol = forward_backward(_instance(1, n, FIGURE1.beta, seed), keep_forward=False)
    worst = max(abs(float(t.sum()) - 1.0) for t in sol.theta_layers)
    return [_check("layer_normalization", worst <= NORM_TOL,
                   f"worst |sum-1| = {worst:.2e}")]


def chain_and_floors(cases: Sequence[Tuple[int, int, float]] = _CHAIN_CASES,
                     base_seed: int = 3003) -> List[Dict]:
    """The overlap chain and the alpha and rho floors on instances
    (d, n, beta), the i-th seeded replication_seed(base_seed, i).  Only
    alpha and ell are read, so each solve streams (keep_theta=False)."""
    violations = below_floor = 0
    for i, (d, n, beta) in enumerate(cases):
        sol = forward_backward(_instance(d, n, beta, replication_seed(base_seed, i)),
                               keep_forward=False, keep_theta=False)
        alpha = functionals.alpha_profile(sol)
        r = float(alpha.mean())
        violations += not functionals.overlap_chain_holds(r, functionals.ell_scores(sol))
        below_floor += not (np.all(alpha >= functionals.alpha_floor(d, n))
                            and r >= 1.0 / (3 ** d * n))
    return [
        _check("proposition1_chain", violations == 0,
               f"{len(cases)} instances, {violations} violations"),
        _check("alpha_floor_bounds", below_floor == 0,
               f"alpha_k >= (2k+1)^-d and rho >= 1/(3^d n): {below_floor} below"),
    ]


def zero_layer_bounds(betas: Sequence[float] = (1.0, 3.0), n: int = 40,
                      ks: Sequence[int] = (1, 5, 9, 13, 17, 21, 25, 29, 33, 40),
                      resamples: int = 200, base_seed: int = 6006) -> List[Dict]:
    """For each beta, one d = 1 instance seeded replication_seed(base_seed,
    int(beta)): zeta_k / theta_k within exp(-+beta*width) at the steps ks,
    and at k = n // 2 the Monte Carlo layer-conditional alpha_k (resamples
    redraws) at most exp(4*beta*width) alpha_k."""
    sandwich_ok = bound_ok = True
    worst, primed = 0.0, []
    for beta in betas:
        inst = _instance(1, n, beta, replication_seed(base_seed, int(beta)))
        sol = forward_backward(inst, keep_forward=False)
        bound = math.exp(beta * LAW.width)
        for k in ks:
            theta = sol.theta_array(k)
            live = theta > 0
            ratio = layer_theta(inst, k, 0.0)[live] / theta[live]
            sandwich_ok &= bool(np.all(ratio >= (1 - SANDWICH_TOL) / bound)
                                and np.all(ratio <= (1 + SANDWICH_TOL) * bound))
            worst = max(worst, float(ratio.max()) / bound)
        k = n // 2
        alpha_k = float(layer_alpha(sol.theta_array(k), inst.d))
        ah, _, (se_a, _) = functionals.primed_estimates(inst, k, resamples)
        bound_ok &= ah <= math.exp(4 * beta * LAW.width) * alpha_k + SE_BAND * se_a
        primed.append(f"beta={beta}: alpha'={ah:.3g} vs alpha={alpha_k:.3g}")
    return [_check("zeta_sandwich", sandwich_ok,
                   f"max zeta/theta over exp(beta*width) = {worst:.4f}"),
            _check("conditional_overlap_bound", bound_ok, "; ".join(primed))]


def derivative_identity(n: int = 40, trials: int = 100, seed: int = 5005) -> List[Dict]:
    """d theta_{k,x} / d omega_{k,x} = beta theta (1 - theta) at trials
    random (k, x) of one d = 1, beta = 3 instance, against a central difference."""
    inst = _instance(1, n, 3.0, seed)
    sol = forward_backward(inst, keep_forward=False)
    rng = np.random.default_rng(derive_seed(seed, 1))
    worst = 0.0
    for _ in range(trials):
        k = int(rng.integers(1, n + 1))
        xs = layer_coords(1, k)[0]
        analytic, numeric = theta_derivative_check(
            sol, k, (int(xs[rng.integers(len(xs))]),))
        worst = max(worst, abs(analytic - numeric) / max(1.0, abs(analytic)))
    return [_check("derivative_identity", worst <= FD_TOL, f"worst mismatch {worst:.2e}")]


FAMILIES = (law_battery, oracle_equivalence, beta0_reduction, layer_normalization,
            chain_and_floors, zero_layer_bounds, derivative_identity)


def run_checks(fast: bool = True) -> List[Dict]:
    """Every family at its FAST sizes, or at its acceptance sizes."""
    return [rec for family in FAMILIES
            for rec in family(**(FAST[family.__name__] if fast else {}))]
