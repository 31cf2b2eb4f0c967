"""Localization functionals computed from a solved instance.

From the occupation probabilities theta we derive:

  alpha_k  = sum_x theta_{k,x}^2      (replica collision probability at step k)
  rho      = mean_k alpha_k           (expected replica overlap fraction)
  ell      = max over deterministic paths of the mean theta along the path,
             found by dynamic programming over the reachability cone
  gamma_k  = sum_x h(omega_{k,x}) theta_{k,x}
  tau_k    = sum_x omega_{k,x} theta_{k,x}

plus Monte Carlo estimates of the layer-conditional expectations of alpha_k
and gamma_k obtained by redrawing one disorder layer.

alpha_profile, rho and ell reduce over the trailing d site axes only, so on
a batched solution (seed tuple) they return one value per environment.  On
a solution from forward_backward(keep_theta=False), which kept no theta
layers, they read the alpha sums and the ell program the sweep computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .engine import (PolymerInstance, ThetaSolution, batch_shape, env_layer,
                     forward_backward, layer_alpha, require_drawn, require_single)
from .lattice import PathDP
from .rng import derive_seed

_PRIMED_TAG = 0x41C7


@dataclass
class LocalizationReport:
    """Per-instance localization summary."""

    rho: float
    ell: float
    argmax_path: np.ndarray
    alpha_profile: np.ndarray
    gamma_profile: np.ndarray
    tau_profile: np.ndarray


def alpha_profile(solution: ThetaSolution) -> np.ndarray:
    """alpha_k = sum_x theta_{k,x}^2 for k = 1..n; shape batch + (n,)."""
    if solution.alpha is not None:
        return solution.alpha.copy()
    return np.stack([layer_alpha(t, solution.instance.d) for t in solution.theta_layers],
                    axis=-1)


def alpha_floor(d: int, n: int) -> np.ndarray:
    """Cauchy-Schwarz lower bound (2k+1)^-d for each step."""
    ks = np.arange(1, n + 1)
    return (2.0 * ks + 1.0) ** (-d)


def rho(solution: ThetaSolution):
    """Expected replica overlap fraction: the mean of the alpha profile.

    A float, or an (R,) array for a batched solution."""
    r = alpha_profile(solution).mean(axis=-1)
    return r if batch_shape(solution.instance.seed) else float(r)


def ell(solution: ThetaSolution):
    """Degree of localization and a path attaining it.

    Dynamic program (lattice.PathDP) over all nearest-neighbor paths from
    the origin, including sites of zero theta; ties broken by the
    lexicographically smallest endpoint, then at each step back by the
    lexicographically smallest predecessor.  At beta=0, in every d, many
    paths tie exactly, and which of them wins depends on the rounding of
    their summed scores, so there the tie-break holds only up to rounding.
    Returns (ell, path of shape (n, d)), or for a batched solution ((R,)
    scores, (R, n, d) paths).
    A keep_theta=False solve ran the program during its sweep.
    """
    top, path = _path_program(solution).result()
    lead = batch_shape(solution.instance.seed)
    return _per_step(solution, top), path.reshape(lead + path.shape[1:])


def ell_scores(solution: ThetaSolution):
    """ell alone, as ell(solution)[0] bit for bit, without backtracking the
    path that attains it."""
    return _per_step(solution, _path_program(solution).top())


def _per_step(solution: ThetaSolution, top: np.ndarray):
    """The ell program's top scores over n, in the solution's batch shape:
    a float for one environment, else an (R,) array."""
    lead = batch_shape(solution.instance.seed)
    scores = (top / solution.instance.n).reshape(lead)
    return scores if lead else float(scores)


def _path_program(solution: ThetaSolution) -> PathDP:
    """The settled ell program the keep_theta=False sweep ran, or one run
    now over the stored theta layers and settled as that sweep settles."""
    dp = solution.path_dp
    if dp is None:
        dp = PathDP(solution.instance.d, batch_shape(solution.instance.seed))
        for t in solution.theta_layers:
            dp.push(t)
        dp.settle()
    return dp


def overlap_chain_holds(r: float, l: float) -> bool:
    """ell^2 <= rho <= ell (Proposition 1), with 1e-12 slack for rounding."""
    return l * l <= r + 1e-12 and r <= l + 1e-12


def _gamma(instance: PolymerInstance, k: int, omega: np.ndarray,
           theta: np.ndarray) -> float:
    """gamma_k = sum_x h(omega_x + shift) theta_x over the sites where theta
    is positive; shift is instance.omega_shift (the law's mean for a
    centered instance), since h is defined against the raw (uncentered)
    density."""
    lo, hi = instance.law.inner
    support = theta > 0
    raw = omega[support] + instance.omega_shift
    if np.any(raw <= lo) or np.any(raw >= hi):
        raise ValueError(f"omega at step {k} sits on the support edge; h undefined")
    return float((instance.law.h(raw) * theta[support]).sum())


def gamma_tau_profiles(solution: ThetaSolution):
    """(gamma_k, tau_k) arrays in the environment of solution.instance, with
    tau_k = sum_x omega_{k,x} theta_{k,x}."""
    instance = solution.instance
    require_single(instance.seed, "gamma_tau_profiles")
    require_drawn(solution, "gamma_tau_profiles")
    gamma = np.empty(instance.n)
    tau = np.empty(instance.n)
    for k in range(1, instance.n + 1):
        th = solution.theta_array(k)
        om = env_layer(instance, k)
        gamma[k - 1] = _gamma(instance, k, om, th)
        support = th > 0
        tau[k - 1] = float((om[support] * th[support]).sum())
    return gamma, tau


def primed_estimates(instance: PolymerInstance, k: int, resamples: int):
    """Monte Carlo estimates of the layer-k conditional expectations of
    alpha_k and gamma_k, obtained by redrawing layer-k disorder.

    Returns (alpha_hat, gamma_hat, (alpha_se, gamma_se)).  Deterministic
    given (instance.seed, k, resamples): resample j redraws layer k from the
    derived sub-seed mix(seed, k, j).  One seed-tuple env_layer call draws
    all M = resamples layers, which take M * layer_cells(d, k) * 8 bytes;
    resample j re-solves the instance with row j as layer k and takes its
    gamma from the same row.
    """
    require_single(instance.seed, "primed_estimates")
    k = instance.step(k)
    if resamples < 100:
        raise ValueError("need at least 100 resamples")
    subs = tuple(derive_seed(instance.seed, _PRIMED_TAG, k, j) for j in range(resamples))
    alphas = np.empty(resamples)
    gammas = np.empty(resamples)
    for j, omega in enumerate(env_layer(replace(instance, seed=subs), k)):
        sol = forward_backward(instance, keep_forward=False, layer_omega={k: omega})
        th = sol.theta_array(k)
        alphas[j] = float(layer_alpha(th, instance.d))
        gammas[j] = _gamma(instance, k, omega, th)
    se = (float(np.std(alphas, ddof=1)) / math.sqrt(resamples),
          float(np.std(gammas, ddof=1)) / math.sqrt(resamples))
    return float(alphas.mean()), float(gammas.mean()), se


def build_report(solution: ThetaSolution) -> LocalizationReport:
    """Assemble the localization report of solution.instance and check its
    internal identities."""
    require_single(solution.instance.seed, "build_report")
    alpha = alpha_profile(solution)
    r = float(alpha.mean())
    l, path = ell(solution)
    if not overlap_chain_holds(r, l):
        raise RuntimeError(f"overlap chain violated: ell^2={l*l} rho={r} ell={l}")
    gamma, tau = gamma_tau_profiles(solution)
    return LocalizationReport(rho=r, ell=l, argmax_path=path,
                              alpha_profile=alpha, gamma_profile=gamma,
                              tau_profile=tau)
