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
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .engine import (EnvOverrides, PolymerInstance, ThetaSolution, batch_shape,
                     env_layer, env_value, forward_backward, layer_alpha,
                     require_single)
from .lattice import PathDP, validate_path
from .rng import derive_seed

_PRIMED_TAG = 0x41C7


@dataclass
class LocalizationReport:
    """Per-instance localization summary."""

    rho: float
    ell: float
    argmax_path: np.ndarray
    alpha_profile: np.ndarray
    gamma_profile: Optional[np.ndarray] = None
    tau_profile: Optional[np.ndarray] = None


def alpha_profile(solution: ThetaSolution) -> np.ndarray:
    """alpha_k = sum_x theta_{k,x}^2 for k = 1..n; shape batch + (n,)."""
    if solution.alpha is not None:
        return solution.alpha.copy()
    return np.stack([layer_alpha(t, solution.d) for t in solution.theta_layers],
                    axis=-1)


def alpha_floor(d: int, n: int) -> np.ndarray:
    """Cauchy-Schwarz lower bound (2k+1)^-d for each step."""
    ks = np.arange(1, n + 1)
    return (2.0 * ks + 1.0) ** (-d)


def rho(solution: ThetaSolution):
    """Expected replica overlap fraction: the mean of the alpha profile.

    A float, or an (R,) array for a batched solution."""
    r = alpha_profile(solution).mean(axis=-1)
    return r if batch_shape(solution.seed) else float(r)


def ell(solution: ThetaSolution):
    """Degree of localization and a path attaining it.

    Dynamic program (lattice.PathDP) over all nearest-neighbor paths from
    the origin, including sites of zero theta; ties broken by the
    lexicographically smallest endpoint, then at each step back by the
    lexicographically smallest predecessor.  Returns (ell, path of shape
    (n, d)), or for a batched solution ((R,) scores, (R, n, d) paths).
    A keep_theta=False solve ran the program during its sweep.
    """
    n = solution.n
    lead = batch_shape(solution.seed)
    dp = solution.path_dp
    if dp is None:
        dp = PathDP(solution.d, lead)
        for t in solution.theta_layers:
            dp.push(t)
    top, path = dp.result()
    scores = (top / n).reshape(lead)
    path = path.reshape(lead + (n, solution.d))
    return (scores if lead else float(scores)), path


def gamma_tau_profiles(solution: ThetaSolution, instance: PolymerInstance):
    """(gamma_k, tau_k) arrays.

    h is defined against the raw (uncentered) density, so for centered
    instances it is evaluated at omega + mean.
    """
    require_single(solution.seed, "gamma_tau_profiles")
    n, d = solution.n, solution.d
    shift = instance.law.mean if instance.centered else 0.0
    gamma = np.empty(n)
    tau = np.empty(n)
    guard = instance.law.guard
    for k in range(1, n + 1):
        th = solution.theta_array(k)
        om = env_layer(instance, k, solution.overrides)
        support = th > 0
        w = om[support]
        raw = w + shift
        if np.any(raw <= instance.law.support_lo + guard) or \
           np.any(raw >= instance.law.support_hi - guard):
            raise ValueError(f"omega at step {k} sits on the support edge; h undefined")
        hv = np.asarray(instance.law.h(raw), dtype=np.float64)
        gamma[k - 1] = float((hv * th[support]).sum())
        tau[k - 1] = float((w * th[support]).sum())
    return gamma, tau


def psi(instance: PolymerInstance, path: np.ndarray, index_set: Iterable[int],
        overrides: Optional[EnvOverrides] = None) -> float:
    """sum over k in the index set of h(omega_{k, x_k}) along the path."""
    path = np.asarray(path)
    validate_path(path, instance.d)
    ks = sorted(set(int(k) for k in index_set))
    if ks and (ks[0] < 1 or ks[-1] > instance.n):
        raise ValueError("index set must lie in 1..n")
    shift = instance.law.mean if instance.centered else 0.0
    total = 0.0
    for k in ks:
        w = env_value(instance, k, tuple(path[k - 1]), overrides)
        total += float(instance.law.h(w + shift))
    return total


def primed_estimates(instance: PolymerInstance, k: int, resamples: int,
                     overrides: Optional[EnvOverrides] = None):
    """Monte Carlo estimates of the layer-k conditional expectations of
    alpha_k and gamma_k, obtained by redrawing layer-k disorder.

    Returns (alpha_hat, gamma_hat, (alpha_se, gamma_se)).  Deterministic
    given (instance.seed, k, resamples): resample j redraws layer k from the
    derived sub-seed mix(seed, k, j).
    """
    require_single(instance.seed, "primed_estimates")
    if resamples < 100:
        raise ValueError("need at least 100 resamples")
    base = overrides or EnvOverrides()
    alphas = np.empty(resamples)
    gammas = np.empty(resamples)
    for j in range(resamples):
        sub = derive_seed(instance.seed, _PRIMED_TAG, k, j)
        ls = dict(base.layer_seeds)
        ls[k] = sub
        ov = EnvOverrides(site_values=dict(base.site_values),
                          zero_layers=base.zero_layers, layer_seeds=ls)
        sol = forward_backward(instance, ov, keep_forward=False)
        th = sol.theta_array(k)
        alphas[j] = float((th ** 2).sum())
        g, _ = _gamma_single_layer(sol, instance, k)
        gammas[j] = g
    se = (float(np.std(alphas, ddof=1)) / math.sqrt(resamples),
          float(np.std(gammas, ddof=1)) / math.sqrt(resamples))
    return float(alphas.mean()), float(gammas.mean()), se


def _gamma_single_layer(solution: ThetaSolution, instance: PolymerInstance, k: int):
    th = solution.theta_array(k)
    om = env_layer(instance, k, solution.overrides)
    shift = instance.law.mean if instance.centered else 0.0
    support = th > 0
    w = om[support]
    hv = np.asarray(instance.law.h(w + shift), dtype=np.float64)
    return float((hv * th[support]).sum()), float((w * th[support]).sum())


def build_report(solution: ThetaSolution, instance: PolymerInstance,
                 with_env_profiles: bool = True) -> LocalizationReport:
    """Assemble the localization report and check its internal identities."""
    require_single(solution.seed, "build_report")
    alpha = alpha_profile(solution)
    r = float(alpha.mean())
    l, path = ell(solution)
    if not (l * l <= r + 1e-12 and r <= l + 1e-12):
        raise NumericalErrorReport(r, l)
    gamma = tau = None
    if with_env_profiles:
        gamma, tau = gamma_tau_profiles(solution, instance)
    return LocalizationReport(rho=r, ell=l, argmax_path=path,
                              alpha_profile=alpha, gamma_profile=gamma,
                              tau_profile=tau)


class NumericalErrorReport(RuntimeError):
    def __init__(self, r, l):
        super().__init__(f"overlap chain violated: ell^2={l*l} rho={r} ell={l}")
