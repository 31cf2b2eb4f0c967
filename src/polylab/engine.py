"""Exact Gibbs-measure computation for quenched disorder realizations.

The environment is lazy and deterministic: omega_{k,x} is a pure function of
(seed, k, x) through the counter RNG, so layers are regenerated on demand
instead of being stored.  The forward-backward recursion works on dense
per-layer boxes [-k, k]^d with per-layer sum normalization; the logs of the
normalizers accumulate to log Z.  Path weights reach exp(beta*b*n), far past
float range at experiment scale, so the normalization is not optional.

The backward sweep runs first and the forward sweep then yields theta in
increasing k.  By default every backward layer is kept and theta is written
over it; forward_backward(keep_theta=False) keeps backward layers only at
checkpoints ceil(sqrt(n)) layers apart, recomputes each segment between
them, and reduces every theta layer to alpha and one step of the ell
program as it appears, so a solve holds O(sqrt(n)) layers instead of n.

layer_theta answers one-layer questions (the zero-layer marginal zeta_k, a
finite difference in omega_k) from one sweep over the other layers, since
F_{k-1} and B_k do not depend on omega_k.  It and forward_backward take
every step from _backward_step and _forward_step.

An instance whose seed is a tuple of R seeds is a batch of R independent
environments.  Every layer then carries a leading axis of length R, every
reduction runs over the trailing d site axes only, and entry r is bit for
bit the solution of the single instance with seed[r].  An int seed is the
same code with no leading axis.

A brute-force enumerator over all (2d)^n paths provides the independent
oracle for small instances.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import List, Mapping, Optional, Tuple, Union

import numpy as np

from .lattice import (PathDP, Site, is_reachable, layer_mask, step_vectors,
                      step_windows)
from .laws import EnvironmentLaw
from .rng import counter_uniform

BRUTE_FORCE_LIMIT = 20_000_000
_BRUTE_CHUNK = 1 << 15


Seed = Union[int, Tuple[int, ...]]


class NumericalError(RuntimeError):
    """A layer of the recursion produced non-finite values."""


def batch_shape(seed: Seed) -> Tuple[int, ...]:
    """Leading axes of every layer: (R,) for a tuple of R seeds, () for an int."""
    return (len(seed),) if isinstance(seed, tuple) else ()


def require_single(seed: Seed, what: str) -> None:
    """Refuse a batched seed where only one environment makes sense."""
    if isinstance(seed, tuple):
        raise ValueError(f"{what} takes one environment; got a batch of "
                         f"{len(seed)} seeds")


@dataclass(frozen=True)
class PolymerInstance:
    """Quenched realizations: dimension, length, temperature, law, seed.

    seed is an int for one environment, or a tuple of R ints for a batch of
    R environments solved together (a tuple keeps the instance hashable).
    centered: subtract the law's mean from every environment value.  This
    leaves the Gibbs measure unchanged up to a constant shift of log Z.
    """

    d: int
    n: int
    beta: float
    law: EnvironmentLaw
    seed: Seed
    centered: bool = False

    def __post_init__(self):
        if self.d < 1 or self.n < 1:
            raise ValueError("d and n must be >= 1")
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        if isinstance(self.seed, (list, np.ndarray)):
            raise TypeError("seed must be an int or a tuple of ints")
        if isinstance(self.seed, tuple) and not self.seed:
            raise ValueError("a seed tuple needs at least one seed")


# Boxes of at most this many sites keep their coordinates between solves, so
# the cache holds a finite key set (about 2 MiB at most, nearly all d = 1).
_CACHED_BOX_SITES = 1024


@lru_cache(maxsize=None)
def _box_coords(d: int, k: int) -> np.ndarray:
    """Integer coordinates of the box [-k, k]^d, shape box + (d,), read-only.

    env_layer draws each box twice per solve and again in the next solve;
    call it through _coords, which caches small boxes only."""
    idx = np.indices((2 * k + 1,) * d, dtype=np.int64)
    idx -= k
    out = idx.transpose(tuple(range(1, d + 1)) + (0,))
    out.flags.writeable = False
    return out


def _coords(d: int, k: int) -> np.ndarray:
    """_box_coords, from the cache for boxes of at most _CACHED_BOX_SITES."""
    if (2 * k + 1) ** d <= _CACHED_BOX_SITES:
        return _box_coords(d, k)
    return _box_coords.__wrapped__(d, k)


def _draw(instance: PolymerInstance, k: int, coords: np.ndarray) -> np.ndarray:
    """omega at step k on the given site coordinates (counter RNG, quantile,
    centering), shared by env_layer and env_value."""
    u = counter_uniform(instance.seed, k, coords)
    om = np.asarray(instance.law.quantile(u), dtype=np.float64)
    if instance.centered:
        om = om - instance.law.mean
    return om


def env_layer(instance: PolymerInstance, k: int) -> np.ndarray:
    """Dense omega values over the box [-k, k]^d for step k, with the batch
    axis of a seed tuple in front.

    Values at unreachable sites are generated too (they are cheap) but carry
    no weight in the recursion since the forward mass there is zero.
    """
    if not (1 <= k <= instance.n):
        raise ValueError(f"step {k} outside 1..{instance.n}")
    return _draw(instance, k, _coords(instance.d, k))


def env_value(instance: PolymerInstance, k: int, x: Site) -> float:
    """The omega value at one (step, site) key."""
    require_single(instance.seed, "env_value")
    if not (1 <= k <= instance.n):
        raise ValueError(f"step {k} outside 1..{instance.n}")
    if not is_reachable(x, k):
        raise ValueError(f"site {x} not reachable at step {k}")
    return float(_draw(instance, k, np.asarray([x], dtype=np.int64))[0])


def _neighbor_sum(layer: np.ndarray, d: int, up: bool) -> np.ndarray:
    """Sum over the 2d neighbours of every site, on the trailing d axes.

    up: from the box of step k-1 to the box of step k (side grows by 2);
    otherwise from the box of step k+1 to the box of step k.
    """
    m = layer.shape[-1] if up else layer.shape[-1] - 2
    out = np.zeros(layer.shape[:-d] + ((m + 2) if up else m,) * d)
    for _, window in step_windows(d, m):
        if up:
            out[window] += layer
        else:
            out += layer[window]
    return out


def _site_sums(layer: np.ndarray, d: int) -> np.ndarray:
    """Sums over the trailing d site axes, kept as size-1 axes."""
    lead = layer.shape[:-d]
    return layer.reshape(lead + (-1,)).sum(axis=-1).reshape(lead + (1,) * d)


def layer_alpha(theta: np.ndarray, d: int) -> np.ndarray:
    """alpha = sum_x theta_x^2 over the trailing d site axes of one layer."""
    return _site_sums(theta ** 2, d).reshape(theta.shape[:-d])


def _log(values: np.ndarray) -> np.ndarray:
    """Elementwise math.log: np.log may differ from it in the last bit, and
    log Z must not depend on the batch size."""
    return np.array([math.log(v) for v in values.flat]).reshape(values.shape)


def _layer_weights(instance: PolymerInstance, k: int) -> Optional[np.ndarray]:
    """exp(beta*omega_k), or None for the all-ones weights of beta=0."""
    if instance.beta == 0.0:
        return None
    return np.exp(instance.beta * env_layer(instance, k))


def _backward_step(b: Optional[np.ndarray], w: Optional[np.ndarray], k: int,
                   d: int, lead: Tuple[int, ...]) -> np.ndarray:
    """B_k = normalize(down(B_{k+1} * w)) from B_{k+1} (None for B_n = 1)
    and the weights w of layer k+1 (None at beta=0)."""
    if b is None:
        b = np.ones(lead + (2 * k + 3,) * d) if w is None else w
    elif w is not None:
        b = b * w
    b = _neighbor_sum(b, d, up=False)
    sb = _site_sums(b, d)
    if not (np.isfinite(sb).all() and (sb > 0.0).all()):
        raise NumericalError(f"non-finite backward layer at k={k}")
    b /= sb
    return b


def _forward_step(f: np.ndarray, w: Optional[np.ndarray], k: int,
                  d: int) -> Tuple[np.ndarray, np.ndarray]:
    """F_k = normalize(up(F_{k-1}) * w) and its normalizer, from F_{k-1}
    and the weights w of layer k (None at beta=0)."""
    f = _neighbor_sum(f, d, up=True)
    if w is not None:
        f *= w
    s = _site_sums(f, d)
    if not (np.isfinite(s).all() and (s > 0.0).all()):
        raise NumericalError(f"non-finite forward layer at k={k}")
    f /= s
    return f, s


@dataclass
class ThetaSolution:
    """Full forward-backward result for one instance or a batch.

    theta_layers[k-1] is the dense occupation-probability box at step k;
    forward_layers holds the normalized forward mass (needed for exact path
    sampling) and may be None for oracle-produced solutions.  For a seed
    tuple every layer has the batch axis in front, and log_partition is an
    (R,) array.  A keep_theta=False solve keeps no theta layers; it keeps
    the alpha sums (batch + (n,)) and the ell program (path_dp) instead.
    """

    d: int
    n: int
    beta: float
    seed: Seed
    theta_layers: List[np.ndarray]
    log_partition: Union[float, np.ndarray]
    layer_lognorms: Optional[np.ndarray] = None
    forward_layers: Optional[List[np.ndarray]] = None
    alpha: Optional[np.ndarray] = None
    path_dp: Optional[PathDP] = None

    def theta_array(self, k: int) -> np.ndarray:
        if not (1 <= k <= self.n):
            raise ValueError(f"step {k} outside 1..{self.n}")
        if not self.theta_layers:
            raise ValueError("theta layers were not kept (keep_theta=False)")
        return self.theta_layers[k - 1]

    def theta_value(self, k: int, site: Site) -> float:
        """theta at one (step, site) key; 0 off the reachability cone."""
        require_single(self.seed, "theta_value")
        theta = self.theta_array(k)
        if not is_reachable(site, k):
            return 0.0
        return float(theta[tuple(c + k for c in site)])


def checkpoint_stride(n: int) -> int:
    """Layers per segment of a keep_theta=False solve: ceil(sqrt(n))."""
    return math.isqrt(n - 1) + 1


def streamed_bytes(d: int, n: int) -> int:
    """Bytes one environment holds in a keep_theta=False solve: 8 per cell
    of the backward checkpoints and of two segments (their weights and
    backward layers), 1 per cell for the ell choices."""
    c = checkpoint_stride(n)
    cells = [(2 * k + 1) ** d for k in range(1, n + 1)]
    checkpoints = sum(cells[k - 1] for k in range(c, n, c))
    segment = max(sum(cells[lo:lo + c]) for lo in range(0, n, c))
    return 8 * (checkpoints + 2 * segment) + sum(cells)


def forward_backward(instance: PolymerInstance,
                     keep_forward: bool = True,
                     keep_theta: bool = True,
                     layer_seeds: Optional[Mapping[int, int]] = None) -> ThetaSolution:
    """Stabilized transfer-matrix recursion producing theta and log Z.

    The backward sweep runs first, B_n = 1 and
    B_k = normalize(down(B_{k+1} * exp(beta*omega_{k+1}))); then the forward
    sweep F_k = normalize(up(F_{k-1}) * exp(beta*omega_k)) yields theta in
    increasing k, theta_k = normalize(F_k * B_k) written over B_k, and
    theta_n = F_n.  A seed tuple solves its R environments together, layer
    by layer.  keep_forward keeps every F_k, for exact path sampling.

    keep_theta=False keeps no theta layer: the backward sweep keeps B_k
    only at the top layer of each segment of checkpoint_stride(n) layers,
    and the forward sweep draws a segment's weights once, recomputes the
    segment's B_k from its checkpoint with them, and reduces each theta_k
    to alpha_k and one step of the ell program before dropping it.  The
    values are those of the default mode bit for bit, and either mode
    draws each layer's environment twice (layer 1 once).

    layer_seeds {k: seed} draws layer k of one environment from another seed.
    """
    d, n, beta = instance.d, instance.n, instance.beta
    redrawn = {k: replace(instance, seed=s) for k, s in (layer_seeds or {}).items()}
    if redrawn:
        require_single(instance.seed, "layer_seeds")
    lead = batch_shape(instance.seed)
    stride = 1 if keep_theta else checkpoint_stride(n)

    def weights(k: int) -> Optional[np.ndarray]:
        return _layer_weights(redrawn.get(k, instance), k)

    checkpoints = {}
    b = None
    for k in range(n - 1, 0, -1):
        b = _backward_step(b, weights(k + 1), k, d, lead)
        if k % stride == 0:
            checkpoints[k] = b

    theta: List[np.ndarray] = []
    forward: List[np.ndarray] = []
    lognorms = np.empty(lead + (n,))
    alpha = None if keep_theta else np.empty(lead + (n,))
    path_dp = None if keep_theta else PathDP(d, lead)
    f = np.ones(lead + (1,) * d)
    for lo in range(1, n + 1, stride):
        hi = min(lo + stride - 1, n)
        ws = [weights(k) for k in range(lo, hi + 1)]
        bs = [None] * len(ws)
        bs[-1] = checkpoints.pop(hi, None)
        for i in range(len(bs) - 2, -1, -1):
            bs[i] = _backward_step(bs[i + 1], ws[i + 1], lo + i, d, lead)
        for i, k in enumerate(range(lo, hi + 1)):
            f, s = _forward_step(f, ws[i], k, d)
            ws[i] = None
            lognorms[..., k - 1] = _log(s.reshape(lead))
            if keep_forward:
                forward.append(f)
            if k == n:
                th = f.copy() if keep_forward else f
            else:
                th = np.multiply(f, bs[i], out=bs[i])
                bs[i] = None
                th /= _site_sums(th, d)
            if keep_theta:
                theta.append(th)
            else:
                alpha[..., k - 1] = layer_alpha(th, d)
                path_dp.push(th)

    log_partition = lognorms.sum(axis=-1)
    return ThetaSolution(
        d=d, n=n, beta=beta, seed=instance.seed,
        theta_layers=theta,
        log_partition=log_partition if lead else float(log_partition),
        layer_lognorms=lognorms,
        forward_layers=forward if keep_forward else None,
        alpha=alpha,
        path_dp=path_dp,
    )


def layer_theta(instance: PolymerInstance, k: int, omega_k) -> np.ndarray:
    """theta_k of one environment with layer k replaced by omega_k, bit for
    bit the step-k marginal of a full solve with that layer.

    B_k and F_{k-1} do not depend on omega_k: sweep the other layers down to
    B_k and up to F_{k-1}, take one forward step with exp(beta*omega_k), and
    return normalize(F_k * B_k), or F_n at k = n.  omega_k broadcasts against
    the step-k box: a scalar (0.0 gives zeta_k), one box, or M boxes on a
    leading axis for an (M,) + box result.
    """
    require_single(instance.seed, "layer_theta")
    d, n = instance.d, instance.n
    if not (1 <= k <= n):
        raise ValueError(f"step {k} outside 1..{n}")
    b = None
    for j in range(n - 1, k - 1, -1):
        b = _backward_step(b, _layer_weights(instance, j + 1), j, d, ())
    f = np.ones((1,) * d)
    for j in range(1, k):
        f, _ = _forward_step(f, _layer_weights(instance, j), j, d)
    omega_k = np.asarray(omega_k, dtype=np.float64)
    lead = np.broadcast_shapes(omega_k.shape, (2 * k + 1,) * d)[:-d]
    w = None if instance.beta == 0.0 else np.exp(instance.beta * omega_k)
    f, _ = _forward_step(np.broadcast_to(f, lead + f.shape), w, k, d)
    if k == n:
        return f
    theta = f * b
    theta /= _site_sums(theta, d)
    return theta


def _digits(idx: np.ndarray, base: int, n: int) -> np.ndarray:
    """Base-`base` digits of idx, shape (m, n); digit j picks the step at j."""
    out = np.empty((idx.size, n), dtype=np.int64)
    rem = idx.astype(np.int64)
    for j in range(n):
        out[:, j] = rem % base
        rem //= base
    return out


def _path_chunks(d: int, n: int):
    """All (2d)^n paths in chunks of _BRUTE_CHUNK: yields (slice of path
    indices, flat) where flat[k-1] holds each path's step-k site as an index
    into the raveled box [-k, k]^d."""
    steps = step_vectors(d)
    total = (2 * d) ** n
    for lo in range(0, total, _BRUTE_CHUNK):
        idx = np.arange(lo, min(lo + _BRUTE_CHUNK, total))
        pos = np.cumsum(steps[_digits(idx, 2 * d, n)], axis=1)      # (m, n, d)
        flat = [np.ravel_multi_index(tuple(pos[:, k - 1, a] + k for a in range(d)),
                                     (2 * k + 1,) * d)
                for k in range(1, n + 1)]
        yield slice(lo, lo + idx.size), flat


def brute_force(instance: PolymerInstance):
    """Exhaustive enumeration of all (2d)^n paths.

    Returns (ThetaSolution, rho, ell) computed directly from the path
    weights, independent of the forward-backward recursion.
    """
    require_single(instance.seed, "brute_force")
    d, n, beta = instance.d, instance.n, instance.beta
    total = (2 * d) ** n
    if total > BRUTE_FORCE_LIMIT:
        raise ValueError(f"(2d)^n = {total} exceeds brute-force limit {BRUTE_FORCE_LIMIT}")

    omega = [env_layer(instance, k).ravel() for k in range(1, n + 1)]
    logw = np.empty(total)
    for rows, flat in _path_chunks(d, n):
        s = np.zeros(rows.stop - rows.start)
        for om, fl in zip(omega, flat):
            s += om[fl]
        logw[rows] = beta * s

    m = logw.max()
    w = np.exp(logw - m)
    z = w.sum()
    log_partition = float(m + math.log(z))
    probs = w / z

    theta = [np.zeros((2 * k + 1,) * d) for k in range(1, n + 1)]
    for rows, flat in _path_chunks(d, n):
        for t, fl in zip(theta, flat):
            np.add.at(t.ravel(), fl, probs[rows])

    rho = float(sum(float((t ** 2).sum()) for t in theta) / n)

    # ell: exhaustive max over the same path set of the mean theta along the path.
    best = -np.inf
    for rows, flat in _path_chunks(d, n):
        score = np.zeros(rows.stop - rows.start)
        for t, fl in zip(theta, flat):
            score += t.ravel()[fl]
        best = max(best, float(score.max()))
    ell = best / n

    sol = ThetaSolution(
        d=d, n=n, beta=beta, seed=instance.seed,
        theta_layers=theta, log_partition=log_partition,
        layer_lognorms=None, forward_layers=None,
    )
    return sol, rho, ell


def sample_paths(solution: ThetaSolution, instance: PolymerInstance,
                 count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw `count` exact samples from the Gibbs measure, shape (count, n, d).

    Samples the endpoint from the forward mass, then walks backward choosing
    each predecessor proportionally to its forward mass.
    """
    require_single(solution.seed, "sample_paths")
    if solution.forward_layers is None:
        raise ValueError("solution lacks forward layers; rebuild with keep_forward=True")
    d, n = solution.d, solution.n
    steps = step_vectors(d)
    out = np.empty((count, n, d), dtype=np.int64)

    fl = solution.forward_layers[n - 1].ravel()
    cum = np.cumsum(fl)
    cum /= cum[-1]
    idx = np.searchsorted(cum, rng.random(count), side="right")
    idx = np.minimum(idx, fl.size - 1)
    pos = np.stack(np.unravel_index(idx, (2 * n + 1,) * d), axis=-1).astype(np.int64) - n
    out[:, n - 1] = pos

    for k in range(n - 1, 0, -1):
        cand = pos[:, None, :] + steps[None, :, :]          # (count, 2d, d)
        inside = np.all(np.abs(cand) <= k, axis=2)
        clipped = np.clip(cand + k, 0, 2 * k)
        flat = np.ravel_multi_index(
            tuple(clipped[:, :, a] for a in range(d)), (2 * k + 1,) * d)
        w = solution.forward_layers[k - 1].ravel()[flat] * inside
        cw = np.cumsum(w, axis=1)
        tot = cw[:, -1]
        if np.any(tot <= 0):
            raise NumericalError(f"no admissible predecessor at k={k}")
        r = rng.random(count) * tot
        choice = (r[:, None] >= cw).sum(axis=1)
        choice = np.minimum(choice, 2 * d - 1)
        pos = cand[np.arange(count), choice]
        out[:, k - 1] = pos
    return out


def sample_path(solution: ThetaSolution, instance: PolymerInstance,
                rng: np.random.Generator) -> np.ndarray:
    """One exact sample from the Gibbs measure, shape (n, d)."""
    return sample_paths(solution, instance, 1, rng)[0]


def theta_derivative_check(instance: PolymerInstance, solution: ThetaSolution,
                           k: int, x: Site, fd_step: float = 1e-6):
    """Compare the analytic sensitivity beta*theta*(1-theta) of theta_{k,x}
    to its own omega against a central finite difference.

    Returns (analytic, numeric).
    """
    if not (1e-8 <= fd_step <= 1e-4):
        raise ValueError("fd_step must lie in [1e-8, 1e-4]")
    t = solution.theta_value(k, x)
    analytic = instance.beta * t * (1.0 - t)

    w0 = env_value(instance, k, x)
    shift = instance.law.mean if instance.centered else 0.0
    lo = instance.law.support_lo - shift + instance.law.guard
    hi = instance.law.support_hi - shift - instance.law.guard
    w_plus, w_minus = w0 + fd_step, w0 - fd_step
    if w_plus > hi or w_minus < lo:
        warnings.warn("finite-difference step leaves the support; clamping")
        w_plus, w_minus = min(w_plus, hi), max(w_minus, lo)

    site = tuple(c + k for c in x)
    forced = np.stack([env_layer(instance, k)] * 2)
    forced[(0,) + site] = w_plus
    forced[(1,) + site] = w_minus
    t_plus, t_minus = layer_theta(instance, k, forced)[(slice(None),) + site]
    numeric = float(t_plus - t_minus) / (w_plus - w_minus)
    return analytic, numeric


def dump_solution(solution: ThetaSolution, csv_path: str, json_path: str) -> None:
    """Write nonzero theta entries as CSV rows (k, site, theta) plus a JSON
    sidecar with the run parameters."""
    require_single(solution.seed, "dump_solution")
    with open(csv_path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["k", "site", "theta"])
        for k in range(1, solution.n + 1):
            theta = solution.theta_array(k)
            for idx in np.argwhere(layer_mask(solution.d, k)):
                val = float(theta[tuple(idx)])
                if val != 0.0:
                    site = ";".join(str(int(c) - k) for c in idx)
                    wr.writerow([k, site, f"{val:.17g}"])
    with open(json_path, "w") as fh:
        json.dump({"log_partition": solution.log_partition,
                   "seed": solution.seed, "d": solution.d,
                   "n": solution.n, "beta": solution.beta}, fh, indent=2)
        fh.write("\n")
