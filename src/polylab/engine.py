"""Exact Gibbs-measure computation for quenched disorder realizations.

The environment is lazy and deterministic: omega_{k,x} is a pure function of
(seed, k, x) through the counter RNG, so layers are regenerated on demand
instead of being stored.  Every layer is stored in the layout of
lattice.layer_shape, the cube {0..k}^d of the rotated coordinates
(k + s(x)) / 2: the k+1 cone sites in d = 1, exactly the cone in d = 2, and
the cone plus cells of zero mass in d >= 3.  The forward-backward recursion
normalizes every layer by its sum, and the logs of the normalizers
accumulate to log Z.  Path weights reach exp(beta*b*n), far past float
range at experiment scale, so the normalization is not optional; each
layer's weights exp(beta*omega) are also taken relative to their largest
value, so that they never overflow.
When one layer's weights span more than exp(LOG_SPACE_RANGE), products of
normalized layers could underflow, and the same sweeps run in log space:
layers hold log-masses and neighbour sums are log-sum-exps.  Every
neighbour sum (_sum, or _log_sum in log space) takes its 2d steps as adds
of contiguous flat slices of lattice frames (lattice.step_geometry, planned
per solve by lattice.step_plan), with the results of the windowed sums bit
for bit.
Every function that takes a step k, from env_layer to the keys of
forward_backward's layer_omega, reads it through PolymerInstance.step,
which refuses a bool, a non-integer and a step not in 1..n, and every
function that takes a site (env_value, theta_value and so
theta_derivative_check) reads it through PolymerInstance.site, which
refuses the same coordinates and a site of the wrong length.

The backward sweep runs first and the forward sweep then yields theta in
increasing k.  By default every backward layer is kept and theta is written
over it; forward_backward(keep_theta=False) keeps backward layers only at
the tops of segments that hold about equal numbers of cells
(segment_tops), recomputes each segment from its checkpoint, and reduces
every theta layer to alpha and one step of the ell program as it appears,
so a solve holds about sqrt(n) layers' worth of cells instead of n layers.
Either mode draws each layer's environment twice (layer 1 once): the
backward sweep consumes the layers from n down, the forward sweep from 1
up, and holding them between the sweeps would cost n layers of memory
(Griewank & Walther's checkpointing, "revolve", ACM TOMS 26, 2000).
At beta=0 every backward layer is constant (before normalization, B_k is
(2d)^(n-k) at every site), so theta_k is the normalized forward layer F_k
itself: a beta=0 solve is its forward sweep, with no backward layer, no
draw and no second normalization.  Nor does F_k depend on n, so the solve
of length m is the first m layers of any longer one: the same theta,
alpha and normalizers, and the ell program's state after m steps.
ThetaSolution.prefix(m) reads it off; a streamed solve keeps that state
for the lengths forward_backward(prefixes=) names, two numbers per
environment each (lattice.PathDP.settle).

A figure-1 chunk solve is bound by the number of numpy calls per layer,
not by its cells: one replication costs over a third of what 53 do.  So a
solve looks its steps' slices and shapes up once (lattice.step_plan),
reduces over the site axes without reshaping, checks each normalizer with
two reductions and each drawn layer with one pass, and the counter RNG
mixes the keys of a block of steps at once.  A layer is drawn at its
coordinate arrays (lattice.layer_coords), made anew for every draw in a
few calls, each of at most (k+1)^2 entries in d <= 3.  Each step k of the
forward sweep is bound to the arrays it reads and writes (lattice.bind):
F_k and its (batch, cells) view, which _normalize and layer_alpha reduce
over, and, for a step bound on retained buffers, its frame's interior and
pads, the neighbour sum's 2d (into, take) view pairs and PathDP.push's
scores, move slices, edge cells and mask rows.  _sum, _normalize,
layer_alpha and push read the bound views; a step bound on new arrays
binds the rest as it runs, as the stencil always has.

A streamed beta=0 solve (keep_theta=False, keep_forward=False) returns
none of its layers, so it takes its steps bound on buffers that its thread
keeps between solves (_Retained, at most RETAINED_BYTES): one mapping each
for F_k, the frame (the neighbour sum's, the square in layer_alpha and
PathDP's, whose lifetimes never overlap), PathDP's scores and its move
masks, and the steps bound on them, which every later solve with the same
d and batch reuses, a shorter one its first n.  Allocated anew, the arrays
were freed at the end of every solve, glibc trimmed the heap, and the next
solve faulted its working set in again; bound anew, every layer built its
views again, about half of a small layer's cost.  A bound step holds about
3.5 KiB of array headers, lists and tuples in d = 1 and 7.5 KiB in d = 3,
counted with the mappings against RETAINED_BYTES: steps past it are bound
as they are reached, on new arrays, as in a fresh solve.  The steps are
bound again when a mapping is remapped (a longer solve, or another d or
batch).  Nothing retained leaves a solve: alpha, the log normalizers and
the packed choices are new arrays, and the ell program keeps no score
layer once the sweep has settled it (lattice.PathDP.settle), only each
row's top score and endpoint, at the end and at every kept prefix.
A beta > 0 solve binds every step anew, decided once per solve:
retaining its forward and ell arrays made figure1 slower, because its
segments' weights and backward layers, still allocated anew, were then
trimmed and faulted in more often.

layer_theta answers one-layer questions (the zero-layer marginal zeta_k, a
finite difference in omega_k) from one sweep over the other layers, since
F_{k-1} and B_k do not depend on omega_k.  It and forward_backward take
every layer's weights from _weights (None at beta=0, which draws nothing;
a beta=0 sweep is one segment and asks for none) and every step from
_backward_step and _forward_step, and every
layer, in either domain, is normalized by _normalize, which raises
NumericalError on a layer that is not finite; a drawn layer with any
non-finite value raises it too (_shifted).  Log-masses are shifted by
their largest and exponentiated in one place, _exp_shifted, for
_normalize and _theta alike.

An instance whose seed is a tuple of R seeds is a batch of R independent
environments.  Every layer then carries a leading axis of length R, every
reduction runs over the trailing d site axes only, and entry r is bit for
bit the solution of the single instance with seed[r].  An int seed is the
same code with no leading axis.

A brute-force enumerator over all (2d)^n paths provides the independent
oracle for small instances; path i takes its steps from the base-2d digits
of i (np.unravel_index).
"""

from __future__ import annotations

import math
import mmap
import numbers
import sys
import threading
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import accumulate, chain
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .lattice import (Bound, PathDP, Site, Step, bind, cell_sites, framed,
                      is_reachable, layer_cells, layer_coords, layer_shape, site_cells,
                      step_plan, step_vectors, sum_pairs)
from .laws import EnvironmentLaw
from .rng import as_int, counter_uniform

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


def require_drawn(solution: "ThetaSolution", what: str) -> None:
    """Refuse a solve with replaced layers where `what` redraws its
    environment from solution.instance, whose layers those are not: the
    callers are gamma_tau_profiles and theta_derivative_check."""
    if solution.replaced:
        raise ValueError(f"{what} redraws the environment of the instance, but "
                         f"this solve replaced its layers {list(solution.replaced)}")


@dataclass(frozen=True)
class PolymerInstance:
    """Quenched realizations: dimension, length, temperature, law, seed.

    seed is an int for one environment, or a tuple of R ints for a batch of
    R environments solved together (a tuple keeps the instance hashable).
    d, n and the seeds follow rng.as_int and are stored as Python ints;
    beta is a real number (not a bool), stored as a float.  The law is not
    read when an instance is made.
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
        # PathDP calls int.bit_length on d; a seed is stored as Python ints
        for name in ("d", "n"):
            object.__setattr__(self, name, as_int(name, getattr(self, name)))
        if self.d < 1 or self.n < 1:
            raise ValueError("d and n must be >= 1")
        if isinstance(self.beta, bool) or not isinstance(self.beta, numbers.Real):
            raise TypeError(f"beta must be a real number, got {self.beta!r}")
        object.__setattr__(self, "beta", float(self.beta))
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ValueError(f"beta must be finite and >= 0, got {self.beta!r}")
        if isinstance(self.seed, tuple):
            if not self.seed:
                raise ValueError("a seed tuple needs at least one seed")
            seed = tuple(as_int("each seed of a tuple", s) for s in self.seed)
        else:
            seed = as_int("seed", self.seed)
        object.__setattr__(self, "seed", seed)

    @property
    def omega_shift(self) -> float:
        """What centering subtracts from every environment value: the law's
        mean for a centered instance, else 0."""
        return self.law.mean if self.centered else 0.0

    def step(self, k) -> int:
        """k as a step of this instance, an int in 1..n: TypeError for a bool
        or a non-integer (numpy integers are taken), ValueError outside 1..n.
        Every function that takes a step reads it through here."""
        k = k if type(k) is int else as_int("step", k)
        if not 1 <= k <= self.n:
            raise ValueError(f"step {k} outside 1..{self.n}")
        return k

    def site(self, k, x) -> Optional[Site]:
        """x as a site of step k (read through step): a tuple of d ints, or
        None off the step-k cone.  Each coordinate follows rng.as_int, and a
        site without d coordinates raises ValueError.  Every function that
        takes a site reads it through here."""
        k = self.step(k)
        site = tuple(as_int("a site coordinate", c) for c in x)
        if len(site) != self.d:
            raise ValueError(f"site {site} has {len(site)} coordinates, not d={self.d}")
        return site if is_reachable(site, k) else None


def _draw(instance: PolymerInstance, k: int, coords) -> np.ndarray:
    """omega at step k on the sites whose coordinates x_1, ..., x_d are
    coords (counter RNG, quantile, centering), shared by env_layer and
    env_value."""
    u = counter_uniform(instance.seed, k, coords)
    om = np.asarray(instance.law.quantile(u), dtype=np.float64)
    if instance.centered:
        om -= instance.omega_shift
    return om


def env_layer(instance: PolymerInstance, k: int) -> np.ndarray:
    """omega at every cell of the step-k layer, drawn at its coordinate
    arrays (lattice.layer_coords), with the batch axis of a seed tuple in
    front.

    In d >= 3 the cube's sites off the cone are drawn too, but carry no
    weight in the recursion since the forward mass there is zero.
    """
    k = instance.step(k)
    return _draw(instance, k, layer_coords(instance.d, k))


def env_value(instance: PolymerInstance, k: int, x: Site) -> float:
    """The omega value at one (step, site) key."""
    require_single(instance.seed, "env_value")
    k = instance.step(k)
    site = instance.site(k, x)
    if site is None:
        raise ValueError(f"site {x} not reachable at step {k}")
    return float(_draw(instance, k, site))


def _sum(layer: np.ndarray, lead: Tuple[int, ...], here: Step, big: Step,
         up: bool, bound: Optional[Bound] = None) -> np.ndarray:
    """Sum over the 2d neighbours of every site of the step-k layer, whose
    geometry is `here` (lattice.step_geometry), with leading axes lead: up
    from the step-(k-1) layer, otherwise down from the step-(k+1) layer,
    whose geometry is `big` (`here` itself up).

    Each step is one add of contiguous flat slices (lattice.step_geometry)
    on frames of the larger layer.  Padding adds +0.0, so every cell gets
    the same terms in the same order as from windows.  Up, the sum is
    written into the layer of bound, step k as the forward sweep bound it
    (lattice.bind), through its slice pairs, or through pairs on a new
    frame where the step has none.  Framing reads the layer before the sum
    is written, so the layer and the sum may share a buffer."""
    if up:
        if bound.frame is None:     # a frame of its own, freed when the sum ends
            sums = sum_pairs(here, bound.layer, framed(layer, here, 0.0).reshape(-1))
        else:
            bound.frame.hold(layer, 0.0)
            sums = bound.sums
        (out, take), *rest = sums
        out[...] = take                 # offset 0: a copy, not 0 + x
        for out, take in rest:
            out += take
        return bound.layer
    result, source, out, pairs = _stencil(layer, lead, here, big, False, 0.0, None)
    (_, first), *rest = pairs
    out[...] = source[first]
    for into, take in rest:
        out[into] += source[take]
    np.copyto(result, out.reshape(layer.shape)[big.frame])
    return result


def _stencil(layer: np.ndarray, lead: Tuple[int, ...], here: Step, big: Step,
             up: bool, fill: float, bound: Optional[Bound]):
    """A neighbour sum into the step-k layer as flat frames: (result,
    source, out, pairs).  Each (into, take) of pairs reads source[take] into
    out[into].

    Up, source is the step-(k-1) layer padded with fill in a new frame,
    and out is the result itself, the layer of bound (step k as the forward
    sweep bound it).  Only _log_sum sums up here, and only at beta > 0,
    whose steps have no retained frame.  Down, source is the step-(k+1)
    layer and out a new frame of its shape, whose cells [0, k+1)^d the
    caller copies into the result.  The result outlives the frames and is
    allocated before them, so freed frames leave no holes between
    longer-lived layers: the other way round, figure1's peak RSS was about
    1 MiB higher."""
    if up:
        source = framed(layer, here, fill).reshape(-1)
        return bound.layer, source, bound.layer.reshape(-1), here.up
    result = np.empty(lead + here.shape)
    source = layer.reshape(-1)
    return result, source, np.empty(source.shape), big.down


def layer_alpha(theta: np.ndarray, d: int, bound: Optional[Bound] = None) -> np.ndarray:
    """alpha = sum_x theta_x^2 over the trailing d site axes of one layer.
    With the bound step of its sweep (lattice.bind), the square is written
    into the step's frame and reduced over its (batch, cells) view: shape
    (batch,), bit for bit the same sums."""
    if bound is None or bound.squares is None:
        sq = np.square(theta)
        return np.add.reduce(sq.reshape(theta.shape[:-d] + (-1,)), axis=-1)
    np.square(theta, out=bound.frame.cube)
    return np.add.reduce(bound.squares, axis=-1)


# A layer's weights span exp(beta * width) for a law of support width
# `width`.  Past this many nats the product of two normalized layers (F_k
# and B_k, or a layer and its weights) can underflow to zero everywhere, so
# sweeps run in log space: layers hold log-masses and neighbour sums are
# log-sum-exps.  Below it a weight is at least exp(-64), so no normalizer
# can underflow.
LOG_SPACE_RANGE = 64.0


def log_space(beta: float, law: EnvironmentLaw) -> bool:
    """Whether sweeps at this temperature and law run in log space."""
    return beta * law.width > LOG_SPACE_RANGE


Weights = Optional[Tuple[np.ndarray, np.ndarray]]
Plan = Tuple[Step, ...]


def _shifted(scaled: np.ndarray, d: int, log: bool) -> Weights:
    """(exp(scaled - m), m), written over scaled = beta*omega, with m the
    max of scaled over each environment's sites (size-1 site axes); in log
    space (scaled - m, m).

    The shifted weights lie in (0, 1], so they never overflow, and the
    shift is taken per environment, so it does not depend on the batch.  A
    layer with any non-finite value raises NumericalError: +inf and NaN
    would poison the shift, and a lone -inf would pass as a zero weight.
    A maximum is exact in any order, so each environment's is taken over
    its run of the flat layer (reduceat), which numpy runs in about half
    the time of a reduction over the site axes of a figure-1 chunk."""
    flat = scaled.reshape(-1)
    cells = math.prod(scaled.shape[-d:])
    m = np.maximum.reduceat(flat, np.arange(0, flat.size, cells))
    # the smallest value is -inf or NaN if any is, and m is +inf or NaN
    # where any is: checked before the shift, which would warn on inf - inf
    if not (-np.inf < np.minimum.reduce(flat, axis=None)
            and np.maximum.reduce(m, axis=None) < np.inf):
        raise NumericalError("non-finite environment layer")
    m = m.reshape(scaled.shape[:-d] + (1,) * d)
    scaled -= m
    if not log:
        np.exp(scaled, out=scaled)
    return scaled, m


def _weights(instance: PolymerInstance, k: int, log: bool,
             omega: Optional[np.ndarray] = None) -> Weights:
    """The shifted weights (_shifted) of layer k, drawn unless omega is given
    in its place, or None for the all-ones weights of beta=0, which draws
    nothing."""
    if instance.beta == 0.0:
        return None
    if omega is None:
        omega = env_layer(instance, k)
    return _shifted(instance.beta * omega, instance.d, log)


def _log(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Elementwise math.log of the 1-d values, written into out (1-d, of
    their size) and returned: np.log may differ from it in the last bit,
    and log Z must not depend on the batch size."""
    out[...] = list(map(math.log, values.tolist()))
    return out


def _log_sum(layer: np.ndarray, lead: Tuple[int, ...], here: Step, big: Step,
             up: bool, bound: Optional[Bound] = None) -> np.ndarray:
    """_sum of log-masses: the log of the sum of exp(layer) over the 2d
    neighbours, -inf where every neighbour is -inf.  Padding is -inf, which
    changes no maximum and adds exp(-inf) = +0.0."""
    result, source, total, pairs = _stencil(layer, lead, here, big, up, -np.inf, bound)
    top = np.full(source.shape, -np.inf)
    for into, take in pairs:
        np.maximum(top[into], source[take], out=top[into])
    np.copyto(top, 0.0, where=top == -np.inf)     # no finite neighbour
    total.fill(0.0)
    scaled = np.empty(source.shape)
    for into, take in pairs:
        term = np.subtract(source[take], top[into], out=scaled[into])
        total[into] += np.exp(term, out=term)
    del scaled                          # not held through the log and the copy
    with np.errstate(divide="ignore"):
        np.log(total, out=total)
    total += top
    if not up:
        np.copyto(result, total.reshape(layer.shape)[big.frame])
    return result


# The sweeps' (combine, neighbour sum): masses multiply by their weights and
# add over neighbours; log-masses add their log-weights and log-sum-exp.
_SWEEP_OPS = {False: (np.multiply, _sum), True: (np.add, _log_sum)}


# The site axis of a layer's (batch, cells) view (lattice.Bound.flat).
_FLAT = (-1,)


def _normalize(x: np.ndarray, axes: Tuple[int, ...], what: str, k: int,
               log: bool) -> np.ndarray:
    """Normalize the step-k layer x (C-contiguous) in place to total mass 1
    per environment and return the normalizers, with size-1 site axes.
    axes are x's trailing site axes; a reduction over them is the one over
    the flattened layer, bit for bit.  Masses are divided by their sum s,
    and s is returned.  In log space log s is subtracted and returned,
    summed as exp(x - max) with the max added back.  A layer whose s is not
    finite and positive (in log space: whose largest log-mass is not
    finite) raises NumericalError naming `what` and k."""
    if log:
        scaled, top = _exp_shifted(x, None, axes, what, k)
        s = np.add.reduce(scaled, axis=axes, keepdims=True)
        _log(s.reshape(-1), s.reshape(-1))
        s += top
        x -= s
        return s
    s = np.add.reduce(x, axis=axes, keepdims=True)
    # every s in (0, inf): two reductions, and NaN fails both comparisons
    if not (0.0 < np.minimum.reduce(s, axis=None) and np.maximum.reduce(s, axis=None) < np.inf):
        raise NumericalError(f"non-finite {what} layer at k={k}")
    x /= s
    return s


def _exp_shifted(x: np.ndarray, out: Optional[np.ndarray], axes: Tuple[int, ...],
                 what: str, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """(exp(x - top), top) for the log-masses x of the step-k layer, with top
    their largest per environment (size-1 site axes `axes`); the exp is
    written into out, a new array if out is None.  A top that is not finite
    raises NumericalError naming `what` and k."""
    top = np.maximum.reduce(x, axis=axes, keepdims=True)
    if not (-np.inf < np.minimum.reduce(top, axis=None)
            and np.maximum.reduce(top, axis=None) < np.inf):
        raise NumericalError(f"non-finite {what} layer at k={k}")
    e = np.subtract(x, top, out=out)
    return np.exp(e, out=e), top


def _backward_step(b: Optional[np.ndarray], w: Weights, plan: Plan, k: int,
                   lead: Tuple[int, ...], log: bool) -> np.ndarray:
    """B_k = normalize(down(B_{k+1} * w)) from B_{k+1} (None for B_n = 1)
    and the weights w of layer k+1; in log space, the log of it from
    log B_{k+1}.  plan is the solve's lattice.step_plan.  Only a beta > 0
    solve makes backward layers: at beta=0 theta_k is F_k."""
    here, big = plan[k], plan[k + 1]
    combine, neighbor_sum = _SWEEP_OPS[log]
    b = w[0] if b is None else combine(b, w[0])
    b = neighbor_sum(b, lead, here, big, False)
    _normalize(b, here.axes, "backward", k, log)
    return b


def _forward_step(f: np.ndarray, w: Weights, bound: Bound, k: int,
                  lead: Tuple[int, ...], log: bool,
                  lognorm: Optional[np.ndarray] = None) -> np.ndarray:
    """F_k = normalize(up(F_{k-1}) * w), written into bound.layer (the
    bound step k: lattice.bind), from F_{k-1} and the weights w of layer k
    (None at beta=0); in log space, log F_k from log F_{k-1}.  The log of
    its normalizer with the weights' shift added back is written into
    lognorm, a (batch,) view, when it is given.  F_k is normalized through
    its (batch, cells) view, which reduces as its site axes do."""
    combine, neighbor_sum = _SWEEP_OPS[log]
    f = neighbor_sum(f, lead, bound.step, bound.step, True, bound)
    if w is not None:
        combine(f, w[0], out=f)
    s = _normalize(bound.flat, _FLAT, "forward", k, log)
    if lognorm is not None:
        if log:
            lognorm[...] = s[:, 0]
        else:
            _log(s[:, 0], lognorm)
        if w is not None:
            lognorm += w[1].reshape(-1)
    return f


def _theta(f: np.ndarray, b: np.ndarray, k: int, axes: Tuple[int, ...],
           log: bool) -> np.ndarray:
    """theta_k = normalize(F_k * B_k), written over b; in log space b holds
    log B_k, and the log-masses are shifted by their largest and
    exponentiated before the (linear) normalization.  axes are the site
    axes."""
    combine, _ = _SWEEP_OPS[log]
    th = combine(b, f, out=b)
    if log:
        _exp_shifted(th, th, axes, "theta", k)
    _normalize(th, axes, "theta", k, False)
    return th


@dataclass
class ThetaSolution:
    """Full forward-backward result for one instance or a batch.

    instance is the PolymerInstance that was solved: its d, n, beta and
    seed are the solution's, and the readers of a solution (theta_value,
    sample_paths, theta_derivative_check and the functionals) take them,
    and the environment, from it.  replaced lists the steps whose layers a
    forward_backward(layer_omega=) solve replaced; the readers that redraw
    the environment from the instance (gamma_tau_profiles and
    theta_derivative_check) refuse such a solve (require_drawn).
    theta_layers[k-1] holds the occupation probabilities at step k in the
    layout of lattice.layer_shape;
    forward_layers holds the normalized forward mass (needed for exact path
    sampling) and may be None for oracle-produced solutions.  For a seed
    tuple every layer has the batch axis in front, and log_partition is an
    (R,) array.  A keep_theta=False solve keeps no theta layers; it keeps
    the alpha sums (batch + (n,)) and the ell program (path_dp) instead.
    """

    instance: PolymerInstance
    theta_layers: List[np.ndarray]
    log_partition: Union[float, np.ndarray]
    layer_lognorms: Optional[np.ndarray] = None
    forward_layers: Optional[List[np.ndarray]] = None
    alpha: Optional[np.ndarray] = None
    path_dp: Optional[PathDP] = None
    replaced: Tuple[int, ...] = ()

    def theta_array(self, k: int) -> np.ndarray:
        if not self.theta_layers:
            raise ValueError("theta layers were not kept (keep_theta=False)")
        return self.theta_layers[self.instance.step(k) - 1]

    def theta_value(self, k: int, site: Site) -> float:
        """theta at one (step, site) key; 0 off the reachability cone."""
        require_single(self.instance.seed, "theta_value")
        theta = self.theta_array(k)
        site = self.instance.site(k, site)
        if site is None:
            return 0.0
        return float(theta.reshape(-1)[site_cells(self.instance.d, k, site)])

    def prefix(self, m: int) -> "ThetaSolution":
        """The solve of length m, bit for bit, from this beta=0 solve of
        length n >= m: theta_k = F_k does not depend on n, so every field is
        its first m layers, log Z their normalizers' sum, and the ell
        program its state after m steps.  A streamed solve has that state
        for m = n and for the lengths its forward_backward(prefixes=) named,
        and raises ValueError for any other; so does a solve at beta > 0."""
        instance = self.instance
        if instance.beta:
            raise ValueError(f"a solve at beta={instance.beta} has no prefixes: "
                             f"theta_k depends on n")
        m = instance.step(m)
        lognorms = self.layer_lognorms[..., :m]
        log_partition = lognorms.sum(axis=-1)
        return ThetaSolution(
            instance=replace(instance, n=m),
            theta_layers=self.theta_layers[:m],
            log_partition=log_partition if lognorms.ndim > 1 else float(log_partition),
            layer_lognorms=lognorms,
            forward_layers=None if self.forward_layers is None else self.forward_layers[:m],
            alpha=None if self.alpha is None else self.alpha[..., :m],
            path_dp=None if self.path_dp is None else self.path_dp.prefix(m),
            replaced=tuple(k for k in self.replaced if k <= m),
        )


def _cumulative_cells(d: int, n: int) -> List[int]:
    """cum[k] = cells of layers 1..k, for k = 0..n."""
    return list(accumulate((layer_cells(d, k) for k in range(1, n + 1)), initial=0))


def _plan_cells(cum: List[int], tops: Tuple[int, ...]) -> Tuple[int, int]:
    """Cells of a segment plan's checkpoint layers (every top below n) and
    of its largest segment, from the cumulative cells cum."""
    largest = max(cum[t] - cum[lo] for lo, t in zip((0,) + tops[:-1], tops))
    return sum(cum[t] - cum[t - 1] for t in tops[:-1]), largest


@lru_cache(maxsize=None)
def segment_tops(d: int, n: int) -> Tuple[int, ...]:
    """Top layers of the segments of a keep_theta=False solve, increasing
    and ending at n; segment j is the layers after top j-1 up to top j.

    Layers grow with k, so segments are balanced by cells, not by layers.
    For a cap on a segment's cells, cutting greedily from the top (each
    segment as long as the cap allows) puts every checkpoint as low as any
    plan under that cap can.  Caps of about 1/m of all cells, for
    m = 1, 2, ..., give plans of about m segments; the plan with the fewest
    words, checkpoints plus twice the largest segment (its weights and
    backward layers), is kept.  A smaller cap puts each of its checkpoints
    at least as high as the current plan's, so once the current plan's
    checkpoints plus twice the top layer reach the best words, no smaller
    cap can do better and the search stops: after about twice the best m,
    O(sqrt(n)) bisections each in d = 1.
    """
    cum = _cumulative_cells(d, n)
    top_layer = cum[n] - cum[n - 1]
    best = plan = None
    for m in range(1, n + 1):
        cap = max(top_layer, -(-cum[n] // m))
        tops = [n]
        while tops[-1] > 0:
            tops.append(bisect_left(cum, cum[tops[-1]] - cap))
        tops = tuple(tops[-2::-1])
        checkpoints, largest = _plan_cells(cum, tops)
        if best is None or checkpoints + 2 * largest < best:
            best, plan = checkpoints + 2 * largest, tops
        if cap == top_layer or checkpoints + 2 * top_layer >= best:
            break
    return plan


# Bytes a solve holds beside its environments' shares (streamed_bytes),
# whatever its batch size: array headers and small objects, chiefly one
# packed choice array and one weight shift per layer and the counter RNG's
# last block of keys (8 words per environment), and the temporaries of
# drawing a layer, its coordinate arrays and their words, which draw_bytes
# sets aside for the top layer.  Every stencil op runs on contiguous
# slices, so numpy holds no ufunc buffer at a sweep's peak.  At the chunk
# sizes of tests/test_harness.py the peaks exceed the shares by at most
# 48 KB, and a one-replication solve by at most 45 KiB (d=1, n=300; about
# 10 KiB at d=3, n=12).
SOLVE_FIXED_BYTES = 192 << 10


def _solve_tops(d: int, n: int, beta: float, keep_theta: bool) -> Sequence[int]:
    """The segment tops a solve keeps backward checkpoints at, increasing and
    ending at n.  A beta=0 solve makes no backward layer, so it is one
    segment; every layer is a segment in the default mode at beta > 0.  A
    streamed beta > 0 solve keeps
    segment_tops(d, n) and every layer below its lowest top: the first
    backward sweep computes those layers anyway, so the lowest segment is
    never recomputed."""
    if beta == 0.0:
        return (n,)
    if keep_theta:
        return range(1, n + 1)
    tops = segment_tops(d, n)
    return tuple(range(1, tops[0])) + tops


def draw_bytes(d: int, n: int, beta: float) -> int:
    """Bytes of the temporaries of drawing the top layer, whatever the
    batch size: 16 per entry of its largest coordinate array
    (lattice.layer_coords), the array and its words in counter_uniform, or
    0 at beta=0, which draws nothing.  That is 16 (n+1) bytes in d = 1 and
    16 (n+1)^2 in d = 2, 3; from d = 4 on, x_1 spans every axis of the
    layer.  The rest of a draw holds arrays of the batch's shape, which
    streamed_bytes' moments cover."""
    return 0 if beta == 0.0 else 16 * max(x.size for x in layer_coords(d, n))


def streamed_bytes(d: int, n: int, beta: float, log: bool = False) -> int:
    """Bytes one environment holds in a keep_theta=False solve, an upper
    bound for its share of the solve's peak.

    Step k of the forward sweep, in a segment (lo, hi] of segment_tops,
    always holds the checkpoints of the segments above, the backward
    layers k..hi (B_n = 1 is not stored), alpha and the log normalizers (2
    words per layer), 8 scalar words (normalizers, weight shifts, their
    logs) and the packed ell choices up to layer k, 2d - 1 move masks of
    one bit per cell from layer 2 on (lattice.PathDP).  On top of that it
    holds the largest of three moments, with c_j the cells of layer j:
    the forward step (the weights of layers k..hi, F_{k-1} and the ell
    scores of layer k-1, and F_k with the step-k frame its neighbour sum
    reads), the ell step (the weights of layers k+1..hi, F_k, the scores of
    layer k-1, the step-k scores and the frame of the layer-(k-1) scores,
    and 2d + 1 bytes per cell of layer k: one byte for each of its 2d - 1
    masks before packing, and two bytes of slack), and the recompute of
    B_k (every weight of the segment, B_{k+1} * w_{k+1} and the step-(k+1)
    frame the neighbour sum adds into, and F_lo and the scores of layer
    lo).  In log space (log_space) the neighbour sums of the forward step
    and the recompute hold two more frames, the running maxima and terms
    of their log-sum-exps.  The bound is the largest total over the steps,
    8 bytes per float cell.
    beta=0 draws no weights and makes no backward layer, so it holds no
    weight, backward layer or checkpoint, recomputes nothing, and its
    theta_k is F_k itself.  Its working arrays come from retained buffers
    (_Retained), where F_k is written over F_{k-1} and the step-k scores
    over the layer-(k-1) ones, so neither older layer adds to a step."""
    cum = _cumulative_cells(d, n)
    c = [1] + [cum[k] - cum[k - 1] for k in range(1, n + 1)]     # c[0]: the origin
    moves = 2 * d - 1
    choices = list(accumulate((moves * -(-c[k] // 8) if k > 1 else 0
                               for k in range(1, n + 1)), initial=0))
    stencil = 4 if log else 2
    # a[k]: the cells of layer k's weights, and of B_k; neither exists at
    # beta=0
    a = [0] * (n + 1) if beta == 0.0 else c
    acum = list(accumulate(a))
    tops = _solve_tops(d, n, beta, False)
    above = sum(a[t] for t in tops[:-1])
    worst = 0
    for lo, hi in zip(chain((0,), tops), tops):
        if hi < n:
            above -= a[hi]                  # this checkpoint is the segment's B_hi
        for k in range(lo + 1, hi + 1):
            rest = acum[hi] - acum[k - 1]   # array cells of layers k..hi
            # the ell step holds the weights of layers k+1..hi and theta_k,
            # written over B_k (which `backward` counts), or F_k itself at
            # k = n and at beta=0.  At beta=0, F_k is written over F_{k-1}
            # and the step-k scores over the layer-(k-1) ones (_Retained).
            old = c[k - 1] if beta else 0
            forward = 8 * (rest + c[k - 1] + old + stencil * c[k])
            ell = 8 * (rest - a[k] + 3 * c[k] + old) + (moves + 2) * c[k]
            recompute = 0
            if k < hi and beta:
                recompute = 8 * (acum[hi] - acum[lo] + stencil * c[k + 1] + 2 * c[lo])
            backward = rest - (a[n] if hi == n else 0)
            held = 8 * (above + backward + 2 * n + 8) + choices[k]
            worst = max(worst, held + max(forward, ell, recompute))
    return worst


# The most bytes one thread keeps in the buffers of streamed beta=0 solves
# (_Retained).  When a solve drops its layers, glibc hands the freed top of
# the heap back to the kernel, and the next solve faults its working set in
# again: about 500 minor faults of about 3 us each per warm
# scaling_study(3, [8, 16, 32]), whose buffers take 1.0 MiB; a
# 212-replication d=1, n=300 chunk's take 1.5 MiB.  A few MiB cover both
# and bound what an idle thread holds; a larger request allocates anew.
RETAINED_BYTES = 4 << 20


def _object_bytes(obj) -> int:
    """Bytes of the Python objects of a bound step: each tuple's and list's
    own and its items', and each array's header without its data.  The
    Step it shares with lattice.step_geometry's cache counts nothing."""
    if isinstance(obj, np.ndarray):
        return sys.getsizeof(obj) - (obj.nbytes if obj.flags.owndata else 0)
    if isinstance(obj, Step) or not isinstance(obj, (tuple, list)):
        return 0
    return sys.getsizeof(obj) + sum(map(_object_bytes, obj))


class _Retained(threading.local):
    """This thread's buffers and bound steps for streamed beta=0 solves,
    kept between solves.

    flats holds one flat anonymous mapping per role of lattice.bind
    (layer, frame, score, masks).  A mapping stays mapped when a solve
    ends, so a warm solve touches no new page.  steps binds the solve's
    steps 1, 2, ... on the flats once (lattice.Bound: their views, slice
    pairs and the ell program's moves) and every later solve with the same
    d and leading axes reuses them, a shorter one the first n.  The flats
    and the bound steps' objects (_object_bytes) stay within
    RETAINED_BYTES together: a solve binds as many steps as fit, with the
    flats sized for the largest, and binds every later step anew as it
    reaches it, as a fresh solve does.  The bound steps view the mappings,
    so they are bound again whenever a mapping is remapped (a longer
    solve), and they are kept for one (d, leading axes) at a time.  Each
    thread has its own set, so concurrent solves never share one, and the
    mappings are private, so a forked worker writes to its own copy."""

    def __init__(self):
        self.flats = {}         # role -> flat array over its mapping
        self.key = None         # (d, lead) of the bound steps
        self.bound = []         # the bound steps 1..len(bound)
        self.planned = 0        # the longest solve they were planned for
        self.bound_bytes = 0    # _object_bytes of the bound steps

    def steps(self, plan: Plan, lead: Tuple[int, ...]) -> List[Bound]:
        """Bound steps 1..m (m <= n) of a streamed beta=0 solve with the
        step plan of (d, n) and leading axes lead, all on the flats."""
        d, n = len(plan[0].shape), len(plan) - 1
        if (d, lead) != self.key:
            self._drop((d, lead))
        if n <= self.planned:
            return self.bound
        self.planned = n
        rows, moves = math.prod(lead), 2 * d - 1

        def need(k: int) -> dict:
            cells = rows * layer_cells(d, k)
            return {"layer": 8 * cells, "frame": 8 * cells, "score": 8 * cells,
                    "masks": moves * cells}

        # every bound step holds as many objects as step 1; keep the most
        # steps whose flats and objects fit, with the flats sized for them
        per = _object_bytes(bind(plan[1], lead, {role: np.empty(size, np.uint8)
                                                 for role, size in need(1).items()}))
        m = bisect_right(range(n + 1), RETAINED_BYTES,
                         key=lambda k: sum(need(k).values()) + k * per) - 1
        sizes = need(m)
        if (any(role not in self.flats or self.flats[role].nbytes < size
                for role, size in sizes.items())
                or sum(f.nbytes for f in self.flats.values()) + m * per > RETAINED_BYTES):
            self._drop((d, lead))
            self.planned = n
            self.flats.update((role, np.frombuffer(
                mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE),
                bool if role == "masks" else np.float64)) for role, size in sizes.items())
        held = sum(f.nbytes for f in self.flats.values())
        for k in range(len(self.bound) + 1, m + 1):
            step = bind(plan[k], lead, self.flats)
            size = _object_bytes(step)
            if held + self.bound_bytes + size > RETAINED_BYTES:
                break
            self.bound_bytes += size
            self.bound.append(step)
        return self.bound

    def _drop(self, key) -> None:
        """Forget every bound step: the next are bound for key from step 1."""
        self.key, self.bound, self.planned, self.bound_bytes = key, [], 0, 0


_RETAINED = _Retained()


def forward_backward(instance: PolymerInstance,
                     keep_forward: bool = True,
                     keep_theta: bool = True,
                     layer_omega: Optional[Mapping[int, np.ndarray]] = None,
                     prefixes: Iterable[int] = ()) -> ThetaSolution:
    """Stabilized transfer-matrix recursion producing theta and log Z.

    The backward sweep runs first, B_n = 1 and
    B_k = normalize(down(B_{k+1} * exp(beta*omega_{k+1}))); then the forward
    sweep F_k = normalize(up(F_{k-1}) * exp(beta*omega_k)) yields theta in
    increasing k, theta_k = normalize(F_k * B_k) written over B_k, and
    theta_n = F_n.  At beta=0 every B_k is constant, so no backward layer is
    made and theta_k is F_k (a copy where keep_forward also keeps F_k).
    The weights are taken relative to each environment's largest in the
    layer, and past LOG_SPACE_RANGE the layers hold log-masses (log_space).  A seed tuple solves its R environments
    together, layer by layer.  keep_forward keeps every F_k, for exact path
    sampling.

    keep_theta=False keeps no theta layer: the backward sweep keeps B_k
    only at the top layer of each segment of segment_tops(d, n), whose
    segments are balanced by cells, not layers; the forward sweep draws a
    segment's weights once, recomputes the segment's B_k from its
    checkpoint with them, and reduces each theta_k to alpha_k and one step
    of the ell program before dropping it.  The default mode is the plan
    in which every layer is a segment.  The values are those of the default
    mode bit for bit, and either mode draws each layer's environment twice
    (layer 1 once).  The layers below the lowest segment top are
    checkpoints too (_solve_tops), so the lowest segment is not recomputed.
    beta=0 draws nothing and runs only the forward sweep, in either mode.

    layer_omega {k: omega} replaces layer k of one environment by omega,
    which broadcasts to the step-k layer shape, as in layer_theta.  The
    solution's instance is still `instance`, whose layer k is not omega, and
    its `replaced` lists the replaced steps in increasing order.

    prefixes names lengths m whose solves ThetaSolution.prefix(m) will
    read off this one, each read through instance.step.  Only a beta=0
    solve has them (theta_k = F_k does not depend on n), so at beta > 0 a
    length raises ValueError.  A stored solve needs nothing for them; a
    streamed one keeps the ell program's settled answer, each row's top
    score and endpoint, after each such step (lattice.PathDP).
    """
    d, n = instance.d, instance.n
    prefixes = frozenset(map(instance.step, prefixes))
    if prefixes and instance.beta:
        raise ValueError(f"prefixes {sorted(prefixes)} need beta=0: at beta="
                         f"{instance.beta} theta_k depends on n")
    omegas = {}
    for k, om in (layer_omega or {}).items():
        require_single(instance.seed, "layer_omega")
        k = instance.step(k)
        omegas[k] = np.broadcast_to(np.asarray(om, dtype=np.float64), layer_shape(d, k))
    lead = batch_shape(instance.seed)
    log = log_space(instance.beta, instance.law)
    tops = _solve_tops(d, n, instance.beta, keep_theta)
    plan = step_plan(d, n)
    # a streamed beta=0 solve takes its steps bound on this thread's
    # retained buffers; any other binds each step anew (module docstring)
    bound_steps = () if instance.beta or keep_theta or keep_forward else \
        _RETAINED.steps(plan, lead)

    def weights(k: int) -> Weights:
        return _weights(instance, k, log, omegas.get(k))

    # beta=0 makes no backward layer, so it keeps no checkpoint
    checkpoints = dict.fromkeys(tops[:-1] if instance.beta else ())
    if instance.beta:
        b = None
        for k in range(n - 1, 0, -1):
            b = _backward_step(b, weights(k + 1), plan, k, lead, log)
            if k in checkpoints:
                checkpoints[k] = b

    theta: List[np.ndarray] = []
    forward: List[np.ndarray] = []
    lognorms = np.empty(lead + (n,))
    alpha = None if keep_theta else np.empty(lead + (n,))
    # (batch, n) views: column k - 1 takes step k's values
    rows = (math.prod(lead), n)
    lognorm_rows = lognorms.reshape(rows)
    alpha_rows = None if keep_theta else alpha.reshape(rows)
    path_dp = None if keep_theta else PathDP(d, lead, prefixes)
    f = np.full(lead + (1,) * d, 0.0 if log else 1.0)
    bound_count = len(bound_steps)
    for lo, hi in zip(chain((1,), (t + 1 for t in tops)), tops):
        ws = bs = [None] * (hi + 1 - lo)    # beta=0: no weights, no backward layer
        if instance.beta:
            ws = [weights(k) for k in range(lo, hi + 1)]
            bs = [None] * len(ws)
            bs[-1] = checkpoints.pop(hi, None)
            for i in range(len(bs) - 2, -1, -1):
                bs[i] = _backward_step(bs[i + 1], ws[i + 1], plan, lo + i, lead, log)
        for i, k in enumerate(range(lo, hi + 1)):
            bound = bound_steps[k - 1] if k <= bound_count else bind(plan[k], lead)
            f = _forward_step(f, ws[i], bound, k, lead, log, lognorm_rows[:, k - 1])
            ws[i] = None
            if keep_forward:
                forward.append(np.exp(f) if log else f)
            if bs[i] is None:
                # B_k is constant (k = n, or beta=0), so theta_k is F_k; only
                # at k = n can f be in log space, and it is not read after
                # step n, so its logs can become theta_n
                th = forward[-1].copy() if keep_forward else (np.exp(f, out=f) if log else f)
            else:
                th = _theta(f, bs[i], k, plan[k].axes, log)
                bs[i] = None
            if keep_theta:
                theta.append(th)
            else:
                alpha_rows[:, k - 1] = layer_alpha(th, d, bound)
                path_dp.push(th, bound)
            th = bound = None       # the next step's layers can take their place

    if path_dp is not None:
        path_dp.settle()
    log_partition = lognorms.sum(axis=-1)
    return ThetaSolution(
        instance=instance,
        theta_layers=theta,
        log_partition=log_partition if lead else float(log_partition),
        layer_lognorms=lognorms,
        forward_layers=forward if keep_forward else None,
        alpha=alpha,
        path_dp=path_dp,
        replaced=tuple(sorted(omegas)),
    )


def layer_theta(instance: PolymerInstance, k: int, omega_k) -> np.ndarray:
    """theta_k of one environment with layer k replaced by omega_k, bit for
    bit the step-k marginal of a full solve with that layer.

    B_k and F_{k-1} do not depend on omega_k: sweep the other layers down to
    B_k and up to F_{k-1}, take one forward step with exp(beta*omega_k), and
    return normalize(F_k * B_k), or F_k where B_k is constant (k = n, or
    beta=0, which makes no backward layer).  omega_k broadcasts against
    the step-k layer: a scalar (0.0 gives zeta_k), one layer, or M layers on
    a leading axis for an (M,) + layer result.
    """
    require_single(instance.seed, "layer_theta")
    d, n = instance.d, instance.n
    k = instance.step(k)
    log = log_space(instance.beta, instance.law)
    plan = step_plan(d, n)
    b = None                    # B_k, made only at beta > 0 and k < n
    if instance.beta:
        for j in range(n - 1, k - 1, -1):
            b = _backward_step(b, _weights(instance, j + 1, log), plan, j, (), log)
    f = np.full((1,) * d, 0.0 if log else 1.0)
    for j in range(1, k):
        f = _forward_step(f, _weights(instance, j, log), bind(plan[j], ()), j, (), log)
    omega_k = np.asarray(omega_k, dtype=np.float64)
    shape = np.broadcast_shapes(omega_k.shape, layer_shape(d, k))
    w = _weights(instance, k, log, np.broadcast_to(omega_k, shape))
    lead = shape[:-d]
    f = _forward_step(np.broadcast_to(f, lead + f.shape), w, bind(plan[k], lead), k, lead, log)
    if b is None:
        return np.exp(f) if log else f
    return _theta(f, np.broadcast_to(b, shape).copy(), k, plan[k].axes, log)


def _path_chunks(d: int, n: int):
    """All (2d)^n paths in chunks of _BRUTE_CHUNK: yields (slice of path
    indices, flat) where flat[k-1] holds each path's step-k site as a flat
    cell of the step-k layer."""
    steps = step_vectors(d)
    total = (2 * d) ** n
    for lo in range(0, total, _BRUTE_CHUNK):
        idx = np.arange(lo, min(lo + _BRUTE_CHUNK, total))
        digits = np.stack(np.unravel_index(idx, (2 * d,) * n)[::-1], axis=1)
        pos = np.cumsum(steps[digits], axis=1)      # (m, n, d); digit j is step j
        flat = [site_cells(d, k, pos[:, k - 1]) for k in range(1, n + 1)]
        yield slice(lo, lo + idx.size), flat


def _path_sums(layers: List[np.ndarray], d: int, n: int):
    """For each chunk of _path_chunks: (slice of path indices, the sum over
    k of layers[k-1] at each path's step-k cell)."""
    for rows, flat in _path_chunks(d, n):
        total = np.zeros(rows.stop - rows.start)
        for layer, fl in zip(layers, flat):
            total += layer.ravel()[fl]
        yield rows, total


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

    omega = [env_layer(instance, k) for k in range(1, n + 1)]
    logw = np.empty(total)
    for rows, s in _path_sums(omega, d, n):
        logw[rows] = beta * s

    m = logw.max()
    w = np.exp(logw - m)
    z = w.sum()
    log_partition = float(m + math.log(z))
    probs = w / z

    theta = [np.zeros(layer_shape(d, k)) for k in range(1, n + 1)]
    for rows, flat in _path_chunks(d, n):
        for t, fl in zip(theta, flat):
            np.add.at(t.ravel(), fl, probs[rows])

    rho = float(sum(float((t ** 2).sum()) for t in theta) / n)

    # ell: exhaustive max over the same path set of the mean theta along the path.
    ell = max(float(score.max()) for _, score in _path_sums(theta, d, n)) / n

    return ThetaSolution(instance, theta, log_partition), rho, ell


def sample_paths(solution: ThetaSolution, count: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Draw `count` exact samples from the Gibbs measure, shape (count, n, d).

    Samples the endpoint from the forward mass, then walks backward choosing
    each predecessor proportionally to its forward mass.
    """
    require_single(solution.instance.seed, "sample_paths")
    if solution.forward_layers is None:
        raise ValueError("solution lacks forward layers; rebuild with keep_forward=True")
    d, n = solution.instance.d, solution.instance.n
    steps = step_vectors(d)
    out = np.empty((count, n, d), dtype=np.int64)

    fl = solution.forward_layers[n - 1].ravel()
    cum = np.cumsum(fl)
    cum /= cum[-1]
    idx = np.searchsorted(cum, rng.random(count), side="right")
    idx = np.minimum(idx, fl.size - 1)
    pos = cell_sites(d, n, idx)
    out[:, n - 1] = pos

    for k in range(n - 1, 0, -1):
        cand = pos[:, None, :] + steps[None, :, :]          # (count, 2d, d)
        # a neighbour of a step-(k+1) site with |y|_1 <= k is on the step-k
        # cone; the others may lie outside the layer, so they read cell 0,
        # which `inside` weighs by zero
        inside = np.abs(cand).sum(axis=2) <= k
        flat = np.where(inside, site_cells(d, k, cand), 0)
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


# Half-width of theta_derivative_check's central difference in omega.
_FD_STEP = 1e-6


def theta_derivative_check(solution: ThetaSolution, k: int, x: Site):
    """Compare the analytic sensitivity beta*theta*(1-theta) of theta_{k,x}
    to its own omega against a central finite difference of half-width
    _FD_STEP in the environment of solution.instance.

    Returns (analytic, numeric).
    """
    require_drawn(solution, "theta_derivative_check")
    instance = solution.instance
    t = solution.theta_value(k, x)
    analytic = instance.beta * t * (1.0 - t)

    w0 = env_value(instance, k, x)
    lo, hi = (edge - instance.omega_shift for edge in instance.law.inner)
    w_plus, w_minus = w0 + _FD_STEP, w0 - _FD_STEP
    if w_plus > hi or w_minus < lo:
        warnings.warn("finite-difference step leaves the support; clamping")
        w_plus, w_minus = min(w_plus, hi), max(w_minus, lo)

    cell = site_cells(instance.d, k, x)
    forced = np.stack([env_layer(instance, k).reshape(-1)] * 2)
    forced[:, cell] = w_plus, w_minus
    forced = forced.reshape((2,) + layer_shape(instance.d, k))
    t_plus, t_minus = layer_theta(instance, k, forced).reshape(2, -1)[:, cell]
    numeric = float(t_plus - t_minus) / (w_plus - w_minus)
    return analytic, numeric
