"""Bounded-support environment laws and their analytic machinery.

A law is given by a density f on a bounded open interval (a, b).  From it we
derive the weight function

    h(x) = integral_x^b (y - m) f(y) dy / f(x),

its supremum K (the Poincare constant of the law), the Laplace-type
transform phi(lambda) of h, and the threshold scale kappa used in the
lower-tail argument.  Self-checks verify the integration-by-parts identity
and the Poincare inequality on concrete test functions.  Every integral,
phi's among them, is EnvironmentLaw.integrate, one panel rule, over a
range inside EnvironmentLaw.inner, the support less its guard band, and
the edge checks stay inside it too; quadrature stops at a panel that is
not finite, and every check of validate() is written so that NaN fails
it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence, Tuple

import numpy as np

from .rng import as_int, derive_seed

# Guard band keeping evaluations strictly inside the open support, as a
# fraction of (b - a).  f may vanish at the endpoints, making h a 0/0 form.
EDGE_GUARD = 1e-12

_PANEL_NODES, _PANEL_WEIGHTS = np.polynomial.legendre.leggauss(16)
# panel_gauss's tolerance over the whole interval: absolute, or relative to
# the integral of |fn| where that is larger, since an integrand near 1e8
# (x^2 near x = 1e4) rounds by more than any absolute 1e-10.  And the most
# panels one of its rounds bisects: an integrand whose rounding exceeds the
# tolerance would otherwise double its panels every round until they are an
# ulp wide
_PANEL_TOL = 1e-10
_PANEL_REL = 1e-11
_PANEL_MAX_SPLIT = 2 ** 14
# integrate's end pieces are cut this many times toward each end:
# 2^-40 < EDGE_GUARD, so the finest panel is narrower than the guard band
# whatever the end piece's width
_END_GRADING = 40


def panel_gauss(fn: Callable, edges: Sequence[float]) -> float:
    """integral of fn over (edges[0], edges[-1]) by a 16-node Gauss-Legendre
    rule on each panel between consecutive edges and on its two halves.  The
    tolerance is _PANEL_TOL, or _PANEL_REL times the sum of |rule| over the
    first panels where that is larger and finite.  A panel whose halves
    differ from it by more than its share of the tolerance (its width over
    the whole) is bisected, its halves becoming the next round's panels,
    unless its halves sum to NaN or an infinity or its midpoint rounds to
    one of its ends; otherwise its halves are kept.  A round that would
    bisect more than _PANEL_MAX_SPLIT panels keeps all their halves
    instead, so the work is bounded whatever fn is.  fn is evaluated once
    on the first panels' nodes, as a (panels, 16) array, and once per round
    on their halves' nodes."""
    def rule(lo, hi):
        c, hw = 0.5 * (lo + hi), 0.5 * (hi - lo)
        return hw * (np.asarray(fn(c[:, None] + hw[:, None] * _PANEL_NODES),
                                dtype=np.float64) @ _PANEL_WEIGHTS)

    lo, hi = np.asarray(edges[:-1], dtype=np.float64), np.asarray(edges[1:], dtype=np.float64)
    whole, total = rule(lo, hi), 0.0
    scale = _PANEL_REL * float(np.add.reduce(np.abs(whole)))
    share = (scale if _PANEL_TOL < scale < math.inf else _PANEL_TOL) / (edges[-1] - edges[0])
    while lo.size:
        mid = 0.5 * (lo + hi)
        left, right = np.split(rule(np.concatenate((lo, mid)), np.concatenate((mid, hi))), 2)
        halves = left + right
        split = (np.isfinite(halves) & ~(np.abs(whole - halves) <= share * (hi - lo))
                 & (mid != lo) & (mid != hi))
        if np.count_nonzero(split) > _PANEL_MAX_SPLIT:
            split[:] = False
        total += float(np.add.reduce(halves[~split]))
        lo, hi = np.concatenate((lo[split], mid[split])), np.concatenate((mid[split], hi[split]))
        whole = np.concatenate((left[split], right[split]))
    return total


class LawValidationError(ValueError):
    """A proposed environment law violates the required conditions."""


@dataclass(frozen=True)
class EnvironmentLaw:
    """A bounded-support probability law for the disorder variables.

    density must accept numpy arrays.  h_closed_form evaluates h exactly
    (up to rounding) on arrays; quadrature of the density is only the
    reference validate() checks it against.  kinks are the interior points
    where the density is not smooth; integrate() starts its panels at
    them, so it is exact to rounding for a piecewise-polynomial density.
    quantile maps [0, 1) into the open support.  The laws built here bind
    module-level functions with functools.partial, so they pickle: a
    parallel run ships the law its parent parsed and validated.
    """

    support_lo: float
    support_hi: float
    density: Callable[[np.ndarray], np.ndarray]
    mean: float
    quantile: Callable[[np.ndarray], np.ndarray]
    h_closed_form: Callable[[np.ndarray], np.ndarray]
    kinks: Tuple[float, ...] = ()
    name: str = "law"

    @property
    def width(self) -> float:
        return self.support_hi - self.support_lo

    @property
    def guard(self) -> float:
        return EDGE_GUARD * self.width

    @property
    def inner(self) -> Tuple[float, float]:
        """The support less its guard band at each end, where h and the
        density are evaluated without a 0/0 form."""
        return self.support_lo + self.guard, self.support_hi - self.guard

    def _check_inside(self, x: float) -> None:
        if not (self.support_lo < x < self.support_hi):
            raise ValueError(
                f"x={x} outside the open support "
                f"({self.support_lo}, {self.support_hi}); h is undefined there")

    def h(self, x):
        """The weight function h, as float64, in closed form."""
        return self.h_closed_form(np.asarray(x, dtype=np.float64))

    def h_eval(self, x: float) -> float:
        """h at a single point strictly inside the support."""
        self._check_inside(x)
        return float(self.h(x))

    def integrate(self, fn: Callable, lo: float, hi: float) -> float:
        """integral over (lo, hi) of fn(y) * density(y) by panel_gauss, whose
        first panels are the pieces between the kinks inside (lo, hi), or
        the two halves of (lo, hi) if there are none, so that fn and the
        density are evaluated once per round on all of them.  h vanishes
        at the support's ends, so at large lambda exp(-lambda h) lives in a
        layer of width about 1/lambda there, narrower than any node of an
        end piece's rule sees: the end pieces are cut at 2^-1, ..., 2^-40
        of their width from the end, so that some panel matches the layer.  A
        layer also forms where h is small at an interior kink, as next to
        the peak of a coarse table's density, and the pieces are not graded
        there: panel_gauss bisects the panels that do not resolve it (one
        fixed rule per panel misses about 1e-8 of phi at lambda 300 on
        tests/test_laws.py's COARSE table)."""
        kinks = [k for k in self.kinks if lo < k < hi] or [0.5 * (lo + hi)]
        grading = 0.5 ** np.arange(_END_GRADING, 0, -1)
        edges = np.concatenate(([lo], lo + (kinks[0] - lo) * grading, kinks,
                                hi - (hi - kinks[-1]) * grading[::-1], [hi]))
        return panel_gauss(lambda y: fn(y) * self.density(y), edges)

    def _h_quad(self, x: float) -> float:
        """Quadrature reference for h(x), its integral taken from the nearer
        end as _table_h does: minus the integral over (inner[0], x) below
        the mean, the integral over (x, inner[1]) at or above it.  Taken
        from the far end in a thin tail, it is a near-cancellation of order-1
        terms divided by a density of 1e-9 or less."""
        self._check_inside(x)
        m = self.mean
        if x < m:
            num = -self.integrate(lambda y: y - m, self.inner[0], x)
        else:
            num = self.integrate(lambda y: y - m, x, self.inner[1])
        return num / float(self.density(np.asarray(x)))

    def interior_grid(self, count: int = 4096) -> np.ndarray:
        pad = max(self.guard, self.width / (count + 1))
        return np.linspace(self.support_lo + pad, self.support_hi - pad, count)

    def validate(self) -> None:
        """Raise LawValidationError if the law fails its structural checks.

        Each test is written so that NaN fails it: a density, a mean or an h
        that is NaN where a test looks is refused."""
        a, b = self.support_lo, self.support_hi
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise LawValidationError(f"invalid support ({a}, {b})")
        total = self.integrate(lambda y: 1.0, *self.inner)
        if not abs(total - 1.0) <= 1e-8:
            raise LawValidationError(f"density integrates to {total}, not 1")
        # about the declared mean, so that no guard band's loss of mass
        # reads as a shift of a mean far from 0
        off = self.integrate(lambda y: y - self.mean, *self.inner)
        if not abs(off) <= 1e-8:
            raise LawValidationError(
                f"density mean {self.mean + off} != declared mean {self.mean}")
        grid = self.interior_grid(512)
        hv = self.h(grid)
        if np.any(hv <= 0):
            raise LawValidationError("h is not strictly positive on the interior grid")
        # |h'| must stay bounded; estimate on the grid by finite differences.
        dh = np.diff(hv) / np.diff(grid)
        if not np.all(np.isfinite(dh)):
            raise LawValidationError("h' is not finite on the interior grid")
        probe = self.interior_grid(64)
        hq = np.array([self._h_quad(float(x)) for x in probe])
        if not np.max(np.abs(self.h(probe) - hq)) <= 1e-8:
            raise LawValidationError("closed-form h disagrees with quadrature")


def _uniform_density(lo, hi, y):
    y = np.asarray(y, dtype=np.float64)
    return np.where((y > lo) & (y < hi), 1.0 / (hi - lo), 0.0)


def _uniform_h(lo, hi, x):
    m = 0.5 * (lo + hi)
    return 0.5 * ((hi - m) ** 2 - (np.asarray(x, dtype=np.float64) - m) ** 2)


def _uniform_quantile(lo, hi, u):
    x = (hi - lo) * np.asarray(u, dtype=np.float64)
    x += lo
    return x


def make_uniform(lo: float, hi: float) -> EnvironmentLaw:
    """Uniform law on (lo, hi).

    h has the closed form ((hi - m)^2 - (x - m)^2) / 2 with m the midpoint,
    which for Uniform[-1, 1] reduces to (1 - x^2) / 2.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise LawValidationError(f"invalid interval ({lo}, {hi})")
    return EnvironmentLaw(support_lo=lo, support_hi=hi,
                          density=partial(_uniform_density, lo, hi),
                          mean=0.5 * (lo + hi),
                          quantile=partial(_uniform_quantile, lo, hi),
                          h_closed_form=partial(_uniform_h, lo, hi),
                          name=f"uniform({lo},{hi})")


def _table_density(xs, fs, y):
    y = np.asarray(y, dtype=np.float64)
    return np.where((y >= xs[0]) & (y <= xs[-1]), np.interp(y, xs, fs), 0.0)


def _table_moment(u, v, fu, fv, m):
    """integral over (u, v) of (y - m) f(y) for f linear from fu to fv, by
    Simpson's rule, which is exact for this quadratic."""
    return (v - u) / 6.0 * ((u - m) * fu + 2.0 * (0.5 * (u + v) - m) * (fu + fv)
                            + (v - m) * fv)


def _table_h(xs, fs, heads, tails, m, x):
    """h of the piecewise-linear density.  Above the mean it is the
    integral of (y - m) f(y) over (x, b) over f(x): tails[i] is the integral
    over (xs[i], b), and x's own panel adds the rest.  Below the mean it is
    minus the integral over (a, x), from heads[i], the integral over
    (a, xs[i]), so that neither form is a small difference of two large
    integrals: the whole integral is 0."""
    i = np.searchsorted(xs[1:-1], x, side="right")
    fx = np.interp(x, xs, fs)
    above = tails[i + 1] + _table_moment(x, xs[i + 1], fx, fs[i + 1], m)
    below = heads[i] + _table_moment(xs[i], x, fs[i], fx, m)
    return np.where(x < m, -below, above) / fx


def make_table_law(xs: Sequence[float], fs: Sequence[float]) -> EnvironmentLaw:
    """Law from tabulated density samples (strictly increasing x covering (a,b)).

    The density is linearly interpolated and renormalized; the quantile is
    the exact inverse of the piecewise-linear interpolant of the numeric CDF.
    h is exact for the interpolant: (y - m) f(y) is quadratic on each panel,
    so its tail integrals are panel sums, taken from the nearer end of the
    support (_table_h).  The mean m is the sum of the same
    panel moments taken about 0, so the tail over the whole support is 0 up
    to rounding.  The interior samples are the law's kinks.
    """
    xs = np.asarray(xs, dtype=np.float64)
    fs = np.asarray(fs, dtype=np.float64)
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(fs))):
        raise LawValidationError("table law samples must be finite numbers")
    if xs.ndim != 1 or xs.size < 4 or np.any(np.diff(xs) <= 0):
        raise LawValidationError("table law needs >= 4 strictly increasing x samples")
    if np.any(fs < 0) or np.any(fs[1:-1] <= 0):
        raise LawValidationError("table density must be positive strictly inside (a, b)")
    total = np.trapezoid(fs, xs)
    fs = fs / total
    lo, hi = float(xs[0]), float(xs[-1])
    # Dense CDF; strictly increasing, since fs > 0 inside (a, b).
    grid = np.linspace(lo, hi, 16385)
    pdf = np.interp(grid, xs, fs)
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(grid))))
    cdf /= cdf[-1]
    mean = float(_table_moment(xs[:-1], xs[1:], fs[:-1], fs[1:], 0.0).sum())
    panels = _table_moment(xs[:-1], xs[1:], fs[:-1], fs[1:], mean)
    tails = np.concatenate((np.cumsum(panels[::-1])[::-1], [0.0]))
    heads = np.concatenate(([0.0], np.cumsum(panels)))
    return EnvironmentLaw(support_lo=lo, support_hi=hi,
                          density=partial(_table_density, xs, fs), mean=mean,
                          quantile=partial(np.interp, xp=cdf, fp=grid),
                          h_closed_form=partial(_table_h, xs, fs, heads, tails, mean),
                          kinks=tuple(float(x) for x in xs[1:-1]), name="table")


def load_table_law(path: str) -> EnvironmentLaw:
    """Read a CSV with x,f columns into a table law.  Blank rows are
    skipped, and the first other row is a header if its first cell is x;
    every other row holds two numbers, and a row with a non-blank cell
    past them is refused by its line.  Bytes that are not UTF-8 are kept
    as escapes (surrogateescape), so a cell that holds one is not a number
    and its line is refused by name."""
    with open(path, newline="", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, row) for row in reader if any(map(str.strip, row))]
    if rows and rows[0][1][0].strip().lower() == "x":     # the header
        del rows[0]
    xs, fs = [], []
    for line, row in rows:
        try:
            x, f = row[:2] + [cell for cell in row[2:] if cell.strip()]
            xs.append(float(x))
            fs.append(float(f))
        except ValueError:          # not two cells, or one not a number
            raise LawValidationError(f"{path} line {line}: want two "
                                     f"numbers x,f, got {row!r}") from None
    return make_table_law(xs, fs)


def poincare_constant(law: EnvironmentLaw) -> float:
    """K = sup of h over the support.

    The largest h on a nested grid: the 4096-point interior grid, then
    three times 4097 points between the two grid neighbours of the
    current maximizer, each spanning 1/2048 of the one before.
    """
    grid, best = law.interior_grid(4096), []
    for _ in range(4):
        hv = law.h(grid)
        i = int(np.argmax(hv))
        best.append(hv[i])
        grid = np.linspace(grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)], 4097)
    return float(np.max(best))


def phi(law: EnvironmentLaw, lam: float) -> float:
    """phi(lambda) = E exp(-lambda h(X)) over law.inner; equals 1 at lambda
    0, decreasing.  A negative or NaN lambda raises ValueError."""
    if not lam >= 0:
        raise ValueError(f"lambda must be nonnegative, got {lam!r}")
    if lam == 0:
        return 1.0
    return law.integrate(lambda y: np.exp(-lam * law.h(y)), *law.inner)


def kappa(law: EnvironmentLaw, d: int) -> float:
    """1 / lambda* where lambda* is the smallest rate at which
    log phi(lambda) drops below -2 log 2 - 2 log(2d) - 4.  d follows
    rng.as_int.
    """
    if as_int("d", d) < 1:
        raise ValueError("d must be >= 1")
    threshold = -2.0 * math.log(2) - 2.0 * math.log(2 * d) - 4.0

    lam_hi = 1.0
    while math.log(phi(law, lam_hi)) > threshold:
        lam_hi *= 2.0
        if lam_hi > 1e12:
            raise LawValidationError(
                "phi never reaches the kappa threshold; "
                "the law carries too much mass where h is tiny")
    lam_lo = lam_hi / 2.0 if lam_hi > 1.0 else 0.0
    while lam_hi - lam_lo > 1e-6 * lam_hi:
        mid = 0.5 * (lam_lo + lam_hi)
        if math.log(phi(law, mid)) <= threshold:
            lam_hi = mid
        else:
            lam_lo = mid
    return 1.0 / lam_hi


def check_ibp(law: EnvironmentLaw, g: Callable, g_prime: Callable) -> float:
    """Residual of the integration-by-parts identity
    E((X - m) g(X)) = E(h(X) g'(X)); should vanish for smooth bounded g.
    Over law.inner the two sides differ by the boundary term h f g at the
    guard band, about 2e-12 for Uniform[-1, 1].
    """
    lhs = law.integrate(lambda y: (y - law.mean) * np.asarray(g(y)), *law.inner)
    rhs = law.integrate(lambda y: law.h(y) * np.asarray(g_prime(y)), *law.inner)
    return abs(lhs - rhs)


def check_poincare(law: EnvironmentLaw, g: Callable, g_prime: Callable) -> float:
    """Margin K * E(g'(X)^2) - Var(g(X)); nonnegative up to quadrature error.
    The expectations are over law.inner, divided by its mass, and the
    variance is the mean square of g less its mean, taken in a second
    pass, so that it does not cancel when g is far from 0."""
    K = poincare_constant(law)
    mass = law.integrate(lambda y: 1.0, *law.inner)
    gbar = law.integrate(g, *law.inner) / mass
    var = law.integrate(lambda y: (np.asarray(g(y)) - gbar) ** 2, *law.inner)
    egp2 = law.integrate(lambda y: np.asarray(g_prime(y)) ** 2, *law.inner)
    return (K * egp2 - var) / mass


def check_poincare_tensorized(law: EnvironmentLaw, n: int, g: Callable,
                              partials: Sequence[Callable], mc_samples: int,
                              seed: int = 0):
    """Monte Carlo margin K * sum_i E(d_i g^2) - Var(g) on the n-fold product.

    Returns (margin, standard_error).  The inequality tensorizes, so the
    margin should be >= -4 standard errors.
    """
    if n > 6:
        raise ValueError("tensorized check limited to n <= 6")
    if mc_samples < 1000:
        raise ValueError("need at least 1000 MC samples")
    rng = np.random.default_rng(derive_seed(seed, n, mc_samples, 0x7E45))
    u = rng.random((mc_samples, n))
    x = np.asarray(law.quantile(u), dtype=np.float64)
    K = poincare_constant(law)

    gv = np.asarray(g(x), dtype=np.float64)
    grad2 = np.zeros(mc_samples)
    for i, p in enumerate(partials):
        grad2 += np.asarray(p(x), dtype=np.float64) ** 2
    a = K * grad2

    var_g = float(np.var(gv, ddof=1))
    margin = float(np.mean(a)) - var_g
    se_a = float(np.std(a, ddof=1)) / math.sqrt(mc_samples)
    dev2 = (gv - np.mean(gv)) ** 2
    se_var = float(np.std(dev2, ddof=1)) / math.sqrt(mc_samples)
    return margin, math.hypot(se_a, se_var)
