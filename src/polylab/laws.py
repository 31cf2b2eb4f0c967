"""Bounded-support environment laws and their analytic machinery.

A law is given by a density f on a bounded open interval (a, b).  From it we
derive the weight function

    h(x) = integral_x^b (y - m) f(y) dy / f(x),

its supremum K (the Poincare constant of the law), the Laplace-type
transform phi(lambda) of h, and the threshold scale kappa used in the
lower-tail argument.  Self-checks verify the integration-by-parts identity
and the Poincare inequality on concrete test functions.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .rng import derive_seed

# Guard band keeping evaluations strictly inside the open support, as a
# fraction of (b - a).  f may vanish at the endpoints, making h a 0/0 form.
EDGE_GUARD = 1e-12

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(256)


def gauss_legendre(fn: Callable, lo: float, hi: float, abs_tol: float = 1e-10,
                   _depth: int = 0) -> float:
    """Adaptive composite Gauss-Legendre quadrature (256 nodes per panel).

    Panels are bisected until the two-half refinement agrees with the whole
    panel within abs_tol.  Deterministic for a given integrand.
    """
    mid = 0.5 * (lo + hi)

    def panel(u, v):
        c, hw = 0.5 * (u + v), 0.5 * (v - u)
        x = c + hw * _GL_NODES
        return hw * float(np.dot(_GL_WEIGHTS, np.asarray(fn(x), dtype=np.float64)))

    whole = panel(lo, hi)
    halves = panel(lo, mid) + panel(mid, hi)
    if abs(whole - halves) <= abs_tol or _depth >= 24:
        return halves
    return (gauss_legendre(fn, lo, mid, abs_tol / 2, _depth + 1)
            + gauss_legendre(fn, mid, hi, abs_tol / 2, _depth + 1))


class LawValidationError(ValueError):
    """A proposed environment law violates the required conditions."""


@dataclass(frozen=True)
class EnvironmentLaw:
    """A bounded-support probability law for the disorder variables.

    density must accept numpy arrays.  h_closed_form, when present, is used
    instead of quadrature and must match the quadrature value (checked in
    validate()).  quantile maps [0, 1) into the open support.
    """

    support_lo: float
    support_hi: float
    density: Callable[[np.ndarray], np.ndarray]
    mean: float
    quantile: Callable[[np.ndarray], np.ndarray]
    h_closed_form: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = "law"

    @property
    def width(self) -> float:
        return self.support_hi - self.support_lo

    @property
    def guard(self) -> float:
        return EDGE_GUARD * self.width

    def _check_inside(self, x: float) -> None:
        if not (self.support_lo < x < self.support_hi):
            raise ValueError(
                f"x={x} outside the open support "
                f"({self.support_lo}, {self.support_hi}); h is undefined there")

    def h(self, x):
        """The weight function h; closed form when available, else quadrature."""
        if self.h_closed_form is not None:
            return self.h_closed_form(np.asarray(x, dtype=np.float64))
        return np.vectorize(self._h_quad, otypes=[np.float64])(x)

    def h_eval(self, x: float) -> float:
        """h at a single point strictly inside the support."""
        self._check_inside(x)
        return float(self.h(x))

    def _h_quad(self, x: float) -> float:
        self._check_inside(x)
        m = self.mean
        num = gauss_legendre(lambda y: (y - m) * self.density(y),
                             x, self.support_hi - self.guard)
        return num / float(self.density(np.asarray(x)))

    def interior_grid(self, count: int = 4096) -> np.ndarray:
        pad = max(self.guard, self.width / (count + 1))
        return np.linspace(self.support_lo + pad, self.support_hi - pad, count)

    def validate(self) -> None:
        """Raise LawValidationError if the law fails its structural checks."""
        a, b = self.support_lo, self.support_hi
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise LawValidationError(f"invalid support ({a}, {b})")
        total = gauss_legendre(lambda y: self.density(y), a + self.guard, b - self.guard)
        if abs(total - 1.0) > 1e-8:
            raise LawValidationError(f"density integrates to {total}, not 1")
        m = gauss_legendre(lambda y: y * self.density(y), a + self.guard, b - self.guard)
        if abs(m - self.mean) > 1e-8:
            raise LawValidationError(f"density mean {m} != declared mean {self.mean}")
        grid = self.interior_grid(512)
        hv = self.h(grid)
        if np.any(hv <= 0):
            raise LawValidationError("h is not strictly positive on the interior grid")
        # |h'| must stay bounded; estimate on the grid by finite differences.
        dh = np.diff(hv) / np.diff(grid)
        if not np.all(np.isfinite(dh)):
            raise LawValidationError("h' is not finite on the interior grid")
        if self.h_closed_form is not None:
            probe = self.interior_grid(64)
            hq = np.array([self._h_quad(float(x)) for x in probe])
            if np.max(np.abs(self.h(probe) - hq)) > 1e-8:
                raise LawValidationError("closed-form h disagrees with quadrature")


def make_uniform(lo: float, hi: float) -> EnvironmentLaw:
    """Uniform law on (lo, hi).

    h has the closed form ((hi - m)^2 - (x - m)^2) / 2 with m the midpoint,
    which for Uniform[-1, 1] reduces to (1 - x^2) / 2.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise LawValidationError(f"invalid interval ({lo}, {hi})")
    m = 0.5 * (lo + hi)
    inv_w = 1.0 / (hi - lo)

    def density(y):
        y = np.asarray(y, dtype=np.float64)
        return np.where((y > lo) & (y < hi), inv_w, 0.0)

    def h_closed(x):
        return 0.5 * ((hi - m) ** 2 - (np.asarray(x, dtype=np.float64) - m) ** 2)

    def quantile(u):
        return lo + (hi - lo) * np.asarray(u, dtype=np.float64)

    return EnvironmentLaw(support_lo=lo, support_hi=hi, density=density,
                          mean=m, quantile=quantile, h_closed_form=h_closed,
                          name=f"uniform({lo},{hi})")


def make_table_law(xs: Sequence[float], fs: Sequence[float]) -> EnvironmentLaw:
    """Law from tabulated density samples (strictly increasing x covering (a,b)).

    The density is linearly interpolated and renormalized; the quantile is
    the exact inverse of the piecewise-linear interpolant of the numeric CDF.
    """
    xs = np.asarray(xs, dtype=np.float64)
    fs = np.asarray(fs, dtype=np.float64)
    if xs.ndim != 1 or xs.size < 4 or np.any(np.diff(xs) <= 0):
        raise LawValidationError("table law needs >= 4 strictly increasing x samples")
    if np.any(fs < 0) or np.any(fs[1:-1] <= 0):
        raise LawValidationError("table density must be positive strictly inside (a, b)")
    total = np.trapezoid(fs, xs)
    fs = fs / total
    lo, hi = float(xs[0]), float(xs[-1])

    def density(y):
        y = np.asarray(y, dtype=np.float64)
        return np.where((y >= lo) & (y <= hi), np.interp(y, xs, fs), 0.0)

    # Dense CDF; strictly increasing, since fs > 0 inside (a, b).
    grid = np.linspace(lo, hi, 16385)
    pdf = np.interp(grid, xs, fs)
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(grid))))
    cdf /= cdf[-1]
    mean = float(np.trapezoid(grid * pdf, grid) / np.trapezoid(pdf, grid))

    def quantile(u):
        return np.interp(u, cdf, grid)

    return EnvironmentLaw(support_lo=lo, support_hi=hi, density=density,
                          mean=mean, quantile=quantile, name="table")


def load_table_law(path: str) -> EnvironmentLaw:
    """Read a CSV with x,f columns into a table law."""
    xs, fs = [], []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().lower() == "x":
                continue
            xs.append(float(row[0]))
            fs.append(float(row[1]))
    return make_table_law(xs, fs)


def h_eval(law: EnvironmentLaw, x: float) -> float:
    """h(x) for x strictly inside the support."""
    return law.h_eval(x)


def poincare_constant(law: EnvironmentLaw, grid_points: int = 4096) -> float:
    """K = sup of h over the support.

    Grid supremum tightened by golden-section refinement around the grid
    maximizer to within 1e-8 in the argument.
    """
    grid = law.interior_grid(grid_points)
    hv = np.asarray(law.h(grid), dtype=np.float64)
    i = int(np.argmax(hv))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]

    invphi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = float(law.h(c)), float(law.h(d))
    while b - a > 1e-8:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = float(law.h(c))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = float(law.h(d))
    return max(float(np.max(hv)), fc, fd)


def phi(law: EnvironmentLaw, lam: float) -> float:
    """phi(lambda) = E exp(-lambda h(X)); equals 1 at lambda 0, decreasing."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if lam == 0:
        return 1.0

    def integrand(y):
        return np.exp(-lam * np.asarray(law.h(y), dtype=np.float64)) * law.density(y)

    g = law.guard
    return gauss_legendre(integrand, law.support_lo + g, law.support_hi - g)


def kappa(law: EnvironmentLaw, d: int) -> float:
    """1 / lambda* where lambda* is the smallest rate at which
    log phi(lambda) drops below -2 log 2 - 2 log(2d) - 4.
    """
    if d < 1:
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
    """
    # Gauss-Legendre nodes are strictly interior, so no guard band is needed
    lo, hi = law.support_lo, law.support_hi
    lhs = gauss_legendre(lambda y: (y - law.mean) * np.asarray(g(y)) * law.density(y), lo, hi)
    rhs = gauss_legendre(
        lambda y: np.asarray(law.h(y)) * np.asarray(g_prime(y)) * law.density(y), lo, hi)
    return abs(lhs - rhs)


def check_poincare(law: EnvironmentLaw, g: Callable, g_prime: Callable) -> float:
    """Margin K * E(g'(X)^2) - Var(g(X)); nonnegative up to quadrature error."""
    lo, hi = law.support_lo, law.support_hi
    K = poincare_constant(law)
    eg = gauss_legendre(lambda y: np.asarray(g(y)) * law.density(y), lo, hi)
    eg2 = gauss_legendre(lambda y: np.asarray(g(y)) ** 2 * law.density(y), lo, hi)
    egp2 = gauss_legendre(lambda y: np.asarray(g_prime(y)) ** 2 * law.density(y), lo, hi)
    return K * egp2 - (eg2 - eg * eg)


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
