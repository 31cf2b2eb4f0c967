"""Environment laws: closed forms vs quadrature, identity batteries."""

import dataclasses
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from polylab import laws
from polylab.laws import (LawValidationError, check_ibp, check_poincare,
                          check_poincare_tensorized, kappa, make_table_law,
                          make_uniform, phi, poincare_constant)

BATTERY = [
    (lambda x: np.asarray(x, dtype=float), lambda x: np.ones_like(np.asarray(x, dtype=float))),
    (lambda x: np.asarray(x) ** 2, lambda x: 2.0 * np.asarray(x)),
    (np.sin, np.cos),
    (lambda x: np.cos(3 * np.asarray(x)), lambda x: -3.0 * np.sin(3 * np.asarray(x))),
]


@pytest.fixture(scope="module")
def sym():
    return make_uniform(-1.0, 1.0)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(256)


def gauss_legendre(fn, lo, hi, abs_tol=1e-10, _depth=0):
    """Adaptive composite Gauss-Legendre quadrature (256 nodes per panel),
    recursive and independent of the library's panel rule.

    Panels are bisected until the two-half refinement agrees with the whole
    panel within abs_tol.  A panel whose halves sum to NaN or an infinity is
    returned as it is, since no bisection can make it agree.  Deterministic
    for a given integrand.
    """
    mid = 0.5 * (lo + hi)

    def panel(u, v):
        c, hw = 0.5 * (u + v), 0.5 * (v - u)
        x = c + hw * _GL_NODES
        return hw * float(np.dot(_GL_WEIGHTS, np.asarray(fn(x), dtype=np.float64)))

    whole = panel(lo, hi)
    halves = panel(lo, mid) + panel(mid, hi)
    if not math.isfinite(halves) or abs(whole - halves) <= abs_tol or _depth >= 24:
        return halves
    return (gauss_legendre(fn, lo, mid, abs_tol / 2, _depth + 1)
            + gauss_legendre(fn, mid, hi, abs_tol / 2, _depth + 1))


def quad_h(law, x):
    """Independent quadrature oracle for h: int_x^b (y-m) f(y) dy / f(x)."""
    num = gauss_legendre(lambda y: (y - law.mean) * law.density(y), x, law.support_hi)
    return num / float(law.density(np.asarray(x)))


def exact_table_h(law, xs, x):
    """h of a table law in exact rational arithmetic, from the law's own
    normalized samples (its density at the nodes) and its mean: on each
    panel the density is linear, so int (y - m) f(y) dy is a cubic."""
    nodes = [Fraction(v) for v in np.asarray(xs, dtype=float)]
    fs = [Fraction(float(v)) for v in law.density(np.asarray(xs, dtype=float))]
    m, x = Fraction(law.mean), Fraction(float(x))

    def f(y, i):
        return fs[i] + (fs[i + 1] - fs[i]) * (y - nodes[i]) / (nodes[i + 1] - nodes[i])

    def moment(u, v, i):
        fu, slope, w = f(u, i), (fs[i + 1] - fs[i]) / (nodes[i + 1] - nodes[i]), v - u
        return (u - m) * fu * w + ((u - m) * slope + fu) * w ** 2 / 2 + slope * w ** 3 / 3

    i = max(j for j in range(len(nodes) - 1) if nodes[j] <= x)
    num = moment(x, nodes[i + 1], i) + sum(
        moment(nodes[j], nodes[j + 1], j) for j in range(i + 1, len(nodes) - 1))
    return float(num / f(x, i))


def exact_table_mean(law, xs):
    """The mean of a table law's piecewise-linear density in exact rational
    arithmetic, from the law's own normalized samples."""
    nodes = [Fraction(v) for v in np.asarray(xs, dtype=float)]
    fs = [Fraction(float(v)) for v in law.density(np.asarray(xs, dtype=float))]
    panels = list(zip(nodes, nodes[1:], fs, fs[1:]))
    mass = sum((v - u) * (fu + fv) / 2 for u, v, fu, fv in panels)
    first = sum((v - u) * (u * (2 * fu + fv) + v * (fu + 2 * fv)) / 6
                for u, v, fu, fv in panels)
    return first / mass


# More integrand nodes than check_poincare may evaluate on one law: with
# an absolute tolerance each of its integrals ended on panel_gauss's split
# cap within about 2.1e6 nodes, while panels that doubled every round until
# they reached an ulp would pass this within a few rounds more
NODE_BUDGET = 10_000_000

# A coarse asymmetric table and f = x on 5 nodes: a trapezoid mean over a
# dense grid missed their exact means by 1.1e-8 and 1.2e-9
COARSE = ((0.0, 0.1, 0.7, 2.0), (0.0, 3.0, 0.2, 0.0))
RAMP = (np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 5))


def parabola():
    """perfbench's table_law density: 1 - x^2 sampled at 201 nodes."""
    xs = np.linspace(-1.0, 1.0, 201)
    return xs, np.maximum(0.0, 1.0 - xs * xs)


class TestUniform:
    def test_mean_symmetric(self, sym):
        assert sym.mean == 0.0

    def test_h_at_zero(self, sym):
        assert sym.h_eval(0.0) == pytest.approx(0.5, abs=1e-12)
        assert quad_h(sym, 0.0) == pytest.approx(0.5, abs=1e-8)

    def test_h_at_0_6(self, sym):
        # (1 - 0.36) / 2
        assert sym.h_eval(0.6) == pytest.approx(0.32, abs=1e-12)
        assert quad_h(sym, 0.6) == pytest.approx(0.32, abs=1e-8)

    def test_quantile_linear(self):
        law = make_uniform(0.0, 2.0)
        assert float(law.quantile(0.25)) == pytest.approx(0.5, abs=1e-15)

    def test_closed_form_matches_quadrature_on_grid(self, sym):
        grid = sym.interior_grid(128)
        hq = np.array([quad_h(sym, float(x)) for x in grid])
        np.testing.assert_allclose(sym.h(grid), hq, atol=1e-8)

    def test_h_vanishes_at_boundary(self, sym):
        """h f -> 0 toward either endpoint: check monotone decay on a
        shrinking grid approaching the boundary."""
        eps = 10.0 ** -np.arange(1, 9)
        right = np.asarray(sym.h(1.0 - eps), dtype=float)
        left = np.asarray(sym.h(-1.0 + eps), dtype=float)
        assert np.all(np.diff(right) < 0) and right[-1] < 1e-7
        assert np.all(np.diff(left) < 0) and left[-1] < 1e-7

    def test_h_undefined_outside_support(self, sym):
        with pytest.raises(ValueError):
            sym.h_eval(1.0)
        with pytest.raises(ValueError):
            sym.h_eval(-1.5)

    def test_invalid_interval_rejected(self):
        with pytest.raises(LawValidationError):
            make_uniform(1.0, 1.0)
        with pytest.raises(LawValidationError):
            make_uniform(0.0, math.inf)

    def test_validate_passes(self, sym):
        sym.validate()

    @pytest.mark.parametrize("c", [1e2, 1e4, 1e6])
    def test_validate_passes_far_from_zero(self, c):
        """The mean is checked as the integral of y - mean: at c = 1e4 the
        guard band's lost mass, 2e-12, read as a mean off by 1.8e-8."""
        make_uniform(c - 1.0, c + 1.0).validate()

    def test_validate_refuses_a_mean_off_by_1e_7(self, sym):
        with pytest.raises(LawValidationError, match="declared mean 1e-07"):
            dataclasses.replace(sym, mean=1e-7).validate()

    def test_h_positive_on_dense_grid(self, sym):
        grid = sym.interior_grid(4096)
        assert np.all(np.asarray(sym.h(grid)) > 0)

    def test_centering_integral_zero(self, sym):
        val = gauss_legendre(lambda y: (y - sym.mean) * sym.density(y), -1.0, 1.0)
        assert abs(val) < 1e-10


class TestPoincareConstant:
    def test_uniform_symmetric(self, sym):
        assert poincare_constant(sym) == pytest.approx(0.5, abs=1e-8)

    def test_uniform_unit(self):
        # h(x) = (x - x^2)/2 maximized at 1/2 -> 1/8
        assert poincare_constant(make_uniform(0.0, 1.0)) == pytest.approx(0.125, abs=1e-8)

    def test_positive(self):
        assert poincare_constant(make_uniform(-3.0, 7.0)) > 0

    def test_ramp_table(self):
        """f = x on (0, 1): h = x (1 - x) / 3, largest at 1/2."""
        assert poincare_constant(make_table_law(*RAMP)) == pytest.approx(1.0 / 12.0, abs=1e-12)


class TestPhiKappa:
    def test_phi_at_zero(self, sym):
        assert phi(sym, 0.0) == 1.0

    def test_phi_in_unit_interval(self, sym):
        v = phi(sym, 1.0)
        assert 0.0 < v < 1.0
        # quadrature oracle for Uniform[-1,1]: int exp(-(1-x^2)/2) / 2 dx
        oracle = gauss_legendre(lambda x: 0.5 * np.exp(-(1 - x ** 2) / 2), -1, 1)
        assert v == pytest.approx(oracle, abs=1e-9)

    def test_phi_strictly_decreasing(self, sym):
        lams = [0.5, 1.0, 2.0, 4.0, 8.0]
        vals = [phi(sym, l) for l in lams]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_kappa_threshold(self, sym):
        kap = kappa(sym, 1)
        assert kap > 0
        assert math.log(phi(sym, 1.0 / kap)) <= -4 * math.log(2) - 4 + 1e-6

    def test_kappa_decreases_with_dimension(self, sym):
        assert kappa(sym, 2) <= kappa(sym, 1)

    @pytest.mark.parametrize("d", [True, 2.5, "2"])
    def test_kappa_needs_an_integer_dimension(self, sym, d):
        with pytest.raises(TypeError, match="d must be an int"):
            kappa(sym, d)

    def test_kappa_takes_numpy_integer_dimensions(self, sym):
        assert kappa(sym, np.int64(2)) == kappa(sym, 2)

    def test_phi_small_at_kappa_rate(self, sym):
        assert phi(sym, 1.0 / kappa(sym, 1)) < 0.01

    @pytest.mark.parametrize("lam", [0.5, 3.0, 30.0, 300.0])
    @pytest.mark.parametrize("law", [
        make_table_law(*parabola()), make_table_law(*COARSE), make_table_law(*RAMP),
        make_uniform(-1.0, 1.0)], ids=["parabola", "coarse", "ramp", "uniform"])
    def test_phi_matches_the_adaptive_reference(self, law, lam):
        """phi's panel rule against gauss_legendre, an adaptive 256-node
        quadrature of each piece between the kinks over law.inner."""
        lo, hi = law.inner
        edges = [lo, *(k for k in law.kinks if lo < k < hi), hi]
        ref = sum(gauss_legendre(lambda y: np.exp(-lam * law.h(y)) * law.density(y), u, v)
                  for u, v in zip(edges, edges[1:]))
        assert phi(law, lam) == pytest.approx(ref, rel=1e-10, abs=0)

    @pytest.mark.parametrize("lam", [1e4, 1e6])
    def test_phi_resolves_the_layer_at_the_support_ends(self, sym, lam):
        """For Uniform[-1, 1], phi(lam) = D(s) / s with D Dawson's function
        and s^2 = lam / 2, which is (1 + 1/lam + 3/lam^2 + ...) / lam; the
        guard band drops about its width, 2e-12, of it.  The integrand lives
        within about 1/lam of each end; at lam = 1e6 the adaptive reference
        misses that layer and reads 1.6e-14."""
        want = (1 + 1 / lam + 3 / lam ** 2) / lam - sym.guard
        assert phi(sym, lam) == pytest.approx(want, rel=1e-9, abs=0)

    def test_integrate_resolves_the_layer_at_the_support_ends(self, sym):
        """integrate takes phi's graded end pieces: the recursive reference
        reads 1.6e-14 for this integral of about 1e-6."""
        lam = 1e6
        got = sym.integrate(lambda y: np.exp(-lam * sym.h(y)), *sym.inner)
        want = (1 + 1 / lam + 3 / lam ** 2) / lam - sym.guard
        assert got == pytest.approx(want, rel=1e-9, abs=0)


class TestIdentities:
    def test_ibp_linear_exact(self, sym):
        # both sides equal Var(X) = 1/3
        res = check_ibp(sym, lambda x: np.asarray(x, dtype=float),
                        lambda x: np.ones_like(np.asarray(x, dtype=float)))
        assert res <= 1e-10

    def test_ibp_constant(self, sym):
        res = check_ibp(sym, lambda x: np.full_like(np.asarray(x, dtype=float), 2.0),
                        lambda x: np.zeros_like(np.asarray(x, dtype=float)))
        assert res <= 1e-12

    def test_ibp_battery(self, sym):
        for g, gp in BATTERY:
            assert check_ibp(sym, g, gp) <= 1e-6

    def test_poincare_linear_margin(self, sym):
        # 0.5 * 1 - 1/3 = 1/6
        m = check_poincare(sym, lambda x: np.asarray(x, dtype=float),
                           lambda x: np.ones_like(np.asarray(x, dtype=float)))
        assert m == pytest.approx(1.0 / 6.0, abs=1e-9)

    def test_poincare_constant_function(self, sym):
        m = check_poincare(sym, lambda x: np.full_like(np.asarray(x, dtype=float), 1.0),
                           lambda x: np.zeros_like(np.asarray(x, dtype=float)))
        assert abs(m) <= 1e-12

    def test_poincare_battery_nonnegative(self, sym):
        for g, gp in BATTERY:
            assert check_poincare(sym, g, gp) >= -1e-9

    @pytest.mark.parametrize("c", [1e2, 1e4, 1e6])
    def test_poincare_linear_margin_far_from_zero(self, c):
        """The variance is taken about the mean in a second pass: E g^2 -
        (E g)^2 read 0.16650 at c = 1e6 and was off by 9.9e-9 at c = 1e4."""
        m = check_poincare(make_uniform(c - 1.0, c + 1.0), lambda x: np.asarray(x, dtype=float),
                           lambda x: np.ones_like(np.asarray(x, dtype=float)))
        assert m == pytest.approx(1.0 / 6.0, abs=1e-9)

    @staticmethod
    def far_poincare_nodes(budget):
        """check_poincare for g = x^2 on the 201-node table shifted to
        [9999, 10001]: the margin and the g and g' nodes it evaluated, or
        RuntimeError past budget nodes."""
        xs, fs = parabola()
        law = make_table_law(xs + 1e4, fs)
        nodes = []

        def count(fn):
            def wrapped(x):
                nodes.append(np.size(x))
                if sum(nodes) > budget:
                    raise RuntimeError(f"{sum(nodes)} nodes evaluated")
                return fn(x)
            return wrapped

        margin = check_poincare(law, count(lambda x: np.asarray(x) ** 2),
                                count(lambda x: 2.0 * np.asarray(x)))
        return margin, sum(nodes)

    def test_poincare_work_is_bounded_far_from_zero(self):
        """The integrands are near 1e8, whose rounding no absolute
        tolerance can beat; panel_gauss's split cap bounds the work
        whatever the tolerance.  Under a depth cap of 24 bisections alone,
        one round could hold 2^24 times the first panels."""
        margin, _ = self.far_poincare_nodes(NODE_BUDGET)
        assert margin > 0

    def test_poincare_tolerance_is_relative_far_from_zero(self):
        """A tolerance relative to the integral of |fn| ends this case in
        45 248 nodes; an absolute 1e-10 ran every integral to the split
        cap, 5.9e6 nodes in all."""
        margin, nodes = self.far_poincare_nodes(200_000)
        assert margin > 0 and nodes <= 200_000


class TestTensorized:
    def test_sum_of_coordinates(self, sym):
        margin, se = check_poincare_tensorized(
            sym, 3, lambda x: x.sum(axis=-1),
            [lambda x: np.ones(x.shape[0])] * 3, mc_samples=20_000, seed=1)
        assert margin == pytest.approx(0.5, abs=4 * se)

    def test_constant(self, sym):
        margin, se = check_poincare_tensorized(
            sym, 2, lambda x: np.full(x.shape[0], 3.0),
            [lambda x: np.zeros(x.shape[0])] * 2, mc_samples=2_000, seed=2)
        assert abs(margin) <= 4 * se + 1e-12

    def test_product_function(self, sym):
        margin, se = check_poincare_tensorized(
            sym, 2, lambda x: x[:, 0] * x[:, 1],
            [lambda x: x[:, 1], lambda x: x[:, 0]], mc_samples=20_000, seed=3)
        assert margin >= -4 * se

    def test_sample_count_guard(self, sym):
        with pytest.raises(ValueError):
            check_poincare_tensorized(sym, 2, lambda x: x.sum(axis=-1),
                                      [lambda x: np.ones(x.shape[0])] * 2,
                                      mc_samples=10)


class TestTableLaw:
    def test_matches_uniform(self):
        xs = np.linspace(-1, 1, 201)
        law = make_table_law(xs, np.ones_like(xs))
        law.validate()
        assert law.mean == pytest.approx(0.0, abs=1e-9)
        assert law.h_eval(0.0) == pytest.approx(0.5, abs=1e-4)
        assert float(law.quantile(0.5)) == pytest.approx(0.0, abs=1e-9)

    def test_quantile_agrees_with_cdf_bisection(self):
        xs = np.linspace(-1.0, 1.0, 201)
        law = make_table_law(xs, np.maximum(0.0, 1.0 - xs * xs))
        grid = np.linspace(law.support_lo, law.support_hi, 16385)
        pdf = law.density(grid)
        cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(grid))))
        cdf /= cdf[-1]
        tol = 1e-12 * law.width

        def bisect(u):
            a, b = law.support_lo, law.support_hi
            while b - a > tol:
                mid = 0.5 * (a + b)
                if np.interp(mid, grid, cdf) < u:
                    a = mid
                else:
                    b = mid
            return 0.5 * (a + b)

        u = np.random.default_rng(5).random(2000)
        got = law.quantile(u)
        assert got.shape == u.shape
        assert max(abs(g - bisect(v)) for g, v in zip(got, u)) <= tol

    @pytest.mark.parametrize("xs,fs", [
        ([0.0, 0.3, 0.45, 1.2], [0.0, 2.0, 1.0, 0.5]),
        ([-1.0, -0.2, 0.1, 0.5, 0.7, 2.0], [1.0, 3.0, 2.0, 2.5, 0.1, 0.0]),
        ([-2.0, -1.0, 0.3, 0.31, 0.9, 1.5, 3.0], [0.0, 1.0, 5.0, 4.0, 1.0, 1.0, 0.2]),
        parabola(),
    ])
    def test_closed_form_is_exact(self, xs, fs):
        law = make_table_law(xs, fs)
        probe = law.interior_grid(64)
        exact = [exact_table_h(law, xs, x) for x in probe]
        np.testing.assert_allclose(law.h(probe), exact, rtol=0, atol=1e-14)
        assert law.kinks == tuple(xs[1:-1])

    def test_quadrature_reference_exact_on_parabola(self):
        """_h_quad splits at the nodes, so no quadrature panel straddles a
        kink of the density."""
        xs, fs = parabola()
        law = make_table_law(xs, fs)
        probe = law.interior_grid(64)
        exact = [exact_table_h(law, xs, x) for x in probe]
        np.testing.assert_allclose([law._h_quad(float(x)) for x in probe], exact,
                                   rtol=0, atol=1e-12)

    def test_flat_table_is_uniform(self):
        xs = np.linspace(-1.0, 1.0, 201)
        law, uni = make_table_law(xs, np.ones_like(xs)), make_uniform(-1.0, 1.0)
        grid = law.interior_grid(512)
        np.testing.assert_allclose(law.h(grid), uni.h(grid), rtol=0, atol=1e-12)

    def test_validate_rejects_scaled_h(self):
        law = make_table_law(*parabola())
        bad = dataclasses.replace(law, h_closed_form=lambda x: 1.01 * law.h_closed_form(x))
        with pytest.raises(LawValidationError, match="disagrees with quadrature"):
            bad.validate()

    def test_pickled_h_is_bit_identical(self):
        law = make_table_law(*parabola())
        copy = pickle.loads(pickle.dumps(law))
        grid = law.interior_grid(512)
        np.testing.assert_array_equal(copy.h(grid), law.h(grid))
        assert copy.kinks == law.kinks

    @pytest.mark.parametrize("xs,fs", [COARSE, RAMP], ids=["coarse", "ramp"])
    def test_mean_is_exact_for_the_interpolant(self, xs, fs):
        """The mean is the sum of the same exact panel moments as h's tails,
        so validate() finds the density's mean and the declared one equal."""
        law = make_table_law(xs, fs)
        law.validate()
        assert law.mean == pytest.approx(float(exact_table_mean(law, xs)), rel=0, abs=1e-15)

    def test_symmetric_table_mean_is_zero(self):
        assert make_table_law(*parabola()).mean == 0.0

    def test_h_positive_next_to_the_support_edge(self):
        """With f = x, h(x) = x (1 - x) / 3 on (0, 1).  A mean off by 1e-9
        gave h(1e-7) = -6.2e-3 and h(1e-5) = -5.9e-5."""
        law = make_table_law(*RAMP)
        hv = law.h(np.array([1e-7, 1e-5, 1e-3]))
        assert np.all(hv > 0)
        assert hv[2] == pytest.approx(1e-3 * (1 - 1e-3) / 3, rel=1e-9)

    def test_h_keeps_its_digits_next_to_the_lower_edge(self):
        """Below the mean h is minus the integral over (a, x): the tail
        over (x, b), a difference of two integrals of order 1, gave
        h(1e-7) = 3.3445e-8 for the exact 3.3333e-8."""
        law = make_table_law(*RAMP)
        x = np.array([1e-7, 1e-5, 1e-3])
        np.testing.assert_allclose(law.h(x), x * (1 - x) / 3, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("step", [1e-2, 1e-3, 1e-4])
    @pytest.mark.parametrize("mu", [2.0, 4.0])
    def test_validate_accepts_thin_tailed_log_gamma_tables(self, mu, step):
        """6001 knots of the log-gamma density exp(-mu w - e^-w) / Gamma(mu),
        cut at the first and last point of a grid of the given step where
        the density is at least 1e-12.  Its left tail falls
        double-exponentially, so the density at the lowest probe is a few
        1e-9.  Taken from the far end, the quadrature reference for h
        there is a near-cancellation of order-1 integrals: it missed by
        1.4e-8 to 3.2e-7, above validate's 1e-8, and whether a law passed
        hung on where its table ended.  From the nearer end it agrees to
        1.5e-10 at every cut."""
        w = np.arange(-10.0, 60.0, step)
        keep = np.flatnonzero(np.exp(-mu * w - np.exp(-w) - math.lgamma(mu)) >= 1e-12)
        xs = np.linspace(w[keep[0]], w[keep[-1]], 6001)
        law = make_table_law(xs, np.exp(-mu * xs - np.exp(-xs) - math.lgamma(mu)))
        law.validate()
        probe = law.interior_grid(64)
        assert law.density(probe[0]) < 1e-8
        quad = np.array([law._h_quad(float(x)) for x in probe])
        assert np.max(np.abs(law.h(probe) - quad)) < 1e-9

    def test_rejects_nonmonotone(self):
        with pytest.raises(LawValidationError):
            make_table_law([0.0, 0.5, 0.4, 1.0], [1, 1, 1, 1])

    def test_rejects_interior_zero_density(self):
        with pytest.raises(LawValidationError):
            make_table_law([0.0, 0.3, 0.6, 1.0], [1.0, 0.0, 1.0, 1.0])

    @pytest.mark.parametrize("xs,fs", [
        ([-1, -.5, 0, .5, 1], [0, 1, float("nan"), 1, 0]),
        ([-1, -.5, 0, .5, float("inf")], [0, 1, 1, 1, 0]),
    ])
    def test_rejects_nonfinite_samples(self, xs, fs):
        """A nan density sample once gave a law with mean nan, on which
        quadrature never converged."""
        with pytest.raises(LawValidationError, match="finite"):
            make_table_law(xs, fs)


class TestNaN:
    """NaN fails every test of quadrature and validate(): a NaN integrand
    stops at once instead of bisecting its panels."""

    def test_nan_integrand_stops_after_one_round(self, sym):
        calls = []

        def fn(x):
            calls.append(x.size)
            return np.full_like(x, np.nan)

        assert math.isnan(sym.integrate(fn, 0.0, 1.0))
        assert len(calls) == 2

    def test_validate_rejects_nan_density(self, sym):
        bad = dataclasses.replace(
            sym, density=lambda y: np.where(np.asarray(y) > 0.5, np.nan, sym.density(y)))
        with pytest.raises(LawValidationError, match="integrates to nan"):
            bad.validate()

    def test_validate_rejects_nan_mean(self, sym):
        with pytest.raises(LawValidationError, match="declared mean nan"):
            dataclasses.replace(sym, mean=math.nan).validate()

    def test_validate_rejects_h_that_is_nan_at_the_probe(self, sym):
        probe = sym.interior_grid(64)
        bad = dataclasses.replace(
            sym, h_closed_form=lambda x: np.where(np.isin(x, probe), np.nan,
                                                  sym.h_closed_form(x)))
        with pytest.raises(LawValidationError, match="disagrees with quadrature"):
            bad.validate()

    def test_phi_rejects_nan_rate(self, sym):
        with pytest.raises(ValueError, match="nonnegative"):
            phi(sym, math.nan)
