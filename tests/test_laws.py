"""Environment laws: closed forms vs quadrature, identity batteries."""

import math

import numpy as np
import pytest

from polylab import laws
from polylab.laws import (LawValidationError, check_ibp, check_poincare,
                          check_poincare_tensorized, gauss_legendre, kappa,
                          make_table_law, make_uniform, phi, poincare_constant)

BATTERY = [
    (lambda x: np.asarray(x, dtype=float), lambda x: np.ones_like(np.asarray(x, dtype=float))),
    (lambda x: np.asarray(x) ** 2, lambda x: 2.0 * np.asarray(x)),
    (np.sin, np.cos),
    (lambda x: np.cos(3 * np.asarray(x)), lambda x: -3.0 * np.sin(3 * np.asarray(x))),
]


@pytest.fixture(scope="module")
def sym():
    return make_uniform(-1.0, 1.0)


def quad_h(law, x):
    """Independent quadrature oracle for h: int_x^b (y-m) f(y) dy / f(x)."""
    num = gauss_legendre(lambda y: (y - law.mean) * law.density(y), x, law.support_hi)
    return num / float(law.density(np.asarray(x)))


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

    def test_phi_small_at_kappa_rate(self, sym):
        assert phi(sym, 1.0 / kappa(sym, 1)) < 0.01


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

    def test_rejects_nonmonotone(self):
        with pytest.raises(LawValidationError):
            make_table_law([0.0, 0.5, 0.4, 1.0], [1, 1, 1, 1])

    def test_rejects_interior_zero_density(self):
        with pytest.raises(LawValidationError):
            make_table_law([0.0, 0.3, 0.6, 1.0], [1.0, 0.0, 1.0, 1.0])
