"""Engine: lazy environment, forward-backward vs brute force, sampling,
zero-layer measures, and the theta sensitivity identity."""

import math

import numpy as np
import pytest

from polylab import engine
from polylab.engine import (EnvOverrides, NumericalError, PolymerInstance,
                            brute_force, dump_solution, env_layer, env_value,
                            forward_backward, sample_path, sample_paths,
                            theta_derivative_check, zero_layer_solution)
from polylab.functionals import ell, rho
from polylab.lattice import validate_path
from polylab.laws import make_uniform
from polylab.rng import derive_seed, replication_seed

LAW = make_uniform(-1.0, 1.0)


def srw_marginal(k):
    """Exact simple-random-walk marginal at step k over x = -k..k (d=1).

    Integer binomials divided by 2^k: correctly rounded doubles.
    """
    out = np.zeros(2 * k + 1)
    for j in range(k + 1):
        out[2 * j] = math.comb(k, j) / 2 ** k
    return out


class TestEnvValue:
    def test_deterministic(self):
        inst = PolymerInstance(d=2, n=10, beta=1.0, law=LAW, seed=77)
        v1 = env_value(inst, 4, (1, 1))
        v2 = env_value(inst, 4, (1, 1))
        assert v1 == v2

    def test_in_support(self):
        inst = PolymerInstance(d=1, n=50, beta=1.0, law=LAW, seed=3)
        vals = [env_value(inst, k, (x,)) for k in range(1, 51)
                for x in range(-k, k + 1, 2)]
        assert all(-1 < v < 1 for v in vals)

    def test_unreachable_site_rejected(self):
        inst = PolymerInstance(d=1, n=10, beta=1.0, law=LAW, seed=3)
        with pytest.raises(ValueError):
            env_value(inst, 2, (1,))      # wrong parity
        with pytest.raises(ValueError):
            env_value(inst, 2, (4,))      # outside cone

    def test_layer_matches_pointwise(self):
        inst = PolymerInstance(d=2, n=6, beta=1.0, law=LAW, seed=5)
        om = env_layer(inst, 3)
        for site in [(1, 0), (-1, 2), (3, 0), (1, -2)]:
            idx = tuple(c + 3 for c in site)
            assert om[idx] == env_value(inst, 3, site)

    def test_empirical_mean_clt_band(self):
        """10^6 distinct keys of Uniform[-1,1]: mean within the 4-sigma band."""
        inst = PolymerInstance(d=1, n=1, beta=0.0, law=LAW, seed=123456)
        coords = np.arange(1_000_000).reshape(-1, 1)
        from polylab.rng import counter_uniform
        u = counter_uniform(inst.seed, 1, coords)
        vals = np.asarray(LAW.quantile(u))
        se = (1.0 / math.sqrt(3.0)) / 1000.0
        assert abs(vals.mean()) < 4 * se

    def test_centered_shifts_by_mean(self):
        law = make_uniform(0.0, 2.0)
        raw = PolymerInstance(d=1, n=4, beta=1.0, law=law, seed=9)
        cen = PolymerInstance(d=1, n=4, beta=1.0, law=law, seed=9, centered=True)
        assert env_value(cen, 2, (0,)) == pytest.approx(
            env_value(raw, 2, (0,)) - 1.0, abs=1e-15)

    def test_overrides(self):
        inst = PolymerInstance(d=1, n=5, beta=1.0, law=LAW, seed=9)
        ov = EnvOverrides(site_values={(3, (1,)): 0.25}, zero_layers=frozenset({2}))
        assert env_value(inst, 3, (1,), ov) == 0.25
        assert env_value(inst, 2, (0,), ov) == 0.0
        assert env_value(inst, 4, (0,), ov) == env_value(inst, 4, (0,))


class TestForwardBackward:
    def test_n1_two_point_formula(self):
        inst = PolymerInstance(d=1, n=1, beta=2.0, law=LAW, seed=31)
        sol = forward_backward(inst)
        wm = env_value(inst, 1, (-1,))
        wp = env_value(inst, 1, (1,))
        z = math.exp(2.0 * wm) + math.exp(2.0 * wp)
        assert sol.theta_value(1, (1,)) == pytest.approx(math.exp(2.0 * wp) / z, rel=1e-14)
        assert sol.log_partition == pytest.approx(math.log(z), rel=1e-14)

    def test_beta0_is_simple_random_walk(self):
        inst = PolymerInstance(d=1, n=40, beta=0.0, law=LAW, seed=1)
        sol = forward_backward(inst, keep_forward=False)
        for k in range(1, 41):
            np.testing.assert_allclose(sol.theta_array(k), srw_marginal(k), atol=1e-12)

    def test_layer_sums_to_one(self):
        inst = PolymerInstance(d=1, n=200, beta=5.0, law=LAW, seed=8)
        sol = forward_backward(inst, keep_forward=False)
        for t in sol.theta_layers:
            assert abs(float(t.sum()) - 1.0) <= 1e-10

    def test_theta_in_unit_interval(self):
        inst = PolymerInstance(d=2, n=20, beta=3.0, law=LAW, seed=8)
        sol = forward_backward(inst, keep_forward=False)
        for t in sol.theta_layers:
            assert np.all(t >= 0) and np.all(t <= 1)

    @pytest.mark.parametrize("d,n,beta", [(1, 6, 0.0), (1, 10, 1.0), (1, 12, 3.0),
                                          (2, 6, 1.0), (2, 7, 3.0)])
    def test_matches_brute_force(self, d, n, beta):
        inst = PolymerInstance(d=d, n=n, beta=beta, law=LAW,
                               seed=replication_seed(55, n))
        sol = forward_backward(inst)
        bf_sol, bf_rho, bf_ell = brute_force(inst)
        for k in range(1, n + 1):
            np.testing.assert_allclose(sol.theta_array(k), bf_sol.theta_array(k),
                                       atol=1e-10)
        assert sol.log_partition == pytest.approx(bf_sol.log_partition, abs=1e-10)
        assert rho(sol) == pytest.approx(bf_rho, abs=1e-10)
        assert ell(sol)[0] == pytest.approx(bf_ell, abs=1e-10)

    def test_deterministic_bitwise(self):
        inst = PolymerInstance(d=1, n=50, beta=3.0, law=LAW, seed=4242)
        a = forward_backward(inst, keep_forward=False)
        b = forward_backward(inst, keep_forward=False)
        assert a.log_partition == b.log_partition
        for ta, tb in zip(a.theta_layers, b.theta_layers):
            np.testing.assert_array_equal(ta, tb)

    def test_large_beta_no_overflow(self):
        # raw weights would reach exp(10 * 1 * 400), far beyond float range
        inst = PolymerInstance(d=1, n=400, beta=10.0, law=LAW, seed=2)
        sol = forward_backward(inst, keep_forward=False)
        assert np.isfinite(sol.log_partition)


    @pytest.mark.parametrize("keep_theta", [True, False])
    @pytest.mark.parametrize("k,site,value", [
        (1, (1,), math.inf),         # layer 1 is drawn by the forward sweep only
        (5, (-3,), math.inf),        # reachable
        (4, (1,), math.nan),         # unreachable: zero mass times nan
        (8, (3,), math.nan),
    ])
    def test_non_finite_environment_raises(self, keep_theta, k, site, value):
        inst = PolymerInstance(d=1, n=8, beta=1.0, law=LAW, seed=6)
        ov = EnvOverrides(site_values={(k, site): value})
        with pytest.raises(NumericalError):
            forward_backward(inst, ov, keep_forward=False, keep_theta=keep_theta)

    def test_box_coordinates_cached_read_only(self):
        small = engine._coords(2, 3)
        assert small is engine._coords(2, 3) and not small.flags.writeable
        assert small.shape == (7, 7, 2) and small[0, 6].tolist() == [-3, 3]
        big = engine._coords(1, engine._CACHED_BOX_SITES)
        assert big is not engine._coords(1, engine._CACHED_BOX_SITES)
        np.testing.assert_array_equal(big, engine._coords(1, engine._CACHED_BOX_SITES))


class TestBruteForce:
    def test_size_guard(self):
        inst = PolymerInstance(d=2, n=30, beta=1.0, law=LAW, seed=1)
        with pytest.raises(ValueError):
            brute_force(inst)

    def test_n1_closed_form(self):
        inst = PolymerInstance(d=1, n=1, beta=1.5, law=LAW, seed=12)
        sol, r, l = brute_force(inst)
        tm, tp = sol.theta_value(1, (-1,)), sol.theta_value(1, (1,))
        assert r == pytest.approx(tm ** 2 + tp ** 2, abs=1e-15)
        assert l == pytest.approx(max(tm, tp), abs=1e-15)

    def test_beta0_n2_hand_enumeration(self):
        """Four equally likely paths: theta1=(1/2,1/2), theta2=(1/4,1/2,1/4),
        so rho = (1/2 + 3/8)/2 = 7/16 and ell = 1/2."""
        inst = PolymerInstance(d=1, n=2, beta=0.0, law=LAW, seed=0)
        sol, r, l = brute_force(inst)
        assert r == pytest.approx(7.0 / 16.0, abs=1e-15)
        assert l == pytest.approx(0.5, abs=1e-15)
        np.testing.assert_allclose(sol.theta_array(1), [0.5, 0.0, 0.5], atol=1e-15)
        np.testing.assert_allclose(sol.theta_array(2), [0.25, 0, 0.5, 0, 0.25],
                                   atol=1e-15)


class TestSampler:
    @pytest.fixture(scope="class")
    @staticmethod
    def solved():
        inst = PolymerInstance(d=1, n=30, beta=3.0, law=LAW, seed=11)
        return inst, forward_backward(inst)

    def test_paths_valid(self, solved):
        inst, sol = solved
        rng = np.random.default_rng(derive_seed(11, 0))
        paths = sample_paths(sol, inst, 200, rng)
        for p in paths:
            validate_path(p, 1)

    def test_single_path_shape(self, solved):
        inst, sol = solved
        p = sample_path(sol, inst, np.random.default_rng(1))
        assert p.shape == (30, 1)

    def test_visit_frequencies_match_theta(self, solved):
        inst, sol = solved
        rng = np.random.default_rng(derive_seed(11, 1))
        m = 20_000
        paths = sample_paths(sol, inst, m, rng)
        k = 15
        t = sol.theta_array(k)
        freq = np.bincount(paths[:, k - 1, 0] + k, minlength=2 * k + 1) / m
        live = t > 1e-4
        se = np.sqrt(t[live] * (1 - t[live]) / m)
        z = np.abs(freq[live] - t[live]) / se
        # allow a single 4-sigma excursion across the tested sites
        assert np.sum(z > 4.0) <= 1

    def test_d2_sampler(self):
        inst = PolymerInstance(d=2, n=10, beta=2.0, law=LAW, seed=21)
        sol = forward_backward(inst)
        rng = np.random.default_rng(3)
        paths = sample_paths(sol, inst, 100, rng)
        for p in paths:
            validate_path(p, 2)

    def test_requires_forward_layers(self, solved):
        inst, _ = solved
        sol2 = forward_backward(inst, keep_forward=False)
        with pytest.raises(ValueError):
            sample_paths(sol2, inst, 1, np.random.default_rng(0))


class TestZeroLayer:
    def test_sandwich(self):
        inst = PolymerInstance(d=1, n=40, beta=2.0, law=LAW, seed=1001)
        sol = forward_backward(inst, keep_forward=False)
        bound = math.exp(inst.beta * LAW.width)
        for k in (1, 7, 20, 33, 40):
            zeta = zero_layer_solution(inst, k).theta_array(k)
            theta = sol.theta_array(k)
            live = theta > 0
            ratio = zeta[live] / theta[live]
            assert np.all(ratio >= 1.0 / bound * (1 - 1e-9))
            assert np.all(ratio <= bound * (1 + 1e-9))

    def test_beta0_identity(self):
        inst = PolymerInstance(d=1, n=20, beta=0.0, law=LAW, seed=5)
        sol = forward_backward(inst, keep_forward=False)
        zsol = zero_layer_solution(inst, 10)
        np.testing.assert_array_equal(sol.theta_array(10), zsol.theta_array(10))

    def test_zeta_sums_to_one(self):
        inst = PolymerInstance(d=2, n=12, beta=3.0, law=LAW, seed=5)
        z = zero_layer_solution(inst, 6).theta_array(6)
        assert abs(float(z.sum()) - 1.0) <= 1e-10

    def test_k_out_of_range(self):
        inst = PolymerInstance(d=1, n=5, beta=1.0, law=LAW, seed=5)
        with pytest.raises(ValueError):
            zero_layer_solution(inst, 6)


class TestDerivativeIdentity:
    def test_beta0_zero_derivative(self):
        inst = PolymerInstance(d=1, n=10, beta=0.0, law=LAW, seed=2)
        sol = forward_backward(inst)
        analytic, numeric = theta_derivative_check(inst, sol, 5, (1,))
        assert analytic == 0.0
        assert abs(numeric) <= 1e-9

    def test_n1_softmax_derivative(self):
        inst = PolymerInstance(d=1, n=1, beta=2.0, law=LAW, seed=17)
        sol = forward_backward(inst)
        analytic, numeric = theta_derivative_check(inst, sol, 1, (1,))
        t = sol.theta_value(1, (1,))
        assert analytic == pytest.approx(2.0 * t * (1 - t), abs=1e-15)
        assert abs(analytic - numeric) <= 1e-5 * max(1.0, analytic)

    def test_random_sites(self):
        inst = PolymerInstance(d=1, n=40, beta=3.0, law=LAW, seed=606)
        sol = forward_backward(inst)
        rng = np.random.default_rng(derive_seed(606, 1))
        for _ in range(20):
            k = int(rng.integers(1, 41))
            xs = [x for x in range(-k, k + 1) if (x - k) % 2 == 0]
            x = (int(xs[rng.integers(len(xs))]),)
            analytic, numeric = theta_derivative_check(inst, sol, k, x)
            assert abs(analytic - numeric) <= 1e-5 * max(1.0, analytic)

    def test_fd_step_bounds(self):
        inst = PolymerInstance(d=1, n=4, beta=1.0, law=LAW, seed=2)
        sol = forward_backward(inst)
        with pytest.raises(ValueError):
            theta_derivative_check(inst, sol, 2, (0,), fd_step=1e-3)


def test_dump_solution(tmp_path):
    inst = PolymerInstance(d=1, n=4, beta=1.0, law=LAW, seed=99)
    sol = forward_backward(inst, keep_forward=False)
    csv_path = tmp_path / "theta.csv"
    json_path = tmp_path / "theta.json"
    dump_solution(sol, str(csv_path), str(json_path))
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "k,site,theta"
    # layers 1..4 hold 2+3+4+5 = 14 strictly positive entries at beta > 0
    assert len(lines) == 1 + 14
    import json as _json
    meta = _json.loads(json_path.read_text())
    assert meta["n"] == 4 and meta["seed"] == 99
    assert meta["log_partition"] == pytest.approx(sol.log_partition)
