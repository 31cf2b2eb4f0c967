"""Engine: lazy environment, forward-backward vs brute force, sampling,
single-layer marginals (layer_theta, the zero-layer measures), and the theta
sensitivity identity."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from polylab import engine, verify
from polylab.engine import (NumericalError, PolymerInstance, brute_force,
                            env_layer, env_value, forward_backward, layer_alpha,
                            layer_theta, log_space, sample_paths,
                            theta_derivative_check)
from polylab.functionals import (alpha_profile, build_report, ell,
                                 gamma_tau_profiles, rho)
from polylab import lattice
from polylab.lattice import PathDP, layer_coords, layer_shape, site_cells
from polylab.laws import make_uniform
from polylab.rng import counter_uniform, derive_seed, replication_seed

from cone_sites import reachable_sites
from paths import validate_path

LAW = make_uniform(-1.0, 1.0)


def replace_layer(monkeypatch, k, omega):
    """Make the engine draw omega as layer k of every environment."""
    draw = engine.env_layer

    def env_layer(instance, j):
        return np.array(omega, dtype=np.float64) if j == k else draw(instance, j)

    monkeypatch.setattr(engine, "env_layer", env_layer)


class TestInstanceValidation:
    """Bad sizes and temperatures fail at construction, not in the solve."""

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf,
                                      np.float64("nan"), -1.0])
    def test_beta_must_be_finite_and_nonnegative(self, beta):
        with pytest.raises(ValueError, match="beta"):
            PolymerInstance(d=1, n=5, beta=beta, law=LAW, seed=1)

    @pytest.mark.parametrize("name,value", [("d", True), ("d", 1.0), ("d", 1.5),
                                            ("n", False), ("n", 5.0),
                                            ("n", np.float64(5.0)), ("n", "5")])
    def test_sizes_must_be_ints(self, name, value):
        sizes = {"d": 1, "n": 5, name: value}
        with pytest.raises(TypeError, match=name):
            PolymerInstance(beta=1.0, law=LAW, seed=1, **sizes)

    @pytest.mark.parametrize("d,n", [(np.int64(2), np.int32(4)), (np.uint8(3), np.int64(5))])
    def test_numpy_int_sizes_become_ints(self, d, n):
        inst = PolymerInstance(d=d, n=n, beta=1.0, law=LAW, seed=1)
        assert type(inst.d) is int and type(inst.n) is int
        assert inst == PolymerInstance(d=int(d), n=int(n), beta=1.0, law=LAW, seed=1)
        sol = forward_backward(inst, keep_theta=False)
        assert ell(sol)[0] == ell(forward_backward(inst))[0]

    @pytest.mark.parametrize("seed", [1.5, 1.9, True, "1", np.float64(1.0),
                                      (1, 2.7), (1, True), [1, 2], np.array([1, 2])])
    def test_seeds_must_be_ints(self, seed):
        """int() would silently turn each of these into another seed."""
        with pytest.raises(TypeError, match="seed"):
            PolymerInstance(d=1, n=5, beta=1.0, law=LAW, seed=seed)

    @pytest.mark.parametrize("seed", [2 ** 64, 2 ** 70, -2 ** 63 - 1, (1, -2 ** 63 - 1),
                                      (2 ** 64, 1)])
    def test_seeds_must_fit_one_word(self, seed):
        """A seed is one 64-bit word, and masking to 64 bits would alias
        another: 2**64 solved seed 0, and -2**63 - 1 seed 2**63 - 1."""
        with pytest.raises(ValueError, match=r"seed.*\[-2\*\*63, 2\*\*64\)"):
            PolymerInstance(d=1, n=5, beta=1.0, law=LAW, seed=seed)

    @pytest.mark.parametrize("seed", [-2 ** 63, 2 ** 64 - 1, (-2 ** 63, 2 ** 64 - 1)])
    def test_the_ends_of_the_word_are_seeds(self, seed):
        assert PolymerInstance(d=1, n=5, beta=1.0, law=LAW, seed=seed).seed == seed

    @pytest.mark.parametrize("seed,plain", [(np.int64(5), 5), ((np.int64(5), 6), (5, 6)),
                                            ((np.uint64(2 ** 64 - 1),), (2 ** 64 - 1,))])
    def test_numpy_int_seeds_become_ints(self, seed, plain):
        inst = PolymerInstance(d=2, n=4, beta=1.0, law=LAW, seed=seed)
        assert inst.seed == plain and type(inst.seed) is type(plain)
        stored = inst.seed if isinstance(inst.seed, tuple) else (inst.seed,)
        assert all(type(s) is int for s in stored)
        got = forward_backward(inst)
        want = forward_backward(dataclasses.replace(inst, seed=plain))
        assert np.asarray(got.log_partition).tobytes() == np.asarray(want.log_partition).tobytes()
        for a, b in zip(got.theta_layers, want.theta_layers):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("beta", [True, "1", None])
    def test_beta_must_be_a_real_number(self, beta):
        with pytest.raises(TypeError, match="beta must be a real number"):
            PolymerInstance(d=1, n=5, beta=beta, law=LAW, seed=1)

    @pytest.mark.parametrize("beta", [np.float32(2.0), np.int64(2), 2])
    def test_beta_is_stored_as_a_float(self, beta):
        inst = PolymerInstance(d=2, n=6, beta=beta, law=LAW, seed=5)
        assert type(inst.beta) is float
        got = forward_backward(inst)
        want = forward_backward(dataclasses.replace(inst, beta=2.0))
        assert np.asarray(got.log_partition).tobytes() == np.asarray(want.log_partition).tobytes()
        for a, b in zip(got.theta_layers, want.theta_layers):
            assert a.tobytes() == b.tobytes()


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

    @pytest.mark.parametrize("d,site", [(1, (1, 0)), (1, ()), (2, (1,)), (2, (1, 0, 0))])
    def test_site_of_wrong_length_rejected(self, d, site):
        inst = PolymerInstance(d=d, n=5, beta=1.0, law=LAW, seed=3)
        with pytest.raises(ValueError, match="coordinates"):
            env_value(inst, 3, site)
        with pytest.raises(ValueError, match="coordinates"):
            forward_backward(inst).theta_value(3, site)

    @pytest.mark.parametrize("site", [(True,), (1.0,), (np.float64(1.0),), "1", ("1",)])
    def test_site_coordinates_follow_the_integer_rule(self, site):
        """(True,) and (1.0,) drew site 1, theta_value read (0.5,) as off the
        cone, and "1" failed inside abs()."""
        inst = PolymerInstance(d=1, n=5, beta=1.0, law=LAW, seed=3)
        sol = forward_backward(inst)
        for read in (lambda: env_value(inst, 1, site), lambda: sol.theta_value(1, site),
                     lambda: theta_derivative_check(sol, 1, site)):
            with pytest.raises(TypeError, match="a site coordinate must be an int"):
                read()
        with pytest.raises(TypeError, match="a site coordinate must be an int"):
            sol.theta_value(1, (0.5,))

    def test_site_reads_numpy_integers_as_ints(self):
        inst = PolymerInstance(d=2, n=5, beta=1.0, law=LAW, seed=3)
        sol = forward_backward(inst)
        for site in [(np.int64(1), np.int32(0)), np.array([1, 0]), [1, 0]]:
            got = inst.site(np.int64(3), site)
            assert got == (1, 0) and all(type(c) is int for c in got)
            assert env_value(inst, 3, site) == env_value(inst, 3, (1, 0))
            assert sol.theta_value(3, site) == sol.theta_value(3, (1, 0))
        assert inst.site(3, (2, 0)) is None and sol.theta_value(3, (2, 0)) == 0.0
        with pytest.raises(ValueError, match="outside"):
            inst.site(6, (1, 0))

    def test_layer_matches_pointwise(self):
        inst = PolymerInstance(d=2, n=6, beta=1.0, law=LAW, seed=5)
        om = env_layer(inst, 3)
        for site in [(1, 0), (-1, 2), (3, 0), (1, -2)]:
            assert om.reshape(-1)[site_cells(2, 3, site)] == env_value(inst, 3, site)

    @pytest.mark.parametrize("centered", [False, True])
    def test_d3_layer_matches_pointwise_at_every_site(self, centered):
        """env_layer draws at the layer's coordinate arrays, env_value at one
        site's coordinates: the same value at every reachable site."""
        inst = PolymerInstance(d=3, n=6, beta=1.0, law=LAW, seed=-8,
                               centered=centered)
        om = env_layer(inst, 5).reshape(-1)
        sites = list(reachable_sites(3, 5))
        cells = site_cells(3, 5, np.array(sites))
        assert [env_value(inst, 5, x) for x in sites] == om[cells].tolist()

    @pytest.mark.parametrize("d,n", [(3, 32), (4, 8)])
    def test_top_layer_draw_peak_is_a_few_words_per_cell(self, d, n):
        """A layer drawn at its coordinate arrays holds about the state and
        a shift of the fold, the variates and the environment at its peak:
        at most 5 words per cell, where making every cell's site held 12 in
        d=3, n=32 and 17 in d=4, n=8."""
        inst = PolymerInstance(d=d, n=n, beta=1.0, law=LAW, seed=11)
        env_layer(inst, n)
        tracemalloc.start()
        try:
            env_layer(inst, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 8 * (n + 1) ** d

    def test_empirical_mean_clt_band(self):
        """10^6 distinct keys of Uniform[-1,1]: mean within the 4-sigma band."""
        inst = PolymerInstance(d=1, n=1, beta=0.0, law=LAW, seed=123456)
        u = counter_uniform(inst.seed, 1, (np.arange(1_000_000),))
        vals = np.asarray(LAW.quantile(u))
        se = (1.0 / math.sqrt(3.0)) / 1000.0
        assert abs(vals.mean()) < 4 * se

    def test_centered_shifts_by_mean(self):
        law = make_uniform(0.0, 2.0)
        raw = PolymerInstance(d=1, n=4, beta=1.0, law=law, seed=9)
        cen = PolymerInstance(d=1, n=4, beta=1.0, law=law, seed=9, centered=True)
        assert env_value(cen, 2, (0,)) == pytest.approx(
            env_value(raw, 2, (0,)) - 1.0, abs=1e-15)


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
        assert verify.beta0_reduction(n=40, seed=1)[0]["passed"]

    def test_layer_sums_to_one(self):
        inst = PolymerInstance(d=1, n=200, beta=5.0, law=LAW, seed=8)
        sol = forward_backward(inst, keep_forward=False)
        assert max(abs(float(t.sum()) - 1.0) for t in sol.theta_layers) <= verify.NORM_TOL

    def test_theta_in_unit_interval(self):
        inst = PolymerInstance(d=2, n=20, beta=3.0, law=LAW, seed=8)
        sol = forward_backward(inst, keep_forward=False)
        for t in sol.theta_layers:
            assert np.all(t >= 0) and np.all(t <= 1)

    @pytest.mark.parametrize("d,n,beta", [(1, 6, 0.0), (1, 10, 1.0), (1, 12, 3.0),
                                          (2, 6, 1.0), (2, 7, 3.0),
                                          (3, 4, 0.0), (3, 5, 1.0), (3, 5, 3.0)])
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


    NON_FINITE = [
        (1, (1,), math.inf),         # layer 1 is drawn by the forward sweep only
        (5, (-3,), math.inf),        # reachable
        (4, (-2, 2, 2), math.nan),   # off the cone, in the d=3 cube: zero mass times nan
        (8, (-4, 4, 4), math.nan),
        (5, (-3,), -math.inf),       # a lone -inf would be a silent zero weight
        (1, (-1,), -math.inf),
        (4, (-2, 2, 2), -math.inf),
    ]

    @staticmethod
    def solve_with(monkeypatch, beta, keep_theta, k, site, value):
        d = len(site)
        inst = PolymerInstance(d=d, n=8, beta=beta, law=LAW, seed=6)
        omega = env_layer(inst, k)
        omega.reshape(-1)[site_cells(d, k, site)] = value
        replace_layer(monkeypatch, k, omega)
        forward_backward(inst, keep_forward=False, keep_theta=keep_theta)

    @pytest.mark.parametrize("keep_theta", [True, False])
    @pytest.mark.parametrize("k,site,value", NON_FINITE)
    def test_non_finite_environment_raises(self, monkeypatch, keep_theta, k, site,
                                           value):
        with pytest.raises(NumericalError):
            self.solve_with(monkeypatch, 1.0, keep_theta, k, site, value)

    @pytest.mark.parametrize("keep_theta", [True, False])
    @pytest.mark.parametrize("k,site,value", NON_FINITE)
    def test_non_finite_environment_raises_in_log_space(self, monkeypatch, keep_theta,
                                                        k, site, value):
        assert log_space(100.0, LAW)
        with pytest.raises(NumericalError):
            self.solve_with(monkeypatch, 100.0, keep_theta, k, site, value)

    def test_cube_coordinates(self):
        x1, x2 = layer_coords(2, 3)
        assert (x1[0, 3], x2[0, 3]) == (0, -3)
        assert layer_coords(1, 3)[0].tolist() == [-3, -1, 1, 3]        # the cone


class TestBeta0Backward:
    """At beta=0 every backward layer of the array sweep from B_n = 1 is
    constant, so theta_k = normalize(F_k * B_k) is F_k up to rounding, and a
    solve takes theta_k = F_k without making B_k."""

    @pytest.mark.parametrize("lead", [(), (3,)], ids=["single", "batch"])
    @pytest.mark.parametrize("d,n", [(1, 200), (2, 40), (3, 20), (4, 9)])
    def test_theta_is_the_array_sweeps_within_rounding(self, d, n, lead):
        seed = (4, 5, 6) if lead else 4
        inst = PolymerInstance(d=d, n=n, beta=0.0, law=LAW, seed=seed)
        sol = forward_backward(inst)
        plan = lattice.step_plan(d, n)
        array = np.ones(lead + plan[n].shape)
        for k in range(n - 1, 0, -1):
            array = engine._sum(array, lead, plan[k], plan[k + 1], False)
            engine._normalize(array, plan[k].axes, "backward", k, False)
            assert np.all(array == array.reshape(-1)[0]), k
            swept = engine._theta(sol.forward_layers[k - 1], array.copy(), k,
                                  plan[k].axes, False)
            np.testing.assert_allclose(sol.theta_layers[k - 1], swept, rtol=1e-15, atol=0)

    def test_stored_theta_is_a_copy_of_the_forward_layer(self):
        for d, n in [(1, 30), (2, 12), (3, 8)]:
            inst = PolymerInstance(d=d, n=n, beta=0.0, law=LAW, seed=7)
            sol = forward_backward(inst, keep_forward=True)
            for theta, f in zip(sol.theta_layers, sol.forward_layers, strict=True):
                np.testing.assert_array_equal(theta, f)
                assert not np.shares_memory(theta, f)

    @pytest.mark.parametrize("keep_theta", [True, False], ids=["stored", "streamed"])
    def test_solve_matches_brute_force(self, keep_theta):
        inst = PolymerInstance(d=4, n=4, beta=0.0, law=LAW, seed=9)
        sol = forward_backward(inst, keep_forward=False, keep_theta=keep_theta)
        bf_sol, bf_rho, bf_ell = brute_force(inst)
        for k in range(1, inst.n + 1):
            want = layer_alpha(bf_sol.theta_array(k), inst.d)
            if keep_theta:
                np.testing.assert_allclose(sol.theta_array(k), bf_sol.theta_array(k),
                                           atol=1e-12)
            assert alpha_profile(sol)[k - 1] == pytest.approx(want, abs=1e-12)
        assert sol.log_partition == pytest.approx(4 * math.log(8), abs=1e-12)
        assert bf_sol.log_partition == pytest.approx(4 * math.log(8), abs=1e-12)
        assert rho(sol) == pytest.approx(bf_rho, abs=1e-12)
        assert ell(sol)[0] == pytest.approx(bf_ell, abs=1e-12)


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
        np.testing.assert_allclose(sol.theta_array(1), [0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(sol.theta_array(2), [0.25, 0.5, 0.25], atol=1e-15)


class TestSampler:
    @pytest.fixture(scope="class")
    @staticmethod
    def solved():
        inst = PolymerInstance(d=1, n=30, beta=3.0, law=LAW, seed=11)
        return inst, forward_backward(inst)

    def test_paths_valid(self, solved):
        _, sol = solved
        rng = np.random.default_rng(derive_seed(11, 0))
        paths = sample_paths(sol, 200, rng)
        for p in paths:
            validate_path(p, 1)

    def test_visit_frequencies_match_theta(self, solved):
        _, sol = solved
        rng = np.random.default_rng(derive_seed(11, 1))
        m = 20_000
        paths = sample_paths(sol, m, rng)
        k = 15
        t = sol.theta_array(k)
        freq = np.bincount(site_cells(1, k, paths[:, k - 1]), minlength=t.size) / m
        live = t > 1e-4
        se = np.sqrt(t[live] * (1 - t[live]) / m)
        z = np.abs(freq[live] - t[live]) / se
        # allow a single 4-sigma excursion across the tested sites
        assert np.sum(z > 4.0) <= 1

    @pytest.mark.parametrize("d,n,seed", [(2, 10, 21), (3, 6, 23)])
    def test_visit_frequencies_match_theta_in_the_cube(self, d, n, seed):
        """As in d=1, at a middle step and at the endpoint.  In d=3 the cube
        has cells off the cone; theta is 0 there and no path visits them."""
        inst = PolymerInstance(d=d, n=n, beta=2.0, law=LAW, seed=seed)
        sol = forward_backward(inst)
        m = 20_000
        paths = sample_paths(sol, m, np.random.default_rng(derive_seed(seed, 1)))
        for p in paths[:200]:
            validate_path(p, d)
        for k in (n // 2, n):
            t = sol.theta_array(k).reshape(-1)
            freq = np.bincount(site_cells(d, k, paths[:, k - 1]), minlength=t.size) / m
            assert freq.size == t.size and np.all(freq[t == 0.0] == 0.0)
            live = t > 1e-4
            se = np.sqrt(t[live] * (1 - t[live]) / m)
            z = np.abs(freq[live] - t[live]) / se
            assert np.sum(z > 4.0) <= 1

    def test_d2_sampler(self):
        inst = PolymerInstance(d=2, n=10, beta=2.0, law=LAW, seed=21)
        sol = forward_backward(inst)
        rng = np.random.default_rng(3)
        paths = sample_paths(sol, 100, rng)
        for p in paths:
            validate_path(p, 2)

    def test_requires_forward_layers(self, solved):
        inst, _ = solved
        sol2 = forward_backward(inst, keep_forward=False)
        with pytest.raises(ValueError):
            sample_paths(sol2, 1, np.random.default_rng(0))

    def test_a_step_without_forward_mass_is_refused(self, solved):
        """A forward layer with no mass at any neighbour of the endpoint
        leaves the walk back no predecessor to choose."""
        _, sol = solved
        layers = list(sol.forward_layers)
        layers[-2] = np.zeros_like(layers[-2])
        with pytest.raises(NumericalError, match="no admissible predecessor at k=29"):
            sample_paths(dataclasses.replace(sol, forward_layers=layers), 5,
                         np.random.default_rng(0))


class TestZeroLayer:
    def test_sandwich(self):
        inst = PolymerInstance(d=1, n=40, beta=2.0, law=LAW, seed=1001)
        sol = forward_backward(inst, keep_forward=False)
        bound = math.exp(inst.beta * LAW.width)
        for k in (1, 7, 20, 33, 40):
            zeta = layer_theta(inst, k, 0.0)
            theta = sol.theta_array(k)
            live = theta > 0
            ratio = zeta[live] / theta[live]
            assert np.all(ratio >= 1.0 / bound * (1 - 1e-9))
            assert np.all(ratio <= bound * (1 + 1e-9))

    def test_beta0_identity(self):
        inst = PolymerInstance(d=1, n=20, beta=0.0, law=LAW, seed=5)
        sol = forward_backward(inst, keep_forward=False)
        np.testing.assert_array_equal(sol.theta_array(10), layer_theta(inst, 10, 0.0))
        # in d = 2 and 3 too, and for M layers on a leading axis: at beta=0
        # omega_k carries no weight
        for d, n, k in [(2, 12, 6), (3, 8, 4), (3, 8, 8)]:
            inst = PolymerInstance(d=d, n=n, beta=0.0, law=LAW, seed=5)
            theta = forward_backward(inst, keep_forward=False).theta_array(k)
            np.testing.assert_array_equal(theta, layer_theta(inst, k, 0.0))
            stacked = np.stack([env_layer(inst, k), -env_layer(inst, k), np.zeros(theta.shape)])
            for row in layer_theta(inst, k, stacked):
                np.testing.assert_array_equal(row, theta)

    def test_zeta_sums_to_one(self):
        inst = PolymerInstance(d=2, n=12, beta=3.0, law=LAW, seed=5)
        z = layer_theta(inst, 6, 0.0)
        assert abs(float(z.sum()) - 1.0) <= 1e-10

    def test_k_out_of_range(self):
        inst = PolymerInstance(d=1, n=5, beta=1.0, law=LAW, seed=5)
        with pytest.raises(ValueError):
            layer_theta(inst, 6, 0.0)
        with pytest.raises(ValueError):
            layer_theta(inst, 0, 0.0)


# (d, n, beta, k, law, centered): d = 1, 2, 3, beta = 0, k = 1 and k = n, n = 1
LAYER_CASES = [
    (1, 12, 2.0, 1, LAW, False),
    (1, 12, 2.0, 7, LAW, False),
    (1, 12, 2.0, 12, LAW, False),
    (1, 1, 2.0, 1, LAW, False),
    (1, 9, 0.0, 4, LAW, False),
    (2, 6, 1.5, 3, LAW, False),
    (2, 5, 0.0, 5, LAW, False),
    (3, 4, 1.0, 2, make_uniform(0.0, 3.0), True),
    (3, 3, 2.0, 3, LAW, False),
    (1, 10, 100.0, 4, LAW, False),       # log space
    (2, 4, 100.0, 4, LAW, False),
]


def replacement_layers(inst, k, m):
    """m step-k layers drawn from the law under other seeds."""
    return np.stack([env_layer(dataclasses.replace(inst, seed=derive_seed(inst.seed, j)),
                               k) for j in range(m)])


class TestLayerTheta:
    @pytest.mark.parametrize("d,n,beta,k,law,centered", LAYER_CASES)
    def test_equals_full_resolve_bitwise(self, monkeypatch, d, n, beta, k, law,
                                         centered):
        inst = PolymerInstance(d=d, n=n, beta=beta, law=law,
                               seed=replication_seed(44, n), centered=centered)
        shape = layer_shape(d, k)
        layers = replacement_layers(inst, k, 3)
        zeta = layer_theta(inst, k, 0.0)
        single = [layer_theta(inst, k, om) for om in layers]
        stacked = layer_theta(inst, k, layers)
        assert zeta.shape == shape and stacked.shape == (3,) + shape
        for om, theta in [(np.zeros(shape), zeta)] + list(zip(layers, single)):
            with monkeypatch.context() as mp:
                replace_layer(mp, k, om)
                expected = forward_backward(inst, keep_forward=False).theta_array(k)
            np.testing.assert_array_equal(theta, expected, strict=True)
        for row, theta in zip(stacked, single):
            np.testing.assert_array_equal(row, theta, strict=True)

    @pytest.mark.parametrize("n,beta,k", [(1, 1.0, 1), (5, 3.0, 1), (6, 2.0, 4),
                                          (8, 1.0, 8), (8, 0.0, 3)])
    def test_matches_brute_force(self, monkeypatch, n, beta, k):
        inst = PolymerInstance(d=1, n=n, beta=beta, law=LAW,
                               seed=replication_seed(45, n))
        layers = replacement_layers(inst, k, 2)
        thetas = layer_theta(inst, k, layers)
        for om, theta in zip(layers, thetas):
            with monkeypatch.context() as mp:
                replace_layer(mp, k, om)
                bf_sol, _, _ = brute_force(inst)
            np.testing.assert_allclose(theta, bf_sol.theta_array(k), rtol=0, atol=1e-10)

    def test_does_not_draw_layer_k(self, monkeypatch):
        inst = PolymerInstance(d=1, n=10, beta=1.0, law=LAW, seed=3)
        drawn = []
        draw = engine.env_layer
        monkeypatch.setattr(engine, "env_layer",
                            lambda instance, j: drawn.append(j) or draw(instance, j))
        layer_theta(inst, 4, 0.0)
        assert sorted(drawn) == [j for j in range(1, 11) if j != 4]


class TestLayerOmega:
    @pytest.mark.parametrize("d,n,beta,k,law,centered", LAYER_CASES)
    @pytest.mark.parametrize("keep_theta", [True, False])
    def test_equals_redrawn_layer_bitwise(self, monkeypatch, d, n, beta, k, law,
                                          centered, keep_theta):
        """forward_backward(layer_omega={k: om}) is the solve whose layer k
        is om, and its theta_k is layer_theta's; a scalar broadcasts."""
        inst = PolymerInstance(d=d, n=n, beta=beta, law=law,
                               seed=replication_seed(46, n), centered=centered)
        for om in [0.0, *replacement_layers(inst, k, 2)]:
            got = forward_backward(inst, keep_forward=False, keep_theta=keep_theta,
                                   layer_omega={k: om})
            with monkeypatch.context() as mp:
                replace_layer(mp, k, np.broadcast_to(om, layer_shape(d, k)))
                want = forward_backward(inst, keep_forward=False,
                                        keep_theta=keep_theta)
            assert got.log_partition == want.log_partition
            np.testing.assert_array_equal(got.layer_lognorms, want.layer_lognorms)
            np.testing.assert_array_equal(ell(got)[1], ell(want)[1])
            if keep_theta:
                for a, b in zip(got.theta_layers, want.theta_layers, strict=True):
                    np.testing.assert_array_equal(a, b, strict=True)
                np.testing.assert_array_equal(got.theta_array(k),
                                              layer_theta(inst, k, om), strict=True)
            else:
                np.testing.assert_array_equal(got.alpha, want.alpha)

    def test_does_not_draw_layer_k(self, monkeypatch):
        inst = PolymerInstance(d=1, n=10, beta=1.0, law=LAW, seed=3)
        drawn = []
        draw = engine.env_layer
        monkeypatch.setattr(engine, "env_layer",
                            lambda instance, j: drawn.append(j) or draw(instance, j))
        forward_backward(inst, layer_omega={4: np.zeros(5)})
        assert sorted(drawn) == sorted([1] + [j for j in range(2, 11) if j != 4] * 2)

    @pytest.mark.parametrize("omega", [np.zeros(6), np.zeros(4), np.zeros((2, 5)),
                                       np.zeros((5, 1))])
    def test_wrong_shape_rejected(self, omega):
        inst = PolymerInstance(d=1, n=10, beta=1.0, law=LAW, seed=3)
        with pytest.raises(ValueError):
            forward_backward(inst, layer_omega={4: omega})

    @pytest.mark.parametrize("k", [0, 11])
    def test_step_out_of_range_rejected(self, k):
        inst = PolymerInstance(d=1, n=10, beta=1.0, law=LAW, seed=3)
        with pytest.raises(ValueError, match="outside"):
            forward_backward(inst, layer_omega={k: 0.0})

    def test_seed_tuple_rejected(self):
        inst = PolymerInstance(d=1, n=10, beta=1.0, law=LAW, seed=(3, 4))
        with pytest.raises(ValueError, match="one environment"):
            forward_backward(inst, layer_omega={4: np.zeros(5)})

    def test_solution_records_the_replaced_steps(self):
        inst = PolymerInstance(d=1, n=10, beta=1.0, law=LAW, seed=3)
        assert forward_backward(inst).replaced == ()
        assert forward_backward(inst, layer_omega={}).replaced == ()
        sol = forward_backward(inst, keep_theta=False,
                               layer_omega={np.int64(7): 0.0, 4: 0.5})
        assert sol.replaced == (4, 7) and type(sol.replaced[1]) is int

    @pytest.mark.parametrize("reader", [
        gamma_tau_profiles,
        build_report,
        lambda sol: theta_derivative_check(sol, 10, (0,)),
    ], ids=["gamma_tau_profiles", "build_report", "theta_derivative_check"])
    def test_readers_that_redraw_refuse_a_replaced_solve(self, reader):
        """These readers draw layers from solution.instance, which are not
        the replaced ones: with layer 10 set to 0.9, tau_10 would read the
        drawn layer (-0.4474), and the derivative check would compare
        0.7478 against 0.7325."""
        inst = PolymerInstance(d=1, n=20, beta=3.0, law=LAW, seed=1)
        with pytest.raises(ValueError, match=r"replaced its layers \[10\]"):
            reader(forward_backward(inst, layer_omega={10: 0.9}))
        reader(forward_backward(inst))


class TestDerivativeIdentity:
    def test_beta0_zero_derivative(self):
        inst = PolymerInstance(d=1, n=10, beta=0.0, law=LAW, seed=2)
        sol = forward_backward(inst)
        analytic, numeric = theta_derivative_check(sol, 5, (1,))
        assert analytic == 0.0
        assert abs(numeric) <= 1e-9

    def test_n1_softmax_derivative(self):
        inst = PolymerInstance(d=1, n=1, beta=2.0, law=LAW, seed=17)
        sol = forward_backward(inst)
        analytic, numeric = theta_derivative_check(sol, 1, (1,))
        t = sol.theta_value(1, (1,))
        assert analytic == pytest.approx(2.0 * t * (1 - t), abs=1e-15)
        assert abs(analytic - numeric) <= 1e-5 * max(1.0, analytic)

    def test_random_sites(self):
        assert verify.derivative_identity(n=40, trials=20, seed=606)[0]["passed"]

    def test_a_step_past_the_support_is_clamped_with_a_warning(self):
        """A law narrower than the difference step (1e-7 against 2e-6) puts
        both shifted values outside the support; they are clamped to its
        inner edges, with a warning, and the difference still matches."""
        inst = PolymerInstance(d=1, n=4, beta=1.0, law=make_uniform(0.0, 1e-7), seed=3)
        sol = forward_backward(inst)
        with pytest.warns(UserWarning, match="leaves the support; clamping"):
            analytic, numeric = theta_derivative_check(sol, 2, (0,))
        assert numeric == pytest.approx(analytic, rel=1e-6)


@pytest.mark.parametrize("seed,solve", [
    (5, forward_backward),
    (5, lambda inst: forward_backward(inst, keep_theta=False)),
    ((5, 6, 7), forward_backward),
    (5, lambda inst: brute_force(inst)[0]),
    (5, lambda inst: forward_backward(inst, layer_omega={2: 0.0})),
], ids=["stored", "streamed", "batched", "brute-force", "layer-omega"])
def test_solution_carries_its_instance(seed, solve):
    """Every kind of solve hands back the instance it solved itself, the
    one home of the solution's d, n, beta, law and seed."""
    inst = PolymerInstance(d=2, n=4, beta=1.5, law=LAW, seed=seed)
    assert solve(inst).instance is inst


class TestLayout:
    """In d=1 every layer is the cone x = -k, -k+2, ..., k; in d >= 2 the
    cube {0..k}^d of the rotated coordinates (k + s(x)) / 2."""

    @pytest.mark.parametrize("seed", [13, (13, 2 ** 64 - 5, -1)])
    @pytest.mark.parametrize("centered", [False, True])
    def test_d1_layer_is_the_box_draw_at_cone_sites(self, seed, centered):
        law = make_uniform(0.0, 3.0)
        inst = PolymerInstance(d=1, n=9, beta=1.0, law=law, seed=seed,
                               centered=centered)
        for k in range(1, 10):
            box = np.asarray(law.quantile(counter_uniform(seed, k, (np.arange(-k, k + 1),))))
            if centered:
                box = box - law.mean
            np.testing.assert_array_equal(env_layer(inst, k), box[..., ::2], strict=True)

    @pytest.mark.parametrize("keep_theta", [True, False])
    def test_d1_solve_draws_only_the_cone(self, monkeypatch, keep_theta):
        n, seeds = 30, (4, 5, 6)
        drawn = []

        def counted(seed, k, coords):
            u = counter_uniform(seed, k, coords)
            drawn.append(u.size)
            return u

        monkeypatch.setattr(engine, "counter_uniform", counted)
        forward_backward(PolymerInstance(d=1, n=n, beta=1.0, law=LAW, seed=seeds),
                         keep_forward=False, keep_theta=keep_theta)
        # each layer twice, layer 1 (2 sites) once
        per_seed = 2 * sum(k + 1 for k in range(1, n + 1)) - 2
        assert sum(drawn) == len(seeds) * per_seed == 3 * 988

    @pytest.mark.parametrize("d,n", [(1, 6), (2, 3), (3, 4)])
    def test_nonzero_theta_cells_are_the_reachable_sites(self, d, n):
        """At beta > 0 every reachable site carries mass and the cube's
        cells off the cone carry exactly none, and theta_value reads each
        site's own cell."""
        inst = PolymerInstance(d=d, n=n, beta=1.0, law=LAW, seed=99)
        sol = forward_backward(inst, keep_forward=False)
        for k in range(1, n + 1):
            theta = sol.theta_array(k).reshape(-1)
            sites = np.stack(np.broadcast_arrays(*layer_coords(d, k)), axis=-1).reshape(-1, d)
            nonzero = {tuple(x): v for x, v in
                       zip(sites.tolist(), theta.tolist()) if v != 0.0}
            assert sorted(nonzero) == sorted(reachable_sites(d, k))
            for x, value in nonzero.items():
                assert value == sol.theta_value(k, x)


EPS = np.finfo(np.float64).eps


def geodesic(instance):
    """Max-weight path of the raw environment (directed last-passage
    percolation) and its weight M, from PathDP fed the omega layers."""
    dp = PathDP(instance.d, ())
    for k in range(1, instance.n + 1):
        dp.push(env_layer(instance, k))
    top, paths = dp.result()
    return float(top[0]), paths[0]


class TestLowTemperature:
    """Weights exp(beta*omega) are taken relative to each layer's max, and
    past engine.LOG_SPACE_RANGE the sweeps run in log space, so no beta or
    shift of the law overflows."""

    @pytest.mark.parametrize("beta", [1.0, 10.0, 100.0, 1e3])
    @pytest.mark.parametrize("law", [LAW, make_uniform(100.0, 101.0)],
                             ids=["centred", "shifted"])
    @pytest.mark.parametrize("d,n", [(1, 50), (2, 12), (3, 6)])
    def test_log_partition_within_zero_temperature_bounds(self, d, n, law, beta):
        """M <= log Z / beta <= M + n log(2d) / beta: the max path alone, and
        (2d)^n paths of weight at most exp(beta M)."""
        inst = PolymerInstance(d=d, n=n, beta=beta, law=law, seed=replication_seed(8, d))
        top, path = geodesic(inst)
        slack = 8 * n * EPS * (abs(top) + 1.0)
        sol = forward_backward(inst, keep_forward=False, keep_theta=False)
        assert top - slack <= sol.log_partition / beta \
            <= top + n * math.log(2 * d) / beta + slack
        if beta == 1e3:          # the measure sits on the geodesic
            np.testing.assert_array_equal(ell(sol)[1], path)

    @pytest.mark.parametrize("law,beta", [(make_uniform(100.0, 101.0), 8.0),
                                          (LAW, 800.0)])
    def test_large_weights_solve_without_warnings(self, law, beta):
        inst = PolymerInstance(d=1, n=50, beta=beta, law=law, seed=3)
        for keep_theta in (True, False):
            sol = forward_backward(inst, keep_forward=False, keep_theta=keep_theta)
            assert math.isfinite(sol.log_partition) and 0 < rho(sol) <= 1

    @pytest.mark.parametrize("d,n,beta", [(1, 30, 3.0), (2, 8, 2.0), (1, 30, 100.0)])
    def test_shifting_the_law_moves_only_log_z(self, d, n, beta):
        """omega + c leaves the measure unchanged and adds beta*c*n to log Z,
        up to the rounding delta of the shifted draws: delta moves log Z by
        at most beta*n*delta and theta by a factor within exp(2*beta*n*delta).
        Beyond that, float64 rounding of n steps over log-masses of up to
        beta*(c + width)*n (log Z) or beta*width*n (theta, log space)."""
        c = 100.0
        base = PolymerInstance(d=d, n=n, beta=beta, law=LAW, seed=77)
        shifted = dataclasses.replace(base, law=make_uniform(-1.0 + c, 1.0 + c))
        delta = max(float(np.max(np.abs(env_layer(shifted, k) - env_layer(base, k) - c)))
                    for k in range(1, n + 1))
        a, b = forward_backward(base), forward_backward(shifted)
        drift = beta * n * delta
        rounding = 8 * n * n * EPS * beta
        assert abs(b.log_partition - a.log_partition - beta * c * n) \
            <= drift + rounding * (c + LAW.width)
        for k in range(1, n + 1):
            np.testing.assert_allclose(b.theta_array(k), a.theta_array(k), atol=0,
                                       rtol=math.expm1(2 * drift) + rounding * LAW.width)


class TestNonFiniteLayers:
    """The normalizers refuse a layer they cannot normalize, naming it."""

    @pytest.mark.parametrize("value", [0.0, np.inf, np.nan])
    def test_normalize_refuses_a_sum_that_is_not_finite_and_positive(self, value):
        x = np.array([[0.25, 0.75], [value, value]])
        with pytest.raises(NumericalError, match="non-finite forward layer at k=3"):
            engine._normalize(x, (-1,), "forward", 3, False)

    @pytest.mark.parametrize("value", [-np.inf, np.inf, np.nan])
    def test_exp_shifted_refuses_a_top_that_is_not_finite(self, value):
        x = np.array([[0.0, -1.0], [value, value]])
        with pytest.raises(NumericalError, match="non-finite theta layer at k=2"):
            engine._exp_shifted(x, None, (-1,), "theta", 2)
