"""Localization functionals: profiles, overlap chain, the DP for ell,
path-sum diagnostics, and layer-conditional estimates."""

import dataclasses
import math

import numpy as np
import pytest

from polylab import engine, functionals
from polylab.engine import (PolymerInstance, brute_force, forward_backward,
                            sample_paths)
from polylab.functionals import (alpha_floor, alpha_profile, build_report,
                                 ell, gamma_tau_profiles, primed_estimates,
                                 rho)
from polylab.laws import make_uniform, poincare_constant
from polylab.rng import derive_seed, replication_seed

from paths import psi, validate_path

LAW = make_uniform(-1.0, 1.0)


def solved(d, n, beta, seed, keep_forward=False):
    inst = PolymerInstance(d=d, n=n, beta=beta, law=LAW, seed=seed)
    return inst, forward_backward(inst, keep_forward=keep_forward)


class TestAlphaRho:
    def test_n1_symmetric(self):
        _, sol = solved(1, 1, 0.0, 0)
        assert alpha_profile(sol)[0] == pytest.approx(0.5, abs=1e-15)

    def test_beta0_step2(self):
        # theta2 = (1/4, 1/2, 1/4) -> alpha2 = 1/16 + 1/4 + 1/16 = 3/8
        _, sol = solved(1, 2, 0.0, 0)
        assert alpha_profile(sol)[1] == pytest.approx(3.0 / 8.0, abs=1e-15)

    def test_cauchy_schwarz_floor(self):
        for i, (d, n, beta) in enumerate([(1, 30, 0.0), (1, 30, 3.0), (2, 15, 1.0)]):
            inst, sol = solved(d, n, beta, replication_seed(10, i))
            alpha = alpha_profile(sol)
            assert np.all(alpha * (2 * np.arange(1, n + 1) + 1.0) ** d >= 1.0)

    def test_rho_is_mean_alpha(self):
        _, sol = solved(1, 25, 2.0, 44)
        assert rho(sol) == pytest.approx(float(alpha_profile(sol).mean()), abs=1e-15)

    def test_rho_beta0_n2(self):
        _, sol = solved(1, 2, 0.0, 0)
        assert rho(sol) == pytest.approx(7.0 / 16.0, abs=1e-15)

    def test_rho_floor(self):
        for i, (d, n) in enumerate([(1, 20), (2, 12)]):
            _, sol = solved(d, n, 4.0, replication_seed(20, i))
            assert rho(sol) >= 1.0 / (3 ** d * n)

    def test_rho_matches_brute_force(self):
        inst, sol = solved(1, 10, 2.0, 3)
        _, bf_rho, _ = brute_force(inst)
        assert rho(sol) == pytest.approx(bf_rho, abs=1e-10)


class TestEll:
    def test_n1_max_theta(self):
        _, sol = solved(1, 1, 1.5, 5)
        l, path = ell(sol)
        assert l == pytest.approx(max(sol.theta_value(1, (-1,)),
                                      sol.theta_value(1, (1,))), abs=1e-15)

    def test_beta0_n2(self):
        _, sol = solved(1, 2, 0.0, 0)
        l, path = ell(sol)
        assert l == pytest.approx(0.5, abs=1e-15)
        assert path[1, 0] == 0 and abs(path[0, 0]) == 1

    @pytest.mark.parametrize("n,beta", [(8, 0.0), (10, 1.0), (12, 3.0)])
    def test_matches_exhaustive_max(self, n, beta):
        inst, sol = solved(1, n, beta, replication_seed(30, n))
        _, _, bf_ell = brute_force(inst)
        assert ell(sol)[0] == pytest.approx(bf_ell, abs=1e-10)

    def test_argmax_path_attains_score(self):
        for i, (d, n, beta) in enumerate([(1, 40, 3.0), (2, 12, 2.0)]):
            _, sol = solved(d, n, beta, replication_seed(40, i))
            l, path = ell(sol)
            validate_path(path, d)
            score = sum(sol.theta_value(k, tuple(path[k - 1])) for k in range(1, n + 1))
            assert score == pytest.approx(n * l, abs=1e-12)

    def test_overlap_chain(self):
        for i, (d, n, beta) in enumerate([(1, 10, 0.0), (1, 50, 1.0),
                                          (2, 10, 3.0), (1, 25, 6.0)]):
            _, sol = solved(d, n, beta, replication_seed(50, i))
            r = rho(sol)
            l, _ = ell(sol)
            assert l * l <= r + 1e-12
            assert r <= l + 1e-12

    def test_tie_break_deterministic(self):
        _, sol_a = solved(1, 12, 0.0, 1)
        _, sol_b = solved(1, 12, 0.0, 2)
        # beta=0 measure is seed-independent; the tie-broken path must agree
        np.testing.assert_array_equal(ell(sol_a)[1], ell(sol_b)[1])

    @pytest.mark.parametrize("d,n,seed", [(3, 12, 5), (3, 16, 2), (4, 8, 3)])
    def test_beta0_tie_break_up_to_rounding(self, d, n, seed):
        """At beta=0 in d >= 3 exact ties among paths are decided by the
        rounding of their scores, so the lexicographic rule does not fix
        the path.  What holds: the path is valid, stored and streamed solves
        agree on ell and the path bit for bit, and the path attains ell."""
        inst = PolymerInstance(d=d, n=n, beta=0.0, law=LAW, seed=seed)
        stored = forward_backward(inst, keep_forward=False)
        l, path = ell(stored)
        validate_path(path, d)
        l_streamed, path_streamed = ell(forward_backward(inst, keep_forward=False,
                                                         keep_theta=False))
        assert l_streamed == l
        np.testing.assert_array_equal(path_streamed, path, strict=True)
        mean = sum(stored.theta_value(k, tuple(path[k - 1])) for k in range(1, n + 1)) / n
        assert abs(mean - l) <= 1e-15 * l


class TestGammaTau:
    def test_gamma_bounded_by_K(self):
        inst, sol = solved(1, 30, 2.0, 60)
        gamma, tau = gamma_tau_profiles(sol)
        K = poincare_constant(LAW)
        assert np.all(gamma > 0)
        assert np.all(gamma <= K + 1e-12)

    def test_tau_in_support(self):
        inst, sol = solved(1, 30, 2.0, 61)
        _, tau = gamma_tau_profiles(sol)
        assert np.all(tau > -1.0) and np.all(tau < 1.0)

    def test_n1_equal_weights_exact(self):
        inst, sol = solved(1, 1, 0.0, 62)
        gamma, tau = gamma_tau_profiles(sol)
        from polylab.engine import env_value
        v1, v2 = env_value(inst, 1, (-1,)), env_value(inst, 1, (1,))
        assert gamma[0] == pytest.approx(
            0.5 * (float(LAW.h(v1)) + float(LAW.h(v2))), abs=1e-14)
        assert tau[0] == pytest.approx(0.5 * (v1 + v2), abs=1e-14)

    def test_centered_instance_uses_shifted_h(self):
        law = make_uniform(0.0, 2.0)
        inst = PolymerInstance(d=1, n=10, beta=1.0, law=law, seed=63, centered=True)
        sol = forward_backward(inst, keep_forward=False)
        gamma, _ = gamma_tau_profiles(sol)
        assert np.all(gamma > 0)


class TestFreeEnergyIdentity:
    """d log Z / d beta = sum_k tau_k for every environment: the Gibbs mean of
    the path energy, of the centered omega for a centered instance."""

    @pytest.mark.parametrize("lo,hi,centered", [(-1.0, 1.0, False), (0.0, 3.0, False),
                                                (0.0, 3.0, True)])
    @pytest.mark.parametrize("d,n,beta", [(1, 20, 1.0), (1, 20, 3.0), (1, 20, 100.0),
                                          (2, 8, 2.0), (2, 8, 60.0), (3, 5, 1.5)])
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_log_partition_slope_is_sum_tau(self, lo, hi, centered, d, n, beta, seed):
        law = make_uniform(lo, hi)
        eps = 1e-5 * max(1.0, beta)
        # beta +- eps on one side of the switch to log space (100 runs in it)
        assert engine.log_space(beta - eps, law) == engine.log_space(beta + eps, law)
        inst = PolymerInstance(d=d, n=n, beta=beta, law=law, seed=seed, centered=centered)
        up, down = (forward_backward(dataclasses.replace(inst, beta=b),
                                     keep_forward=False).log_partition
                    for b in (beta + eps, beta - eps))
        _, tau = gamma_tau_profiles(forward_backward(inst, keep_forward=False))
        assert (up - down) / (2 * eps) == pytest.approx(tau.sum(), rel=1e-7)


class TestPsi:
    """psi is the reference in tests/paths.py, no longer a library name."""

    def test_empty_index_set(self):
        inst, sol = solved(1, 10, 1.0, 70)
        _, path = ell(sol)
        assert psi(inst, path, []) == 0.0

    def test_nonnegative(self):
        inst, sol = solved(1, 15, 2.0, 71)
        _, path = ell(sol)
        assert psi(inst, path, range(1, 16)) >= 0.0

    def test_gibbs_average_matches_gamma_sum(self):
        inst, sol = solved(1, 20, 2.0, 72, keep_forward=True)
        gamma, _ = gamma_tau_profiles(sol)
        rng = np.random.default_rng(derive_seed(72, 9))
        m = 4000
        paths = sample_paths(sol, m, rng)
        vals = np.array([psi(inst, p, range(1, 21)) for p in paths])
        se = vals.std(ddof=1) / math.sqrt(m)
        assert abs(vals.mean() - gamma.sum()) <= 4 * se

    def test_min_over_paths_below_gamma(self):
        """gamma(A) is a Gibbs average of psi(P, A), so it dominates the
        minimum of psi over all paths."""
        inst = PolymerInstance(d=1, n=8, beta=2.0, law=LAW, seed=73)
        sol = forward_backward(inst, keep_forward=False)
        gamma, _ = gamma_tau_profiles(sol)
        A = list(range(1, 9))
        best = math.inf
        # enumerate all 2^8 paths
        for bits in range(256):
            steps = np.array([1 if bits & (1 << j) else -1 for j in range(8)])
            path = np.cumsum(steps).reshape(-1, 1)
            best = min(best, psi(inst, path, A))
        assert best <= gamma.sum() + 1e-12

    def test_invalid_indices(self):
        inst, sol = solved(1, 5, 1.0, 74)
        _, path = ell(sol)
        with pytest.raises(ValueError):
            psi(inst, path, [0])
        with pytest.raises(ValueError):
            psi(inst, path, [6])

    @pytest.mark.parametrize("sites", [5, 12])
    def test_path_must_have_n_sites(self, sites):
        """A short path once raised IndexError at a step past its end, and a
        long one was read up to step n."""
        inst = PolymerInstance(d=1, n=10, beta=1.0, law=LAW, seed=75)
        path = np.array([[1 - j % 2] for j in range(sites)])
        validate_path(path, 1)
        with pytest.raises(ValueError, match=f"path has {sites} sites, not n=10"):
            psi(inst, path, [7] if sites < 10 else [1])


class TestPrimedEstimates:
    def test_beta0_alpha_exact(self):
        inst, sol = solved(1, 10, 0.0, 80)
        ah, _, _ = primed_estimates(inst, 5, 100)
        assert ah == pytest.approx(float((sol.theta_array(5) ** 2).sum()), abs=1e-14)

    def test_deterministic(self):
        inst, _ = solved(1, 12, 1.0, 81)
        a1 = primed_estimates(inst, 6, 100)
        a2 = primed_estimates(inst, 6, 100)
        assert a1 == a2

    def test_conditional_bound(self):
        """alpha'_k cannot exceed exp(4 beta (b-a)) alpha_k (+ MC noise)."""
        inst, sol = solved(1, 20, 1.0, 82)
        k = 10
        ah, _, (se_a, _) = primed_estimates(inst, k, 200)
        alpha_k = float((sol.theta_array(k) ** 2).sum())
        assert ah <= math.exp(4 * 1.0 * LAW.width) * alpha_k + 4 * se_a

    def test_resample_guard(self):
        inst, _ = solved(1, 5, 1.0, 83)
        with pytest.raises(ValueError):
            primed_estimates(inst, 2, 50)

    # (d, n, beta, law, centered, seed, k) and (alpha_hat, gamma_hat,
    # alpha_se, gamma_se) as computed when each resample re-solved with a
    # seed-keyed layer override and drew its layer once more for gamma
    RECORDED = [
        ((1, 12, 1.0, LAW, False, 31, 5),
         (0.33472409274228654, 0.3358711587373319,
          0.007138717346060063, 0.009249153445492316)),
        ((1, 12, 3.0, LAW, False, 32, 7),
         (0.6413012838285261, 0.3345791424969596,
          0.019785587803038178, 0.01351992568940151)),
        ((1, 12, 100.0, LAW, False, 33, 4),          # log space
         (0.9812679444117457, 0.297715532477472,
          0.008807604620784944, 0.015119475733244164)),
        ((2, 5, 1.0, make_uniform(0.0, 3.0), True, 34, 3),
         (0.2330898592878311, 0.6737544332319391,
          0.007367631491089944, 0.018010088707672407)),
    ]

    @pytest.mark.parametrize("case,expected", RECORDED)
    def test_matches_recorded_values_bitwise(self, case, expected):
        d, n, beta, law, centered, seed, k = case
        inst = PolymerInstance(d=d, n=n, beta=beta, law=law, seed=seed,
                               centered=centered)
        a, g, (sa, sg) = primed_estimates(inst, k, 100)
        assert (a, g, sa, sg) == expected

    def test_resampled_layer_drawn_by_one_call(self, monkeypatch):
        inst, _ = solved(1, 12, 1.0, 84)
        k = 6
        draws = []
        for module in (engine, functionals):
            draw = module.env_layer

            def counted(instance, j, draw=draw):
                if j == k:
                    draws.append(instance.seed)
                return draw(instance, j)

            monkeypatch.setattr(module, "env_layer", counted)
        primed_estimates(inst, k, 100)
        assert len(draws) == 1
        assert draws[0] == tuple(derive_seed(84, functionals._PRIMED_TAG, k, j)
                                 for j in range(100))

    def test_support_edge_raises(self, monkeypatch):
        """h is undefined on the support edge, for the profiles and for the
        resampled layers alike."""
        inst, sol = solved(1, 6, 1.0, 85)
        draw = functionals.env_layer
        monkeypatch.setattr(functionals, "env_layer",
                            lambda instance, j: np.full_like(draw(instance, j), -1.0))
        with pytest.raises(ValueError, match="support edge"):
            gamma_tau_profiles(sol)
        with pytest.raises(ValueError, match="support edge"):
            primed_estimates(inst, 3, 100)


class TestReport:
    def test_build_report(self):
        inst, sol = solved(1, 30, 3.0, 90)
        rep = build_report(sol)
        assert rep.rho == pytest.approx(rho(sol), abs=1e-15)
        assert rep.ell ** 2 <= rep.rho + 1e-12 <= rep.ell + 2e-12
        assert rep.alpha_profile.size == 30
        assert rep.gamma_profile is not None and np.all(rep.gamma_profile > 0)
        validate_path(rep.argmax_path, 1)

    def test_a_broken_overlap_chain_is_refused(self):
        """Theta layers scaled by 10 are no probabilities: rho grows 100
        times and ell 10 times, so rho passes ell and the report is refused."""
        _, sol = solved(1, 30, 3.0, 90)
        scaled = dataclasses.replace(sol, theta_layers=[10.0 * t for t in sol.theta_layers])
        with pytest.raises(RuntimeError, match="overlap chain violated"):
            build_report(scaled)


@pytest.mark.parametrize("keep_theta", [True, False], ids=["stored", "streamed"])
@pytest.mark.parametrize("d,n,beta", [(1, 40, 3.0), (2, 9, 0.0), (3, 6, 100.0)])
@pytest.mark.parametrize("seed", [31, (31, 32, 33)], ids=["single", "batch3"])
def test_ell_scores_are_ell_without_the_path(keep_theta, d, n, beta, seed):
    inst = PolymerInstance(d=d, n=n, beta=beta, law=LAW, seed=seed)
    sol = forward_backward(inst, keep_forward=False, keep_theta=keep_theta)
    scores = functionals.ell_scores(sol)
    assert type(scores) is type(ell(sol)[0])
    assert np.asarray(scores).tobytes() == np.asarray(ell(sol)[0]).tobytes()
