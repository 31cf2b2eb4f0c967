"""Batched solves: a seed tuple solves R environments in one recursion, and
entry r equals the single solve with seed[r] bit for bit.  A streamed solve
(keep_theta=False) equals the stored-layer solve bit for bit."""

import math
import time
from bisect import bisect_left
from itertools import accumulate

import numpy as np
import pytest

from polylab import engine
from polylab.engine import (PolymerInstance, brute_force, forward_backward,
                            layer_theta, sample_paths, segment_tops,
                            streamed_bytes)
from polylab.functionals import alpha_profile, ell, rho
from polylab.lattice import layer_cells, site_cells
from polylab.laws import make_uniform
from polylab.rng import counter_uniform, mix_words, replication_seed

from paths import validate_path

LAW = make_uniform(-1.0, 1.0)


def seeds(base, count):
    return tuple(replication_seed(base, r) for r in range(count))


def batch(d, n, beta, seed_tuple, law=LAW, centered=False):
    return PolymerInstance(d=d, n=n, beta=beta, law=law, seed=seed_tuple,
                           centered=centered)


def test_rng_batches_over_seeds():
    coords = (np.arange(-4, 5),)
    ss = (3, 2 ** 64 - 1, -7)
    u = counter_uniform(ss, 4, coords)
    assert u.shape == (3, 9)
    for r, s in enumerate(ss):
        np.testing.assert_array_equal(u[r], counter_uniform(s, 4, coords))
        assert mix_words(ss, 4, 5)[r] == mix_words(s, 4, 5)
    np.testing.assert_array_equal(counter_uniform(np.array(ss[:1]), 4, coords),
                                  u[:1])


@pytest.mark.parametrize("d,n,beta,law,centered", [
    (1, 40, 3.0, LAW, False),
    (2, 12, 2.0, LAW, False),
    (3, 6, 1.5, make_uniform(0.0, 3.0), True),
    (1, 30, 0.0, LAW, False),
    (2, 8, 0.0, LAW, False),
    (3, 8, 0.0, LAW, False),             # scaling_d3's measure
    (1, 40, 100.0, LAW, False),          # log space
    (2, 6, 100.0, LAW, True),
])
@pytest.mark.parametrize("keep_forward", [False, True])
def test_batch_equals_single_solves_bitwise(d, n, beta, law, centered, keep_forward):
    ss = seeds(17 * d + n, 4)
    sol = forward_backward(batch(d, n, beta, ss, law, centered),
                           keep_forward=keep_forward)
    rhos, alphas = rho(sol), alpha_profile(sol)
    scores, paths = ell(sol)
    assert rhos.shape == scores.shape == sol.log_partition.shape == (4,)
    assert alphas.shape == (4, n) and paths.shape == (4, n, d)
    for r, s in enumerate(ss):
        one = forward_backward(PolymerInstance(d=d, n=n, beta=beta, law=law, seed=s,
                                               centered=centered),
                               keep_forward=keep_forward)
        for k in range(1, n + 1):
            np.testing.assert_array_equal(sol.theta_array(k)[r], one.theta_array(k))
        if keep_forward:
            for f_batch, f_one in zip(sol.forward_layers, one.forward_layers):
                np.testing.assert_array_equal(f_batch[r], f_one)
        np.testing.assert_array_equal(sol.layer_lognorms[r], one.layer_lognorms)
        assert sol.log_partition[r] == one.log_partition
        assert rhos[r] == rho(one)
        np.testing.assert_array_equal(alphas[r], alpha_profile(one))
        one_score, one_path = ell(one)
        assert scores[r] == one_score
        np.testing.assert_array_equal(paths[r], one_path)


def test_single_seed_tuple_keeps_batch_axis():
    sol = forward_backward(batch(1, 10, 2.0, (5,)))
    assert sol.theta_array(3).shape == (1, 4)        # the 4 cone sites of step 3
    assert rho(sol).shape == (1,) and ell(sol)[1].shape == (1, 10, 1)


@pytest.mark.parametrize("d,n,beta", [(1, 6, 0.0), (1, 10, 1.0), (1, 10, 3.0),
                                      (2, 5, 2.0), (2, 6, 1.0),
                                      (3, 5, 0.0), (3, 4, 1.0), (3, 4, 3.0)])
def test_batch_matches_brute_force(d, n, beta):
    ss = seeds(900 + n, 3)
    sol = forward_backward(batch(d, n, beta, ss))
    rhos, (scores, _) = rho(sol), ell(sol)
    for r, s in enumerate(ss):
        bf_sol, bf_rho, bf_ell = brute_force(
            PolymerInstance(d=d, n=n, beta=beta, law=LAW, seed=s))
        for k in range(1, n + 1):
            np.testing.assert_allclose(sol.theta_array(k)[r], bf_sol.theta_array(k),
                                       rtol=0, atol=1e-10)
        assert abs(sol.log_partition[r] - bf_sol.log_partition) <= 1e-10
        assert abs(rhos[r] - bf_rho) <= 1e-10
        assert abs(scores[r] - bf_ell) <= 1e-10


@pytest.mark.parametrize("d,n,beta", [(1, 60, 3.0), (2, 15, 2.0), (3, 7, 1.0)])
def test_batched_paths_are_valid_and_attain_their_scores(d, n, beta):
    ss = seeds(31 * n, 5)
    sol = forward_backward(batch(d, n, beta, ss), keep_forward=False)
    scores, paths = ell(sol)
    for r in range(len(ss)):
        validate_path(paths[r], d)
        total = sum(sol.theta_array(k).reshape(len(ss), -1)[r, site_cells(d, k, paths[r, k - 1])]
                    for k in range(1, n + 1))
        assert total == pytest.approx(n * scores[r], abs=1e-12)


@pytest.mark.parametrize("d,n,expected", [
    (1, 3, [[-1], [0], [-1]]),            # endpoints -1, +1 tie: take -1
    (1, 4, [[-1], [0], [-1], [0]]),       # predecessors -1, +1 of 0 tie: take -1
    (2, 2, [[-1, 0], [0, 0]]),            # four tied predecessors of (0, 0)
])
def test_beta0_tie_break_is_lexicographic(d, n, expected):
    """At beta=0 the measure is symmetric, so ties are everywhere: the path
    takes the lexicographically smallest endpoint, then at each step back the
    lexicographically smallest predecessor."""
    single = forward_backward(PolymerInstance(d=d, n=n, beta=0.0, law=LAW, seed=1))
    np.testing.assert_array_equal(ell(single)[1], expected)
    _, paths = ell(forward_backward(batch(d, n, 0.0, seeds(2, 3))))
    for p in paths:
        np.testing.assert_array_equal(p, expected)


@pytest.mark.parametrize("d,n,beta,law,centered,seed", [
    (1, 40, 3.0, LAW, False, seeds(5, 4)),     # segments of 11, 7, 5, ..., 3 layers
    (1, 49, 2.0, LAW, False, 11),              # one seed, segments of 13 to 3 layers
    (2, 12, 2.0, LAW, False, seeds(6, 3)),     # segments of 6, 3, 2, 1 layers
    (3, 6, 1.5, make_uniform(0.0, 3.0), True, seeds(7, 2)),   # 3, 2, 1 layers
    (1, 30, 0.0, LAW, False, seeds(8, 3)),
    (2, 9, 0.0, LAW, False, (9,)),             # R = 1
    (3, 12, 0.0, LAW, False, seeds(17, 2)),    # scaling_d3's measure, rounding-decided ties
    (3, 16, 0.0, LAW, False, 18),
    (1, 2, 1.0, LAW, False, seeds(10, 2)),     # two one-layer segments
    (2, 1, 1.0, LAW, False, 12),               # a single segment
    (1, 37, 1.0, LAW, True, seeds(13, 3)),     # segments of 10 to 2 layers
    (2, 17, 1.0, LAW, True, seeds(14, 2)),     # segments of 6, 6, 3, 2 layers
    (1, 40, 100.0, LAW, False, seeds(15, 3)),  # log space
    (2, 9, 100.0, LAW, False, seeds(16, 2)),
])
@pytest.mark.parametrize("keep_forward", [False, True])
def test_streamed_equals_stored_bitwise(d, n, beta, law, centered, seed, keep_forward):
    inst = batch(d, n, beta, seed, law, centered)
    stored = forward_backward(inst, keep_forward=keep_forward)
    streamed = forward_backward(inst, keep_forward=keep_forward, keep_theta=False)
    assert streamed.theta_layers == [] and stored.alpha is None
    with pytest.raises(ValueError, match="keep_theta"):
        streamed.theta_array(n)
    np.testing.assert_array_equal(alpha_profile(streamed), alpha_profile(stored))
    np.testing.assert_array_equal(rho(streamed), rho(stored))
    for got, want in zip(ell(streamed), ell(stored)):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(streamed.layer_lognorms, stored.layer_lognorms)
    np.testing.assert_array_equal(streamed.log_partition, stored.log_partition)
    if keep_forward:
        for f_streamed, f_stored in zip(streamed.forward_layers, stored.forward_layers,
                                        strict=True):
            np.testing.assert_array_equal(f_streamed, f_stored)


@pytest.mark.parametrize("keep_theta", [True, False])
@pytest.mark.parametrize("n", [1, 2, 10, 16, 30])
def test_each_layer_is_drawn_twice_except_layer_one(monkeypatch, keep_theta, n):
    drawn = []
    draw = engine.env_layer

    def counted(instance, k):
        drawn.append(k)
        return draw(instance, k)

    monkeypatch.setattr(engine, "env_layer", counted)
    forward_backward(batch(1, n, 1.0, seeds(n, 3)), keep_forward=False,
                     keep_theta=keep_theta)
    assert len(drawn) == 2 * n - 1
    assert sorted(drawn) == sorted([1] + 2 * list(range(2, n + 1)))


def plan_words(d, n, tops):
    """Checkpoint cells (every top below n) plus twice the largest segment."""
    cells = [layer_cells(d, k) for k in range(1, n + 1)]
    lows = (0,) + tuple(tops[:-1])
    largest = max(sum(cells[lo:top]) for lo, top in zip(lows, tops))
    return sum(cells[t - 1] for t in tops[:-1]) + 2 * largest


def sqrt_plan(n):
    """The plan the segments replaced: ceil(sqrt(n)) layers per segment."""
    stride = math.isqrt(n - 1) + 1
    return tuple(range(stride, n, stride)) + (n,)


@pytest.mark.parametrize("d,n_max", [(1, 320), (2, 70), (3, 24)])
def test_segment_plan_covers_every_layer_and_beats_sqrt_plan(d, n_max):
    for n in range(1, n_max + 1):
        tops = segment_tops(d, n)
        assert tops[-1] == n and tops[0] >= 1
        assert all(a < b for a, b in zip(tops, tops[1:]))
        layers = [k for lo, top in zip((0,) + tops[:-1], tops)
                  for k in range(lo + 1, top + 1)]
        assert layers == list(range(1, n + 1))
        assert plan_words(d, n, tops) <= plan_words(d, n, sqrt_plan(n))


def exhaustive_tops(d, n):
    """The plan search segment_tops replaced: greedy plans for the caps
    total/m, m = 1, 2, ..., stopping only once the smallest layers alone
    outweigh the best plan."""
    cum = list(accumulate((layer_cells(d, k) for k in range(1, n + 1)), initial=0))
    top_layer = cum[n] - cum[n - 1]
    best = plan = None
    for m in range(1, n + 1):
        cap = max(top_layer, -(-cum[n] // m))
        tops = [n]
        while tops[-1] > 0:
            tops.append(bisect_left(cum, cum[tops[-1]] - cap))
        tops = tuple(tops[-2::-1])
        words = plan_words(d, n, tops)
        if best is None or words < best:
            best, plan = words, tops
        if cap == top_layer or cum[len(tops) - 1] >= best:
            break
    return plan


@pytest.mark.parametrize("d,n_max", [(1, 320), (2, 70), (3, 24)])
def test_segment_plan_no_worse_than_exhaustive_search(d, n_max):
    for n in range(1, n_max + 1):
        assert plan_words(d, n, segment_tops(d, n)) <= \
            plan_words(d, n, exhaustive_tops(d, n))


def test_segment_plan_for_long_walks_is_quick():
    t0 = time.perf_counter()
    tops = segment_tops.__wrapped__(1, 20_000)
    elapsed = time.perf_counter() - t0
    assert tops[-1] == 20_000 and len(tops) == 173
    assert elapsed < 0.5          # the exhaustive search took ~2.3 s here


def test_figure1_plan_and_byte_model():
    # 8565 words where ceil(sqrt(n))-layer segments hold 12562
    assert plan_words(1, 300, sqrt_plan(300)) == 12562
    assert plan_words(1, 300, segment_tops(1, 300)) == 8565
    # the recompute of B_109 bounds the peak: beside the segment's backward
    # layers, the checkpoints above it (3412 cells), alpha, the log
    # normalizers, 8 scalars and 810 choice bytes, it holds the weights of
    # the segment k = 109..128, B_110 * w_110 and the frame the neighbour sum
    # adds into, and F_108 with its ell scores.  At beta=0 there are no
    # weights and no backward layers, so no checkpoint holds cells, nothing
    # is recomputed and theta_k is F_k, and the ell step of k = 300 bounds
    # it: F_300, the step-300 scores (written over the layer-299 ones), the
    # framed layer-299 scores and 903 choice bytes, beside 5812 bytes of
    # choices
    segment = sum(k + 1 for k in range(109, 129))
    assert streamed_bytes(1, 300, 3.0) - 8 * (segment + 2 * 111 + 2 * 109) == \
        8 * (segment + 3412 + 2 * 300 + 8) + 810
    assert streamed_bytes(1, 300, 0.0) - (8 * 3 * 301 + 903) == \
        8 * (2 * 300 + 8) + 5812


def assert_same_program(got, want):
    """Two settled ell programs in the same state: steps, top scores,
    endpoints and choices.  No score layer is left after a sweep."""
    assert got.n == want.n and len(got.choices) == len(want.choices) == want.n - 1
    assert got.best is None and want.best is None
    for field in ("tops", "ends"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    for a, b in zip(got.choices, want.choices):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("d,n,m", [(1, 40, 17), (2, 12, 5), (3, 10, 4)])
@pytest.mark.parametrize("seed", [21, seeds(21, 3)], ids=["int", "tuple3"])
@pytest.mark.parametrize("keep_theta", [True, False], ids=["stored", "streamed"])
def test_beta0_prefix_equals_the_direct_solve(d, n, m, seed, keep_theta):
    """At beta=0 theta_k = F_k does not depend on n, so the first m layers of
    a length-n solve are the length-m solve in every field, bit for bit."""
    long = forward_backward(batch(d, n, 0.0, seed), keep_theta=keep_theta, prefixes=[m])
    got = long.prefix(m)
    want = forward_backward(batch(d, m, 0.0, seed), keep_theta=keep_theta)
    assert got.instance == want.instance and got.replaced == want.replaced == ()
    assert type(got.log_partition) is type(want.log_partition)
    np.testing.assert_array_equal(got.log_partition, want.log_partition)
    np.testing.assert_array_equal(got.layer_lognorms, want.layer_lognorms)
    for field in ("theta_layers", "forward_layers"):
        for a, b in zip(getattr(got, field), getattr(want, field), strict=True):
            np.testing.assert_array_equal(a, b)
    if keep_theta:
        assert got.alpha is got.path_dp is want.alpha is want.path_dp is None
    else:
        np.testing.assert_array_equal(got.alpha, want.alpha)
        assert_same_program(got.path_dp, want.path_dp)
        # the long solve stays streamed: one kept answer, no theta
        assert long.theta_layers == [] and list(long.path_dp.kept) == [m]
        # and is its own prefix, though n was not named
        assert_same_program(long.prefix(n).path_dp, long.path_dp)
    for a, b in zip(ell(got), ell(want), strict=True):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(rho(got), rho(want))


def test_prefix_refusals():
    """Prefixes exist at beta=0 only, for steps 1..n, and a streamed solve
    has the ell program's state only for the lengths it was asked to keep."""
    with pytest.raises(ValueError, match="beta=0"):
        forward_backward(batch(1, 10, 1.0, 3), prefixes=[4])
    with pytest.raises(ValueError, match="prefixes"):
        forward_backward(batch(1, 10, 1.0, 3)).prefix(4)
    with pytest.raises(ValueError, match="outside"):
        forward_backward(batch(1, 10, 0.0, 3), prefixes=[11])
    with pytest.raises(ValueError, match="outside"):
        forward_backward(batch(1, 10, 0.0, 3), keep_theta=False, prefixes=[0])
    with pytest.raises(TypeError):
        forward_backward(batch(1, 10, 0.0, 3), prefixes=[4.5])
    stored = forward_backward(batch(1, 10, 0.0, 3))
    assert stored.prefix(4).instance.n == 4       # a stored solve keeps every layer
    for m in (0, 11):
        with pytest.raises(ValueError, match="outside"):
            stored.prefix(m)
    streamed = forward_backward(batch(1, 10, 0.0, 3), keep_theta=False, prefixes=[5])
    assert streamed.prefix(5).instance.n == 5
    with pytest.raises(ValueError, match="kept no state after 4 of 10"):
        streamed.prefix(4)


class TestSingleEnvironmentOnly:
    @pytest.fixture(scope="class")
    @staticmethod
    def solved():
        inst = batch(1, 6, 1.0, (1, 2))
        return inst, forward_backward(inst)

    def test_overrides_rejected(self, solved):
        """A replaced layer belongs to one environment."""
        inst, _ = solved
        with pytest.raises(ValueError):
            forward_backward(inst, layer_omega={2: 0.0})
        with pytest.raises(ValueError):
            layer_theta(inst, 2, 0.0)

    def test_sample_paths_rejected(self, solved):
        _, sol = solved
        with pytest.raises(ValueError):
            sample_paths(sol, 1, np.random.default_rng(0))

    def test_theta_value_rejected(self, solved):
        _, sol = solved
        with pytest.raises(ValueError):
            sol.theta_value(1, (1,))

    def test_seed_must_be_hashable_or_nonempty(self):
        with pytest.raises(TypeError):
            PolymerInstance(d=1, n=3, beta=1.0, law=LAW, seed=[1, 2])
        with pytest.raises(ValueError):
            PolymerInstance(d=1, n=3, beta=1.0, law=LAW, seed=())
