"""Streamed beta=0 solves keep their layer-sized working arrays between
calls (engine._Retained).  What a solve returns must never live in those
buffers, concurrent solves in threads or forked workers must never share
them, and a warm solve allocates no layer of its own."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from polylab import engine
from polylab.engine import PolymerInstance, forward_backward
from polylab.functionals import alpha_profile, ell, ell_scores
from polylab.harness import ExperimentConfig, chunk_size, run_replications, scaling_study
from polylab.laws import make_uniform

LAW = make_uniform(-1.0, 1.0)


def solve(d, n, seed, keep_theta=False, prefixes=()):
    inst = PolymerInstance(d=d, n=n, beta=0.0, law=LAW, seed=seed)
    return forward_backward(inst, keep_forward=False, keep_theta=keep_theta,
                            prefixes=prefixes)


def fingerprint(solution, lengths):
    """The bytes of everything a solve answers for each length m of
    lengths: the ell scores, score and path, alpha and the layer log
    normalizers of its prefix(m)."""
    out = []
    for m in lengths:
        part = solution.prefix(m)
        score, path = ell(part)
        out += [np.asarray(a).tobytes() for a in
                (ell_scores(part), score, path, alpha_profile(part), part.layer_lognorms)]
    return out


@pytest.mark.parametrize("d,n", [(1, 24), (2, 12), (3, 9)])
@pytest.mark.parametrize("prefixes", [(), (3, 7), (3, 7, "n")], ids=["none", "inner", "with-n"])
@pytest.mark.parametrize("seed", [5, (5, 6, 7)], ids=["int", "tuple3"])
def test_a_kept_solution_survives_later_solves(d, n, prefixes, seed):
    """A streamed beta=0 solution is bit for bit a stored solve's, in every
    prefix it kept, after a same-size and a longer solve have reused the
    buffers: the scores of its last push and of its prefixes are its own."""
    prefixes = [n if m == "n" else m for m in prefixes]
    lengths = sorted({*prefixes, n})
    first = solve(d, n, seed, prefixes=prefixes)
    solve(d, n, seed, prefixes=prefixes)
    solve(d, 2 * n, seed)
    want = fingerprint(solve(d, n, seed, keep_theta=True), lengths)
    assert fingerprint(first, lengths) == want


def returned_arrays(solution):
    """Every array a streamed solution holds: alpha, the log normalizers and
    log Z, and its ell program's tops, endpoints, choices and kept answers."""
    dp = solution.path_dp
    arrays = [solution.alpha, solution.layer_lognorms, solution.log_partition,
              dp.tops, dp.ends, *dp.choices]
    for answer in dp.kept.values():
        arrays += answer
    return [a for a in arrays if isinstance(a, np.ndarray)]


@pytest.mark.parametrize("d,n", [(1, 24), (2, 12), (3, 9)])
@pytest.mark.parametrize("prefixes", [(), (3, 7), (3, 7, "n")], ids=["none", "inner", "with-n"])
def test_no_returned_array_shares_a_retained_buffer(d, n, prefixes):
    """A streamed beta=0 solution keeps no score layer, and none of its
    arrays, nor its prefixes', lies in this thread's retained mappings."""
    prefixes = [n if m == "n" else m for m in prefixes]
    sol = solve(d, n, (5, 6, 7), prefixes=prefixes)
    assert sol.path_dp.best is None
    assert all(answer is not None for answer in sol.path_dp.kept.values())
    flats = list(engine._RETAINED.flats.values())
    assert len(flats) == 4
    arrays = returned_arrays(sol)
    for m in sorted({*prefixes, n}):
        arrays += returned_arrays(sol.prefix(m))
    assert not [a for a in arrays for flat in flats if np.shares_memory(a, flat)]


def test_threads_get_the_serial_results():
    """Each thread keeps its own buffers: threads solving different sizes
    at once, switching every few microseconds, get what serial solves get."""
    cases = [(3, 14, 1), (3, 11, 2), (2, 30, (1, 2)), (1, 80, 3)]
    want = [fingerprint(solve(d, n, seed), [n]) for d, n, seed in cases]
    got = [[] for _ in cases]

    def work(i):
        d, n, seed = cases[i]
        for _ in range(15):
            got[i].append(fingerprint(solve(d, n, seed), [n]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(cases))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for runs, w in zip(got, want):
        assert len(runs) == 15 and all(run == w for run in runs)


def test_forked_workers_write_their_own_buffers():
    """The parent's buffers exist when the pool forks; each worker writes
    to its own private copy, so a parallel beta=0 run equals a serial one."""
    solve(3, 16, 1)
    cfg = ExperimentConfig(d=3, n=16, beta=0.0, law_spec="uniform:-1,1",
                           replications=3 * chunk_size(3, 16, 0.0), base_seed=4)
    serial = run_replications(cfg, workers=1)
    assert run_replications(cfg, workers=2) == serial


def test_a_warm_scaling_study_allocates_no_layer():
    """Warm, a beta=0 scaling study takes every working layer from the
    retained buffers and keeps no score layer: what it allocates is chiefly
    the packed choices (192 KiB), under 320 KiB.  Keeping the score layers
    of every n (35,937 cells at n=32, 281 KiB) peaked at 565 KiB, and
    allocating every working array anew at 1,526 KiB."""
    scaling_study(3, [8, 16, 32])
    tracemalloc.start()
    try:
        scaling_study(3, [8, 16, 32])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 320 << 10


def bound_object_bytes():
    """The bytes of every distinct array header, tuple and list that this
    thread's bound steps hold, each counted once, without array data."""
    seen, total, stack = set(), 0, list(engine._RETAINED.bound)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, engine.Step):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            total += sys.getsizeof(obj) - (obj.nbytes if obj.flags.owndata else 0)
        elif isinstance(obj, (tuple, list)):
            total += sys.getsizeof(obj)
            stack.extend(obj)
    return total


def assert_within_budget():
    """This thread's flats and bound steps fit in RETAINED_BYTES, and the
    bytes it counts for its bound steps cover what they hold."""
    retained = engine._RETAINED
    assert retained.bound_bytes >= bound_object_bytes()
    flats = sum(flat.nbytes for flat in retained.flats.values())
    assert flats + retained.bound_bytes <= engine.RETAINED_BYTES


def assert_warm_equals_stored(d, n, seed, prefixes=()):
    lengths = sorted({*prefixes, n})
    want = fingerprint(solve(d, n, seed, keep_theta=True), lengths)
    assert fingerprint(solve(d, n, seed, prefixes=prefixes), lengths) == want
    assert_within_budget()


@pytest.mark.parametrize("d,n", [(1, 24), (2, 12), (3, 9)])
def test_a_longer_solve_rebinds_the_steps_it_remaps(monkeypatch, d, n):
    """A longer solve outgrows the mappings and maps new ones; the steps
    bound on the old ones are bound again, so a shorter solve after it is
    still a stored solve's, bit for bit."""
    seed = (5, 6, 7)
    # a fresh set, mapped anew and sized for this solve
    monkeypatch.setattr(engine, "_RETAINED", engine._Retained())
    assert_warm_equals_stored(d, n, seed, (3, 7))
    before = dict(engine._RETAINED.flats)
    solve(d, 3 * n, seed)
    assert any(engine._RETAINED.flats[role] is not flat for role, flat in before.items())
    assert len(engine._RETAINED.bound) == 3 * n
    assert_warm_equals_stored(d, n, seed, (3, 7))
    assert_warm_equals_stored(d, 3 * n, seed)


def test_another_dimension_or_batch_rebinds():
    """The bound steps serve one d and batch at a time: a solve with
    another binds its own, and the first binds again after it."""
    assert_warm_equals_stored(3, 9, 5)
    for d, n, seed in [(2, 12, 5), (3, 9, (5, 6)), (3, 9, 5), (1, 40, (1, 2, 3)), (3, 9, 5)]:
        assert_warm_equals_stored(d, n, seed)
        assert engine._RETAINED.key == (d, engine.batch_shape(seed))


def test_the_default_scaling_grid_top_stays_within_the_budget():
    """At d=1, n=1024, the top of `polylab scaling`'s default grid, the
    bound steps take most of RETAINED_BYTES; a warm solve is still a
    stored one's."""
    assert_warm_equals_stored(1, 1024, 0, (512,))
    assert_warm_equals_stored(1, 1024, 0, (512,))


def test_steps_past_the_budget_are_bound_as_they_are_reached(monkeypatch):
    """With a budget that holds only some of the steps, the rest are bound
    anew in every solve, and every answer is still a stored solve's."""
    monkeypatch.setattr(engine, "RETAINED_BYTES", 1 << 20)
    # a fresh set, dropped with the budget when the test ends
    monkeypatch.setattr(engine, "_RETAINED", engine._Retained())
    assert_warm_equals_stored(1, 1024, (1, 2), (300, 900))
    assert 0 < len(engine._RETAINED.bound) < 1024
    assert_warm_equals_stored(1, 1024, (1, 2), (300, 900))
