"""A deterministic guard on the streamed sweep's per-layer fixed cost.

Wall-clock times of the figure-1 run spread by several percent between
runs of the same code, but the number of Python-level calls a solve makes
does not.  A figure-1 chunk solve is bound by those calls (a solve of one
replication costs over a third of one of 53), so a change that adds calls
per layer shows here first, as a failed count, not as noise in the
benchmark.  A warm beta=0 scaling study, whose steps are bound once on
retained buffers, has a budget of its own."""

import cProfile
import pstats

import pytest

from polylab.engine import PolymerInstance, forward_backward, segment_tops
from polylab.harness import scaling_study
from polylab.laws import make_uniform
from polylab.rng import replication_seed

# Python-level calls (cProfile's total) of one streamed figure-1 solve of
# 53 replications after a solve that fills the caches: 59,883 before the
# per-layer steps were planned once per solve, 42,005 after; 43,188 with
# each layer's sites read from a cache, 40,792 with each layer drawn at its
# coordinate arrays (lattice.layer_coords; Python 3.11, numpy 2.4.6);
# 41,691 before, and 41,391 after, every neighbour sum on a step not bound
# on retained buffers went through engine._stencil.  The budget leaves 10%
# of headroom.
CALL_BUDGET = 44_871

# Python-level calls of a warm scaling_study(3, [8, 16, 32]), whose solve
# reuses the steps it bound on retained buffers (engine._Retained): 2,887
# when every layer looked its views up anew, 1,270 with the steps bound
# once, and 1,269 both before and after the unbound sums went through
# engine._stencil, since every step here is bound.  The budget leaves 10%
# of headroom.
SCALING_CALL_BUDGET = 1_397


def test_streamed_figure1_solve_stays_within_its_call_budget():
    inst = PolymerInstance(d=1, n=300, beta=3.0, law=make_uniform(-1.0, 1.0),
                           seed=tuple(replication_seed(20250823, r) for r in range(53)))
    forward_backward(inst, keep_forward=False, keep_theta=False)
    profile = cProfile.Profile()
    profile.enable()
    try:
        forward_backward(inst, keep_forward=False, keep_theta=False)
    finally:
        profile.disable()
    calls = pstats.Stats(profile).total_calls
    assert calls <= CALL_BUDGET, f"{calls} calls, budget {CALL_BUDGET}"


def test_warm_scaling_study_stays_within_its_call_budget():
    scaling_study(3, [8, 16, 32])
    profile = cProfile.Profile()
    profile.enable()
    try:
        scaling_study(3, [8, 16, 32])
    finally:
        profile.disable()
    calls = pstats.Stats(profile).total_calls
    assert calls <= SCALING_CALL_BUDGET, f"{calls} calls, budget {SCALING_CALL_BUDGET}"


def engine_calls(solve, module: str = "engine.py") -> dict:
    """Calls of each function of the polylab module (engine by default)
    during solve()."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        solve()
    finally:
        profile.disable()
    return {name: calls for (path, _, name), (_, calls, *_) in pstats.Stats(profile).stats.items()
            if path.endswith("polylab/" + module)}


@pytest.mark.parametrize("keep_theta", [True, False], ids=["stored", "streamed"])
def test_beta0_solve_runs_only_the_forward_stencil(keep_theta):
    """A beta=0 backward layer is constant, so theta_k is F_k and a solve
    makes no backward layer: n calls of engine._sum, one per forward step,
    and none of engine._backward_step, where the array sweeps made 2n - 1
    sums stored and, with their recompute, 90 streamed at n = 32."""
    inst = PolymerInstance(d=3, n=32, beta=0.0, law=make_uniform(-1.0, 1.0), seed=5)
    counts = engine_calls(lambda: forward_backward(inst, keep_forward=False,
                                                   keep_theta=keep_theta))
    assert counts["_sum"] == inst.n
    assert "_backward_step" not in counts


def test_streamed_solve_recomputes_no_layer_below_the_lowest_top():
    """The first backward sweep keeps every layer below segment_tops' lowest
    top as a checkpoint, so a streamed solve recomputes only the segments
    above it: at figure 1 (lowest top 49, 20 segments), 299 + 232 backward
    steps, where recomputing the lowest segment too made 299 + 280."""
    inst = PolymerInstance(d=1, n=300, beta=3.0, law=make_uniform(-1.0, 1.0), seed=5)
    tops = segment_tops(1, 300)
    assert (tops[0], len(tops)) == (49, 20)
    counts = engine_calls(lambda: forward_backward(inst, keep_forward=False, keep_theta=False))
    assert counts["_backward_step"] == 299 + (300 - 20) - (49 - 1) == 531


def test_beta0_scaling_study_is_one_sweep():
    """A beta=0 solve of length n is the first n layers of a longer one, so
    scaling_study solves only its largest n: one forward_backward call and
    32 forward steps for the grid 8, 16, 32, where a solve per n made 3
    calls and 8 + 16 + 32 = 56 steps."""
    counts = engine_calls(lambda: scaling_study(3, [8, 16, 32]))
    assert (counts["forward_backward"], counts["_sum"]) == (1, 32)


def test_scaling_study_backtracks_without_site_lookups():
    """PathDP.result walks each path back in cube coordinates and turns
    them into sites once: scaling_study(3, [8, 16, 32]) makes no
    lattice.site_cells call, where a step-by-step lookup made 7 + 15 + 31 =
    53, and one cell_sites call per path, for its tied endpoints."""
    counts = engine_calls(lambda: scaling_study(3, [8, 16, 32]), "lattice.py")
    assert "site_cells" not in counts
    assert counts["cell_sites"] == counts["result"] == 3
