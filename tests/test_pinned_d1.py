"""Pinned sha256 digests of d = 1 outputs: figure-1 records over several
chunks, whole solves in both domains (beta=100 sweeps in log space), the
one-layer solve, and records of a centered law away from 0.  The digests
were taken before the per-layer steps were planned once per solve; every
d = 1 value must stay the same bit for bit."""

import dataclasses
import hashlib

import numpy as np
import pytest

from polylab import harness
from polylab.engine import (LAYER_FIXED_BYTES, SOLVE_FIXED_BYTES, PolymerInstance,
                            draw_bytes, forward_backward, layer_theta, streamed_bytes)
from polylab.functionals import alpha_profile, ell
from polylab.harness import chunk_size, run_replications
from polylab.laws import make_uniform
from polylab.rng import replication_seed

LAW = make_uniform(-1.0, 1.0)


def records_digest(config):
    h = hashlib.sha256()
    for r in run_replications(config):
        h.update(np.int64(r.index).tobytes())
        h.update(np.array([r.rho, r.ell, r.log_partition]).tobytes())
    return h.hexdigest()


def several_chunks(monkeypatch, config, size):
    """Shrink the chunk budget to `size` replications per chunk."""
    monkeypatch.setattr(harness, "CHUNK_BYTES", SOLVE_FIXED_BYTES + config.n * LAYER_FIXED_BYTES
                        + draw_bytes(config.d, config.n, config.beta)
                        + size * streamed_bytes(config.d, config.n, config.beta))
    assert chunk_size(config.d, config.n, config.beta) == size


FIGURE1 = dataclasses.replace(harness.FIGURE1, replications=40)


def test_figure1_records_over_several_chunks(monkeypatch):
    several_chunks(monkeypatch, FIGURE1, 6)     # 6 x 6 + 4
    assert records_digest(FIGURE1) == \
        "e66f8e6956f10ddc7786dc548ed9e8ad7c3e62df5f84e8a9b6242c7506868dc4"


def test_centered_law_away_from_zero_records(monkeypatch):
    cfg = dataclasses.replace(FIGURE1, n=60, beta=2.0, law_spec="uniform:0,3",
                              centered=True, replications=24, base_seed=77)
    several_chunks(monkeypatch, cfg, 10)        # 10 + 10 + 4
    assert records_digest(cfg) == \
        "ef21dfa5774b79b1eaf76c5947a671f59c37c7c8313a665d164d87ecad0b58b5"


def solve_digest(n, beta, seed, keep_theta):
    """sha256 of everything a solve returns: log Z and the layer log
    normalizers, the theta and forward layers (stored) or alpha
    (streamed), and the ell scores and paths."""
    inst = PolymerInstance(d=1, n=n, beta=beta, law=LAW, seed=seed)
    sol = forward_backward(inst, keep_forward=keep_theta, keep_theta=keep_theta)
    h = hashlib.sha256()
    h.update(np.asarray(sol.log_partition, dtype=np.float64).tobytes())
    h.update(sol.layer_lognorms.tobytes())
    for t in sol.theta_layers + (sol.forward_layers or []):
        h.update(t.tobytes())
    h.update(alpha_profile(sol).tobytes())
    score, path = ell(sol)
    h.update(np.asarray(score, dtype=np.float64).tobytes())
    h.update(path.astype(np.int64).tobytes())
    return h.hexdigest()


SINGLE = 4242
BATCH = tuple(replication_seed(19, r) for r in range(5))

DIGESTS = {
    (0.0, "single", "stored"):
        "ac5a961e87cb7a0b62e97bd4fd00cedd67c61442e18fba44ffbb7cf769714e18",
    (0.0, "single", "streamed"):
        "9004be98557f717a4e2a1f4d62dad6717f072c70c501cbb444b35fde2198c56f",
    (0.0, "batch5", "stored"):
        "18c6139aae27ae22ab8d7099688a1c56ed5683b68b9e1b51fd635c5c3401a7b2",
    (0.0, "batch5", "streamed"):
        "903885154a73c9747830837438143aabfad9432b02a3eee788be48cef5c4b693",
    (3.0, "single", "stored"):
        "04798accc2992cbe6a629930b1389a3be1727527e15e0bac032238da83663fb4",
    (3.0, "single", "streamed"):
        "a25504b04a504b45604cf769c18df1937c5bc83c045a3f95ff087623a69a7620",
    (3.0, "batch5", "stored"):
        "1cecd681e3fbaa18141958e615e3f2a8ef8c221b4f1c81df914f69c02179da6f",
    (3.0, "batch5", "streamed"):
        "fad9af521a7da817be409ee939f9e3034e1ec852ad0272dd52c3af8a8e7eb5f7",
    (100.0, "single", "stored"):
        "3c2cf4e07e1bb694d70a0272834f8e75c5656df67f5a7dda079242de1dcf6e2d",
    (100.0, "single", "streamed"):
        "c5224fbe9efc74553d42e6fec8a55e677da6a765223fb3e0d3db8794e13efa1c",
    (100.0, "batch5", "stored"):
        "1876f21d6f732349af2ddd8903716f524f73ee4412c2fa9b828aa047df9e36f2",
    (100.0, "batch5", "streamed"):
        "bc6f817be2ed99c259c652fc9aed80259e293249c853072187debc5bdf402a74",
}


@pytest.mark.parametrize("keep_theta", [True, False], ids=["stored", "streamed"])
@pytest.mark.parametrize("seed", [SINGLE, BATCH], ids=["single", "batch5"])
@pytest.mark.parametrize("beta", [0.0, 3.0, 100.0])
def test_d1_solves_match_pinned_digests(beta, seed, keep_theta):
    key = (beta, "batch5" if isinstance(seed, tuple) else "single",
           "stored" if keep_theta else "streamed")
    assert solve_digest(50, beta, seed, keep_theta) == DIGESTS[key]


LAYER_DIGESTS = {
    3.0: "94e561b8efdc8e3e78a9a56679570b9a7d061acbf91b511cfb6a87ef6fb76376",
    100.0: "a3812e595e924e31dbeb79595a2483dfb4e12999185a5e8be4c59ecc8bf77a21",
}


@pytest.mark.parametrize("beta", [3.0, 100.0])
def test_layer_theta_matches_pinned_digest(beta):
    inst = PolymerInstance(d=1, n=30, beta=beta, law=LAW, seed=SINGLE)
    omega = np.random.default_rng(5).uniform(-1.0, 1.0, size=(3, 13))
    got = np.concatenate([layer_theta(inst, 12, omega).ravel(),
                          layer_theta(inst, 30, 0.0).ravel()])
    assert hashlib.sha256(got.tobytes()).hexdigest() == LAYER_DIGESTS[beta]


def test_figure1_chunk_choices_match_pinned_digest():
    """The ell program's packed choices of one figure-1 chunk (53
    replications), byte for byte: in d = 1 the one move mask is the choice
    bit, so the chunk's choice bytes and their memory do not move."""
    cfg = harness.FIGURE1
    seeds = tuple(replication_seed(cfg.base_seed, np.arange(53)))
    sol = forward_backward(cfg.instance(seeds, cfg.law), keep_forward=False, keep_theta=False)
    choices = sol.path_dp.choices
    assert [c.shape for c in choices] == [(53, 1, -(-(k + 1) // 8)) for k in range(2, 301)]
    h = hashlib.sha256()
    for c in choices:
        h.update(c.tobytes())
    assert h.hexdigest() == "a96a2ccdade6f4b50768799248ed00d049d97e03e7e64ebe05477ca9c891190f"
