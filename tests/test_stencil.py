"""The neighbour stencil: the engine's neighbour sums and the ell program
against the windowed loops they replaced, bit for bit, and pinned digests of
whole solves in d = 2 and 3."""

import hashlib

import numpy as np
import pytest

from polylab.engine import PolymerInstance, _log_sum, _sum, forward_backward
from polylab.functionals import alpha_profile, ell
from polylab.lattice import PathDP, bind, layer_shape, step_geometry
from polylab.laws import make_uniform
from polylab.rng import replication_seed

from stencil_windows import step_windows

LAW = make_uniform(-1.0, 1.0)


# The windowed stencil: every step is a d-dimensional view of the step-k
# layer, from the window rule of stencil_windows.  These are the reference
# for the engine's stencil.

def windowed_neighbor_sum(layer, d, k, up):
    if up:
        (_, first), *rest = step_windows(d, k)
        out = np.zeros(layer.shape[:-d] + layer_shape(d, k))
        out[first] = layer
        for _, window in rest:
            out[window] += layer
        return out
    (_, first), *rest = step_windows(d, k + 1)
    out = layer[first].copy()
    for _, window in rest:
        out += layer[window]
    return out


def windowed_log_neighbor_sum(layer, d, k, up):
    shape = layer.shape[:-d] + layer_shape(d, k)
    if up:
        terms = [(window, layer) for _, window in step_windows(d, k)]
    else:
        terms = [(..., layer[window]) for _, window in step_windows(d, k + 1)]
    top = np.full(shape, -np.inf)
    for window, term in terms:
        np.maximum(top[window], term, out=top[window])
    np.copyto(top, 0.0, where=top == -np.inf)
    total = np.zeros(shape)
    scaled = np.empty(terms[0][1].shape)
    for window, term in terms:
        np.subtract(term, top[window], out=scaled)
        total[window] += np.exp(scaled, out=scaled)
    with np.errstate(divide="ignore"):
        np.log(total, out=total)
    total += top
    return total


class WindowedPathDP(PathDP):
    def push(self, field):
        d = self.d
        self.n = k = self.n + 1
        layer = field.reshape((self.batch,) + layer_shape(d, k))
        moves = sorted(step_windows(d, k))
        score = np.full(layer.shape, -np.inf)
        # mask c - 1: the cells where move c beats moves 0..c-1
        masks = np.zeros((len(moves) - 1,) + score.shape, dtype=bool)
        for c, (_, window) in enumerate(moves):
            if c == 0:
                score[window] = self.best
                continue
            masks[c - 1][window] = self.best > score[window]
            np.maximum(score[window], self.best, out=score[window])
        score += layer
        if k > 1:
            bits = masks.reshape(len(moves) - 1, self.batch, -1).swapaxes(0, 1)
            self.choices.append(np.packbits(bits, axis=-1))
        self.best = score


def sparse_layer(rng, shape, log):
    """Positive masses with about a third of the cells 0 (log-masses: -inf),
    and one exact 0 (log: -inf) in every row."""
    layer = rng.random(shape) * (rng.random(shape) < 0.67)
    layer.reshape(shape[0] if len(shape) > 1 else 1, -1)[:, 0] = 0.0
    if log:
        with np.errstate(divide="ignore"):
            layer = np.log(layer) * 30.0
    return layer


def assert_bits_equal(got, want):
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("d,ks", [(1, (1, 2, 7, 30)), (2, (1, 2, 5, 11)),
                                  (3, (1, 2, 4, 7)), (4, (1, 2, 3, 5))])
@pytest.mark.parametrize("lead", [(), (3,)], ids=["single", "batch3"])
@pytest.mark.parametrize("log", [False, True], ids=["mass", "log"])
@pytest.mark.parametrize("up", [True, False], ids=["up", "down"])
def test_neighbor_sums_match_windowed_reference(d, ks, lead, log, up):
    new = _log_sum if log else _sum
    ref = windowed_log_neighbor_sum if log else windowed_neighbor_sum
    rng = np.random.default_rng([d, len(lead), log, up])
    for k in ks:
        # up: step k-1 to step k, into step k bound as the forward sweep
        # binds it; down: step k+1 to step k
        layer = sparse_layer(rng, lead + layer_shape(d, k - 1 if up else k + 1), log)
        bound = bind(step_geometry(d, k), lead) if up else None
        with np.errstate(invalid="raise", over="raise"):
            got = new(layer, lead, step_geometry(d, k),
                      step_geometry(d, k + (not up)), up, bound)
        assert_bits_equal(got, ref(layer, d, k, up))


@pytest.mark.parametrize("d,n", [(1, 12), (2, 7), (3, 5), (4, 4)])
@pytest.mark.parametrize("lead", [(), (3,)], ids=["single", "batch3"])
def test_path_dp_matches_windowed_reference(d, n, lead):
    """Scores and packed choices, bit for bit, on fields with many ties."""
    rng = np.random.default_rng([d, n, len(lead)])
    new, ref = PathDP(d, lead), WindowedPathDP(d, lead)
    for k in range(1, n + 1):
        field = rng.integers(0, 3, size=lead + layer_shape(d, k)) / 4.0
        new.push(field)
        ref.push(field)
        assert_bits_equal(new.best, ref.best)
    assert len(new.choices) == len(ref.choices)
    for a, b in zip(new.choices, ref.choices):
        assert_bits_equal(a, b)


def solve_digest(d, n, beta, seed, keep_theta):
    """sha256 of everything a solve returns: log Z and the layer log
    normalizers, the theta layers (stored) or alpha (streamed), and the
    ell scores and paths."""
    inst = PolymerInstance(d=d, n=n, beta=beta, law=LAW, seed=seed)
    sol = forward_backward(inst, keep_forward=False, keep_theta=keep_theta)
    h = hashlib.sha256()
    h.update(np.asarray(sol.log_partition, dtype=np.float64).tobytes())
    h.update(sol.layer_lognorms.tobytes())
    for t in sol.theta_layers:
        h.update(t.tobytes())
    h.update(alpha_profile(sol).tobytes())
    score, path = ell(sol)
    h.update(np.asarray(score, dtype=np.float64).tobytes())
    h.update(path.astype(np.int64).tobytes())
    return h.hexdigest()


SINGLE = 4242
BATCH = tuple(replication_seed(17, r) for r in range(3))

# Digests of the windowed stencil's solves; beta=100 sweeps in log space,
# and at beta=0 each theta_k is the forward layer F_k.
DIGESTS = {
    (2, 0.0, "single", "stored"):
        "7072bffbcb30c33decb510e00b0c0115ae6f976c6f18ced40cf7469610c444d9",
    (2, 0.0, "single", "streamed"):
        "1cd6b3027351a18c2c63683216fc22d0552ecc2e1c375f031197c238db5d3aec",
    (2, 0.0, "batch3", "stored"):
        "68d0bd866beb59f7a12362da2daf697829c9c6bcec283bfdfa0ea3730f280b33",
    (2, 0.0, "batch3", "streamed"):
        "ee4dd155fa663f0dbeb123073321bdb20c440b94ac04191f2ccbf7a7978d4aeb",
    (2, 3.0, "single", "stored"):
        "397565adb37e66e227f9e14e8ac00e2186919f7315e9a322e0e16f6270df0d2b",
    (2, 3.0, "single", "streamed"):
        "45ed938eaa9c7300d7bf8a095e53758f07ab37e6ad5cf674138bd4e5801699c9",
    (2, 3.0, "batch3", "stored"):
        "5791a0eed781d0efb5509ccc86f210c383a3957df924e4881c54b5b1128c1edb",
    (2, 3.0, "batch3", "streamed"):
        "9f68ff41add3243bc0dff04b91ca80366edadcf2d35012489b0ba4112d6b4c54",
    (2, 100.0, "single", "stored"):
        "a4ecff0f055866ba8540ae9f2396979adaef352337e9ff870833da018a37e816",
    (2, 100.0, "single", "streamed"):
        "acd3cfde568c9653120da9ee7d3558636590a93011e242db5f249dc91d299715",
    (2, 100.0, "batch3", "stored"):
        "9824de1012ae8be2078a043cebd2827f3311de58c2031ed6d786a1bd70ddb154",
    (2, 100.0, "batch3", "streamed"):
        "8b0cbc3d4cbf90ccfd78b908a954c7574c6dcae48f34481631c1458025a8da92",
    (3, 0.0, "single", "stored"):
        "e1854a1bf5e4d318e3e82f7165008323cc9f02814d322e5db1a76ae8bd88eeed",
    (3, 0.0, "single", "streamed"):
        "d7b4f9b061bc1dc959d53b9dffab14d72a7914c26fde13ea90c46bb9d3ea263d",
    (3, 0.0, "batch3", "stored"):
        "5113ac1babb3bd26ad9a8d03f8d82ee3996c2a244d236ac84e4bc655eb3c55d6",
    (3, 0.0, "batch3", "streamed"):
        "cd540aa894dfd052775a1a1ae4c22d71c1a8e4f851d9685ee06ad4e4e69b9121",
    (3, 3.0, "single", "stored"):
        "4a8c58a0d644955182bb804ccb44d2e05873c1af030206ff5a888337691103b9",
    (3, 3.0, "single", "streamed"):
        "12ae790f0d81a00a7e41915f6a210e954b4cc1d0107338766ae161e1015fa84d",
    (3, 3.0, "batch3", "stored"):
        "d183cd1c626d05f5f17ead244eaad69e353f73a602f3c2c7ad85d5bc39004b6b",
    (3, 3.0, "batch3", "streamed"):
        "fc86a6d4f88f1a38096eda5fb48e287f3d0d8c02dbe6c0695ba009dc43c96667",
    (3, 100.0, "single", "stored"):
        "222adf325d23aad31914dc656818dd643f010e1075bb3522f957cb09ad27e107",
    (3, 100.0, "single", "streamed"):
        "4149558300ef0241f5e96ca08863ba08e890825c4fb32a5ca7ce54dda34d8f4a",
    (3, 100.0, "batch3", "stored"):
        "ed7ec219a8a893189324d3b430d6119a3466e852b3ef5dcec3883d7687422410",
    (3, 100.0, "batch3", "streamed"):
        "921c5c3fe2788f5770b67821aa6291a1c9084dd83e7b4da0032656cc6aa8c2c0",
}


@pytest.mark.parametrize("keep_theta", [True, False], ids=["stored", "streamed"])
@pytest.mark.parametrize("seed", [SINGLE, BATCH], ids=["single", "batch3"])
@pytest.mark.parametrize("beta", [0.0, 3.0, 100.0])
@pytest.mark.parametrize("d,n", [(2, 9), (3, 6)])
def test_solves_match_pinned_digests(d, n, beta, seed, keep_theta):
    key = (d, beta, "batch3" if isinstance(seed, tuple) else "single",
           "stored" if keep_theta else "streamed")
    assert solve_digest(d, n, beta, seed, keep_theta) == DIGESTS[key]
