"""Counter RNG: determinism, key separation, and distribution quality."""

import numpy as np
import pytest

from polylab import lattice, rng
from polylab.rng import (counter_uniform, derive_seed, mix_words,
                         replication_seed, splitmix64)


def test_splitmix_finalizer_bijective_on_samples():
    xs = np.arange(10_000, dtype=np.uint64)
    ys = splitmix64(xs)
    assert len(set(ys.tolist())) == xs.size


def test_counter_uniform_deterministic():
    coords = tuple(np.array([[3, -2], [0, 0], [-5, 1]], dtype=np.int64).T)
    a = counter_uniform(42, 7, coords)
    b = counter_uniform(42, 7, coords)
    np.testing.assert_array_equal(a, b)


def test_counter_uniform_range_and_key_separation():
    coords = (np.arange(-500, 500, dtype=np.int64),)
    u1 = counter_uniform(1, 3, coords)
    u2 = counter_uniform(1, 4, coords)
    u3 = counter_uniform(2, 3, coords)
    assert np.all((u1 >= 0) & (u1 < 1))
    assert not np.array_equal(u1, u2)
    assert not np.array_equal(u1, u3)


def test_counter_uniform_negative_coords_distinct():
    a = counter_uniform(0, 1, (np.array([-1], dtype=np.int64),))
    b = counter_uniform(0, 1, (np.array([1], dtype=np.int64),))
    assert a[0] != b[0]


def test_counter_uniform_mean_clt_band():
    """Mean of 10^6 distinct keys sits in the 4-sigma CLT band around 1/2."""
    coords = (np.arange(1_000_000, dtype=np.int64),)
    u = counter_uniform(987654321, 5, coords)
    se = np.sqrt(1.0 / 12.0 / u.size)
    assert abs(u.mean() - 0.5) < 4 * se


def test_replication_seeds_distinct():
    seeds = [replication_seed(2024, r) for r in range(1000)]
    assert len(set(seeds)) == 1000


def test_replication_seed_takes_numpy_integer_base_seeds():
    for r in (0, 1, 7):
        assert replication_seed(np.int64(5), r) == replication_seed(5, r)


@pytest.mark.parametrize("base", [5.0, True])
def test_replication_seed_refuses_non_integer_base_seeds(base):
    """int() would turn each of these into the base seed 5 or 1."""
    with pytest.raises(TypeError, match="base_seed must be an int"):
        replication_seed(base, 0)


@pytest.mark.parametrize("r", [1.5, True, np.float64(1.0), "1", [0, 1],
                               np.array([0.5]), np.array([True])])
def test_replication_seed_refuses_non_integer_indices(r):
    """An index follows the integer rule: 1.5 and True drew the seed of
    r = 1, and np.array([0.5]) that of r = 0."""
    with pytest.raises(TypeError, match="replication ind"):
        replication_seed(5, r)


@pytest.mark.parametrize("r", [-1, np.int64(-1), np.array([-1]), np.array([3, -2])])
def test_replication_seed_refuses_negative_indices(r):
    """-1 raised a bare OverflowError, and np.array([-1]) wrapped around to
    the seed of r = 2**64 - 1."""
    with pytest.raises(ValueError, match=r"0\.\.2\*\*64-1"):
        replication_seed(5, r)


@pytest.mark.parametrize("r", [2 ** 64, 2 ** 70])
def test_replication_seed_refuses_indices_past_uint64(r):
    """2**64 raised a bare OverflowError from numpy."""
    with pytest.raises(ValueError, match=r"0\.\.2\*\*64-1"):
        replication_seed(5, r)


def test_replication_seed_takes_the_largest_index():
    assert replication_seed(5, 2 ** 64 - 1) == replication_seed(
        5, np.array([2 ** 64 - 1], dtype=np.uint64))[0]


def test_replication_seed_takes_numpy_integer_indices():
    assert replication_seed(5, np.int64(3)) == replication_seed(5, 3)
    for dtype in (np.int32, np.uint8, np.uint64):
        assert replication_seed(5, np.arange(4, dtype=dtype)) == replication_seed(
            5, np.arange(4))


def test_derive_seed_order_sensitive():
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)


def test_mix_words_broadcasts():
    ws = np.arange(8, dtype=np.int64)
    out = mix_words(5, ws)
    assert out.shape == (8,)
    assert len(set(out.tolist())) == 8


# The fold counter_uniform replaced, written out here: SplitMix64 on the
# uint64 words (seed, k+1, x_1, ..., x_d), each word times the golden
# ratio constant, then the top 53 bits of the state as a float.

_MASK = (1 << 64) - 1


def reference_finalize(z):
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def reference_uniform(seed, k, coords):
    coords = np.asarray(coords, dtype=np.int64)
    key = mix_words(seed, k + 1)
    sites = coords.shape[:-1]
    state = np.empty(key.shape + sites, dtype=np.uint64)
    np.copyto(state, key.reshape(key.shape + (1,) * len(sites)))
    for j in range(coords.shape[-1]):
        with np.errstate(over="ignore"):       # a single site's words are scalars
            state ^= coords[..., j].view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        reference_finalize(state)
    state >>= np.uint64(11)
    out = state.astype(np.float64)
    out *= 2.0 ** -53
    return out


def test_mix_words_matches_the_reference_fold():
    seeds = np.array([0, 1, 2 ** 63, _MASK, 12345], dtype=np.uint64)
    z = seeds ^ np.uint64((7 * 0x9E3779B97F4A7C15) & _MASK)
    np.testing.assert_array_equal(mix_words(seeds, 7), reference_finalize(z))


@pytest.mark.parametrize("base", [0, -1, 2 ** 64 - 1])
def test_replication_seed_array_is_the_per_index_loop(base):
    """One call over an integer array gives the list of the per-index seeds,
    for r in 0..999 and near 2**63, where r * golden wraps; each is the
    finalizer of base + r * golden mod 2**64."""
    near = np.array([2 ** 63 - 2, 2 ** 63 - 1, 2 ** 63, 2 ** 63 + 1], dtype=np.uint64)
    for rs in (np.arange(1000), near):
        got = replication_seed(base, rs)
        assert type(got) is list and all(type(s) is int for s in got)
        assert got == [replication_seed(base, int(r)) for r in rs]
    for r in near.tolist():
        z = np.array([(base + r * 0x9E3779B97F4A7C15) & _MASK], dtype=np.uint64)
        assert replication_seed(base, r) == int(reference_finalize(z)[0])


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [987, -5, (3, 2 ** 64 - 1, -7),
                                  np.array([11, 2 ** 40], dtype=np.int64)],
                         ids=["int", "negative-int", "tuple", "ndarray"])
def test_counter_uniform_matches_reference_fold(d, seed):
    """Bit for bit, on negative coordinates, on a layer's coordinate arrays
    (lattice.layer_coords, which broadcast to the layer: in d = 1 one of
    more than 1024 sites), on (N, d) arrays of sites passed as
    tuple(sites.T), and on one site passed as its tuple."""
    k = {1: 1029, 2: 40, 3: 11, 4: 6}[d]
    coords = lattice.layer_coords(d, k)
    sites = np.stack(np.broadcast_arrays(*coords), axis=-1)
    assert sites.min() < 0 and sites.size == d * (k + 1) ** d
    if d == 1:
        assert sites.shape[0] > 1024
    for got_coords, want_coords in ((coords, sites),
                                    (tuple(sites.reshape(-1, d)[::7].T), sites.reshape(-1, d)[::7]),
                                    (tuple(sites.reshape(-1, d)[0]), sites.reshape(-1, d)[0])):
        got = counter_uniform(seed, k, got_coords)
        want = reference_uniform(seed, k, want_coords)
        assert type(got) is type(want) is np.ndarray
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("coords", [(), [], tuple(np.empty((0, 5), dtype=np.int64))])
def test_counter_uniform_refuses_sites_without_coordinates(coords):
    """No coordinate array leaves the fold's state unset, so it is refused
    rather than read."""
    with pytest.raises(ValueError, match="at least one site coordinate"):
        counter_uniform(1, 2, coords)



def test_counter_uniform_refuses_an_array_of_sites():
    """An (N, d) array would be read as N coordinates of d sites each and
    give d variates of a wrong key; tuple(sites.T) is the site form."""
    sites = np.array([[3, -2], [0, 0], [-5, 1]])
    with pytest.raises(TypeError, match=r"tuple\(sites\.T\)"):
        counter_uniform(1, 2, sites)
    with pytest.raises(TypeError, match=r"tuple\(sites\.T\)"):
        counter_uniform(1, 2, np.arange(3))
    assert counter_uniform(1, 2, tuple(sites.T)).shape == (3,)

def test_key_cache_is_bounded_read_only_and_the_fold():
    """The keys of a block of steps are mixed at once and the last block is
    kept: one block, read-only, and bit for bit mix_words across block
    edges and for every seed kind."""
    assert rng._key_block.cache_info().maxsize == 1
    block = rng._key_block((4, 5, 6), 8)
    assert block.shape == (rng._KEY_BLOCK, 3) and not block.flags.writeable
    for seed in (9, -9, (4, 5, 6), np.array([4, 5, 6]), [4, 5, 6]):
        for j in (0, 1, 7, 8, 9, 15, 16, 301):
            assert rng._key(seed, j).tobytes() == mix_words(seed, j).tobytes()
    assert rng._key(9, -3).tobytes() == mix_words(9, -3).tobytes()
    u = counter_uniform((4, 5, 6), 7, (np.array([1, 3]),))
    u[:] = 0.5                       # the caller owns the variates
    assert not np.array_equal(counter_uniform((4, 5, 6), 7, (np.array([1, 3]),)), u)
