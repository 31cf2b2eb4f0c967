"""Counter-based random number generation.

Every environment variable is a pure function of (seed, step, site), so the
disorder field never has to be materialized: layers can be regenerated on
demand (backward pass, finite differences, layer resampling) and distinct
instances can run in parallel without shared state.

The mixer is the SplitMix64 finalizer applied sequentially to the 64-bit
words (seed, k+1, x_1, ..., x_d), each word pre-multiplied by the golden
ratio constant before being folded in.  counter_uniform takes the site
coordinates as d arrays that broadcast to the sites' shape, so a layer is
drawn at its coordinate arrays (lattice.layer_coords), each of which spans
only the cube axes it depends on, and only the mixed state has one word
per site.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

GOLDEN = np.uint64(0x9E3779B97F4A7C15)

_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_SH1 = np.uint64(30)
_SH2 = np.uint64(27)
_SH3 = np.uint64(31)

_MASK64 = 0xFFFFFFFFFFFFFFFF
_U53 = 2.0 ** -53
_SHIFT11 = np.uint64(11)


def as_int(what: str, v) -> int:
    """v as a Python int; TypeError for a bool or a non-integer, which int()
    would silently turn into another value.  The one integer rule: the sizes,
    seeds (through as_seed), steps and site coordinates of a
    PolymerInstance, kappa's d and replication_seed's base seed (through
    as_seed) and index read through it."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise TypeError(f"{what} must be an int, got {v!r}")
    return int(v)


def as_seed(what: str, v) -> int:
    """v as a seed: an int by as_int that one 64-bit word holds, in
    [-2**63, 2**64); ValueError outside it, where masking to 64 bits would
    alias another seed (2**64 would solve seed 0).  A negative seed is its
    two's-complement word, so -1 solves as 2**64 - 1."""
    v = as_int(what, v)
    if not -(1 << 63) <= v <= _MASK64:
        raise ValueError(f"{what} must lie in [-2**63, 2**64), got {v}")
    return v


def _finalize(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer applied in place to a uint64 array."""
    z ^= z >> _SH1
    z *= _MUL1
    z ^= z >> _SH2
    z *= _MUL2
    z ^= z >> _SH3
    return z


def splitmix64(z):
    """SplitMix64 finalizer (xor-shift-multiply), elementwise on uint64 arrays."""
    return _finalize(np.array(z, dtype=np.uint64))


def _as_word(w):
    """Encode a Python int or int64 array as a two's-complement uint64."""
    a = np.asarray(w)
    if a.dtype == np.uint64:
        return a
    return a.astype(np.int64, copy=False).view(np.uint64)


def _seed_words(seed) -> np.ndarray:
    """A seed, or a sequence or integer array of seeds, as uint64 words."""
    if isinstance(seed, np.ndarray):
        return _as_word(seed)
    if isinstance(seed, (tuple, list)):
        return np.array([int(s) & _MASK64 for s in seed], dtype=np.uint64)
    return np.asarray(np.uint64(int(seed) & _MASK64))


def mix_words(seed, *words):
    """Fold a sequence of 64-bit words into a single mixed uint64 state.

    seed may be one seed or a sequence/array of seeds.  Broadcasting applies
    across the seed and the words, so passing coordinate arrays yields one
    state per site.
    """
    state = _seed_words(seed)
    for w in words:
        state = _finalize(np.asarray(state ^ (_as_word(w) * GOLDEN)))
    return state


def derive_seed(seed, *words) -> int:
    """Deterministic sub-seed from a parent seed and integer tags."""
    return int(mix_words(seed, *words))


# The sweeps draw the steps of one seed tuple in runs of consecutive k, so
# the keys mix_words(seed, k + 1) are mixed _KEY_BLOCK steps at a time: one
# finalizer pass over a block makes the calls of one key.  The cache keeps
# the last block, _KEY_BLOCK words per seed.
_KEY_BLOCK = 8


@lru_cache(maxsize=1)
def _key_block(seed, first: int) -> np.ndarray:
    """mix_words(seed, j) for j = first, ..., first + _KEY_BLOCK - 1, on the
    leading axis, read-only."""
    steps = np.arange(first, first + _KEY_BLOCK, dtype=np.uint64)
    keys = mix_words(seed, steps.reshape((-1, 1) if isinstance(seed, tuple) else -1))
    keys.flags.writeable = False
    return keys


def _key(seed, j: int) -> np.ndarray:
    """mix_words(seed, j), from a cached block when the seed is an int or a
    tuple and j >= 0 (a step's j = k + 1 is)."""
    if isinstance(seed, (int, tuple)) and j >= 0:
        return _key_block(seed, j - j % _KEY_BLOCK)[j % _KEY_BLOCK, ...]
    return mix_words(seed, j)


def counter_uniform(seed, k, coords):
    """Uniform [0,1) variates keyed by (seed, step k, site coordinates).

    coords: the coordinates x_1, ..., x_d of the sites, a sequence of
    d >= 1 integer arrays (or ints) that broadcast to one shape, with one
    variate per entry of that shape: a layer's lattice.layer_coords, or
    tuple(sites.T) for an (N, d) array of sites.  An ndarray is refused
    with TypeError, since it would be read as one coordinate per row.
    seed: one seed, or a sequence/array of seeds of shape S, which
    prepends S to the output shape.  Identical keys always give identical
    output.

    This is mix_words(seed, k + 1, x_1, ..., x_d) per site, with the key
    mix_words(seed, k + 1) mixed once for all sites (and, through _key,
    once for a block of steps).  Each word x_j * golden is made at x_j's
    own shape and broadcast into the state, so a layer drawn at its
    coordinate arrays holds no coordinate array of the layer's size in
    d <= 3.
    """
    if isinstance(coords, np.ndarray):
        raise TypeError("counter_uniform takes a tuple of coordinate arrays, "
                        "tuple(sites.T) for an (N, d) array of sites")
    if len(coords) == 0:                # the fold would leave the state unset
        raise ValueError("counter_uniform needs at least one site coordinate")
    key = _key(seed, k + 1)
    state = np.empty(key.shape + np.broadcast(*coords).shape, dtype=np.uint64)
    mixed = key.reshape(key.shape + (1,) * (state.ndim - key.ndim))
    for x in coords:                    # the first word fills the state
        mixed = _finalize(np.bitwise_xor(mixed, _as_word(x) * GOLDEN, out=state))
    state >>= _SHIFT11                  # in place: a layer's draw holds 2 arrays
    out = state.astype(np.float64)
    out *= _U53
    return out


def replication_seed(base_seed: int, r):
    """Seed for replication r: finalizer of base_seed + r * golden.  For an
    integer array r, the list of the seeds of its entries.  base_seed
    follows as_seed and an r that is not an array as_int; an array r needs
    an integer dtype (not bool), and an index outside the uint64 range
    0..2**64-1 raises ValueError."""
    base = np.asarray(as_seed("base_seed", base_seed) & _MASK64, dtype=np.uint64)
    if not isinstance(r, np.ndarray):
        r = as_int("replication index", r)
    elif not np.issubdtype(r.dtype, np.integer):
        raise TypeError(f"replication indices must be integers, got dtype {r.dtype}")
    if np.any(r < 0) or np.any(r > _MASK64):
        raise ValueError("replication indices must lie in 0..2**64-1")
    return splitmix64(base + np.asarray(r, dtype=np.uint64) * GOLDEN).tolist()
