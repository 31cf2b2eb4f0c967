"""Nearest-neighbor path geometry on Z^d.

Paths of length n start at the origin, which is omitted: a path is the
sequence of its n visited sites.  The site visited at step k lies in the
parity cone |x|_1 <= k, |x|_1 = k (mod 2).

Internally the engine works with dense per-layer boxes [-k, k]^d; sites
outside the cone simply carry zero mass.  This module provides the
coordinate-level helpers: neighbor enumeration, cone iteration and masks,
path validation, and overlap counting.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterator, Tuple

import numpy as np

Site = Tuple[int, ...]


def neighbors(x: Site):
    """The 2d sites at L1 distance 1 from x, in lexicographic order."""
    out = []
    for j in range(len(x)):
        for s in (-1, 1):
            y = list(x)
            y[j] += s
            out.append(tuple(y))
    out.sort()
    return out


def step_vectors(d: int) -> np.ndarray:
    """All 2d unit steps as an (2d, d) int array, lexicographically sorted."""
    vecs = []
    for j in range(d):
        for s in (-1, 1):
            v = [0] * d
            v[j] = s
            vecs.append(v)
    return np.array(sorted(vecs), dtype=np.int64)


@lru_cache(maxsize=4096)
def step_windows(d: int, m: int):
    """The 2d unit steps v, each with the window that applies it to boxes.

    window indexes the trailing d axes of a box of side m + 2 (leading axes
    are kept): it is the sub-box of side m whose site x lines up with site
    x + v of a box of side m, both boxes centred on the origin.  So
    ``big[window] += small`` adds small[x + v] into big[x], and
    ``small += big[window]`` adds big[x - v] into small[x].  Pairs come in
    axis order, +e_j before -e_j; every neighbour sum adds them in this
    order, which fixes its floating-point rounding.
    """
    out = []
    for j in range(d):
        for off in (0, 2):
            v = [0] * d
            v[j] = 1 - off
            window = (Ellipsis,) + tuple(
                slice(off, off + m) if a == j else slice(1, m + 1) for a in range(d))
            out.append((tuple(v), window))
    return tuple(out)


def reachable_sites(d: int, k: int) -> Iterator[Site]:
    """All sites reachable at step k: |x|_1 <= k with the parity of k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    for x in product(range(-k, k + 1), repeat=d):
        s = sum(abs(c) for c in x)
        if s <= k and (s - k) % 2 == 0:
            yield x


def is_reachable(x: Site, k: int) -> bool:
    s = sum(abs(c) for c in x)
    return s <= k and (s - k) % 2 == 0


def layer_mask(d: int, k: int) -> np.ndarray:
    """Boolean mask over the box [-k, k]^d of step-k reachable sites."""
    axes = np.ogrid[tuple(slice(-k, k + 1) for _ in range(d))]
    l1 = sum(np.abs(a) for a in axes)
    return (l1 <= k) & ((l1 - k) % 2 == 0)


def validate_path(path: np.ndarray, d: int) -> None:
    """Check the path invariants; raise ValueError on the first violation.

    path: integer array of shape (n, d), sites for steps 1..n.
    """
    path = np.asarray(path)
    if path.ndim != 2 or path.shape[1] != d:
        raise ValueError(f"path must have shape (n, {d}), got {path.shape}")
    n = path.shape[0]
    if n < 1:
        raise ValueError("path must have at least one site")
    if np.abs(path[0]).sum() != 1:
        raise ValueError("first site must be adjacent to the origin")
    steps = np.abs(np.diff(path, axis=0)).sum(axis=1)
    if n > 1 and np.any(steps != 1):
        k = int(np.argmax(steps != 1)) + 1
        raise ValueError(f"sites at steps {k} and {k + 1} are not neighbors")
    l1 = np.abs(path).sum(axis=1)
    ks = np.arange(1, n + 1)
    if np.any(l1 > ks) or np.any((l1 - ks) % 2 != 0):
        raise ValueError("path leaves the reachability cone")


def overlap(p: np.ndarray, q: np.ndarray) -> int:
    """Number of steps k at which the two equal-length paths coincide."""
    p = np.asarray(p)
    q = np.asarray(q)
    if p.shape != q.shape:
        raise ValueError(f"path shapes differ: {p.shape} vs {q.shape}")
    return int(np.all(p == q, axis=1).sum())


def path_to_csv_row(path: np.ndarray) -> list:
    """Flatten an (n, d) path into the d*n integer CSV cell list."""
    return [int(v) for v in np.asarray(path).reshape(-1)]


def path_from_csv_row(row, d: int) -> np.ndarray:
    vals = np.array([int(v) for v in row], dtype=np.int64)
    if vals.size % d != 0:
        raise ValueError("row length is not a multiple of d")
    return vals.reshape(-1, d)
