"""Nearest-neighbor path geometry on Z^d.

Paths of length n start at the origin, which is omitted: a path is the
sequence of its n visited sites.  The site visited at step k lies in the
parity cone |x|_1 <= k, |x|_1 = k (mod 2).

Internally the engine works with dense per-layer boxes [-k, k]^d; sites
outside the cone simply carry zero mass.  This module provides the
coordinate-level helpers: neighbor enumeration, cone iteration and masks,
path validation, overlap counting, and the max-sum path dynamic program.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterator, List, Tuple

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


class PathDP:
    """Best nearest-neighbour path from the origin through layer fields fed
    one step at a time (push the step-k field after the step-(k-1) one).

    The score of a path is the sum of the fields along it; every site of the
    box competes, including sites of zero field.  Ties go to the
    lexicographically smallest endpoint, then at each step back to the
    lexicographically smallest predecessor.  Fields carry the leading axes
    `lead` (one environment per entry) before their d site axes.

    Only the current layer's scores are kept.  Every cell of every layer
    keeps which of the 2d predecessors gave its score, a choice c < 2d.
    A layer stores its choices as (2d-1).bit_length() bit planes (bit j of
    every c), each packed with np.packbits over the flattened sites: shape
    (batch, planes, ceil(sites / 8)), so 1 bit per cell in d=1, 2 in d=2
    and 3 in d=3.  Only layer 1 is masked: a site off the step-k cone has
    every neighbour off the step-(k-1) cone, so its score stays -inf.
    """

    def __init__(self, d: int, lead: Tuple[int, ...]):
        self.d = d
        self.batch = lead[0] if lead else 1
        self.n = 0
        self.best = None
        # the value of bit plane j in a choice: 1, 2, 4
        self.plane_bits = 1 << np.arange((2 * d - 1).bit_length(), dtype=np.uint8)
        self.choices: List[np.ndarray] = []

    def push(self, field: np.ndarray) -> None:
        d = self.d
        self.n = k = self.n + 1
        layer = field.reshape((self.batch,) + (2 * k + 1,) * d)
        if k == 1:
            self.best = np.where(layer_mask(d, 1), layer, -np.inf)
            return
        # predecessors y = x + v in lexicographic order of v: the choice is
        # the last move c that is strictly better than moves 0..c-1, i.e.
        # the smallest of tied predecessors, and that is the largest c * better
        moves = sorted(step_windows(d, 2 * k - 1))
        score = np.full(layer.shape, -np.inf)
        choice = np.zeros(score.shape, dtype=np.uint8)
        better = np.empty(self.best.shape, dtype=bool)
        mark = np.empty(self.best.shape, dtype=np.uint8)
        for c, (_, window) in enumerate(moves):
            if c == 0:
                score[window] = self.best
                continue
            np.greater(self.best, score[window], out=better)
            np.maximum(score[window], self.best, out=score[window])
            np.multiply(better.view(np.uint8), np.uint8(c), out=mark)
            np.maximum(choice[window], mark, out=choice[window])
        score += layer
        # packbits packs every non-zero byte as a 1 bit
        bits = choice.reshape(self.batch, 1, -1) & self.plane_bits[:, None]
        self.choices.append(np.packbits(bits, axis=-1))
        self.best = score

    def result(self) -> Tuple[np.ndarray, np.ndarray]:
        """(top scores of shape (batch,), best paths of shape (batch, n, d))."""
        d, n, best = self.d, self.n, self.best
        # argmax in C order == lexicographically smallest coordinate tuple
        rows = np.arange(self.batch)
        flat = best.reshape(self.batch, -1).argmax(axis=1)
        top = best.reshape(self.batch, -1)[rows, flat]
        idx = np.stack(np.unravel_index(flat, best.shape[1:]), axis=-1)   # box index
        steps = step_vectors(d)
        path = np.empty((self.batch, n, d), dtype=np.int64)
        path[:, n - 1] = idx - n
        for k in range(n, 1, -1):
            # the R packed bits of each plane at the path's step-k site
            site = np.ravel_multi_index(tuple(idx.T), (2 * k + 1,) * d)
            packed = self.choices[k - 2][rows, :, site >> 3]          # (batch, planes)
            c = ((packed >> (7 - (site & 7))[:, None]) & 1) @ self.plane_bits
            idx = idx + steps[c] - 1          # predecessor x + v, in the step k-1 box
            path[:, k - 2] = idx - (k - 1)
        return top, path


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
