"""Nearest-neighbor path geometry on Z^d.

Paths of length n start at the origin, which is omitted: a path is the
sequence of its n visited sites.  The site visited at step k lies in the
parity cone |x|_1 <= k, |x|_1 = k (mod 2).

The engine stores every layer in the layout this module defines, one
formula for every d.  Site x at step k sits at cell u = (k + s(x)) / 2 of
the cube {0..k}^d, with s(x) = (sum x, sum x - 2 x_2, ..., sum x - 2 x_d).
s is a bijection from Z^d onto the vectors whose entries share one parity,
and a unit step moves every entry of s by +-1, so each of the 2d steps is a
{0,1}^d shift between consecutive cubes.  In d = 1 the cube is the cone
itself, the k+1 sites x = -k + 2j; in d = 2 every cell is on the cone; in
d = 3 about 2/3 of the (k+1)^3 cells are, and the rest carry zero mass.
layer_shape, step_geometry, layer_coords, site_cells, cell_sites and
cube_sites are the layout.

The stencil works on frames: C-contiguous arrays of the step-k shape,
leading axes included, whose cells [0, k)^d can hold a step-(k-1) layer
(framed).  On flattened frames each unit step v is one constant offset,
its {0,1}^d shift (1 - s(v)) / 2 dotted with the frame's strides, so a pair
of contiguous slices applies it, where a d-dimensional view would walk
k^(d-1) short rows per op.  step_geometry gathers a step's slices, shape
and frame cells in one Step, and step_plan the Steps of a solve, so the
engine's neighbour sums and PathDP look them up once per solve or push,
not once per op.

The rest of the module is coordinate-level: neighbor enumeration (x plus
the unit steps of step_vectors), cone membership and masks, and the
max-sum path dynamic program.
"""

from __future__ import annotations

import copy
import math
from functools import lru_cache
from typing import Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

Site = Tuple[int, ...]


def neighbors(x: Site):
    """The 2d sites at L1 distance 1 from x, x + v over step_vectors, in
    lexicographic order."""
    sites = np.asarray(x, dtype=np.int64) + step_vectors(len(x))
    return [tuple(y) for y in sites.tolist()]


def step_vectors(d: int) -> np.ndarray:
    """All 2d unit steps as an (2d, d) int array, lexicographically sorted:
    -e_1 < ... < -e_d < e_d < ... < e_1."""
    eye = np.eye(d, dtype=np.int64)
    return np.concatenate([-eye, eye[::-1]])


def layer_shape(d: int, k: int) -> Tuple[int, ...]:
    """Shape of the trailing site axes of the step-k layer: the cube
    (k+1,)*d.  Step 0 is the origin alone."""
    return (k + 1,) * d


@lru_cache(maxsize=None)
def _signature(d: int) -> np.ndarray:
    """The matrix S with s(x) = S x, read-only: row 0 all ones, row i >= 1
    all ones but -1 in column i."""
    s = np.ones((d, d), dtype=np.int64)
    s[np.arange(1, d), np.arange(1, d)] = -1
    s.flags.writeable = False
    return s


def layer_cells(d: int, k: int) -> int:
    """Number of cells of the step-k layer."""
    return math.prod(layer_shape(d, k))


class Step(NamedTuple):
    """Everything a stencil op at step k reads of the layout, built once
    (step_geometry).  up and down are the (into, take) slice pairs of the
    2d unit steps v in axis order, +e_1 (offset 0) first, then -e_1, +e_2,
    -e_2, ...; every neighbour sum adds them in this order, which fixes its
    floating-point rounding.  moves are the up pairs in the lexicographic
    order of v (PathDP's choices), each with the cells [0, o) its into
    skips, or None where o = 0."""

    shape: Tuple[int, ...]      # layer_shape(d, k)
    axes: Tuple[int, ...]       # the trailing d site axes, (-d, ..., -1)
    frame: tuple                # the cells [0, k)^d that hold step k-1
    pads: tuple                 # the frame's other cells: coordinate j is k
    up: tuple
    down: tuple
    moves: tuple


@lru_cache(maxsize=8192)
def step_geometry(d: int, k: int) -> Step:
    """The layout of step k as one Step; read-only slices and tuples.

    Site x + v of step k-1 sits at cell u(x) - (1 - S v) / 2, with S the
    signature (_signature), so step v moves cell u of a step-k frame's
    [0, k)^d to cell u + (1 - S v) / 2 of the step-k layer.  Every entry of
    (1 - S v) / 2 is 0 or 1, so no coordinate leaves [0, k], and on
    flattened C-contiguous arrays (leading axes included) the move is the
    constant offset o = (1 - S v) / 2 . ((k+1)^(d-1), ..., k+1, 1) within
    the cell's own row of the leading axes.  With N the flat size, into
    and take are [o, N) and [0, N - o) up, and the reverse down.

    Up, ``out[into] += frame[take]`` with frame a step-(k-1) layer in a
    step-k frame adds the step-(k-1) cell at x + v into the step-k cell at
    x.  Down, ``out[into] += big[take]`` with big a step-k layer adds the
    step-k cell at x - v into the frame cell at x of the step-(k-1) layer.
    The other cells meet only the frame's padding (up) or are not part of
    the result (down), so each step is one op on contiguous slices.
    """
    steps = np.kron(np.eye(d, dtype=np.int64), [[1], [-1]])    # +e_1, -e_1, ...
    flat = (k + 1) ** np.arange(d - 1, -1, -1)
    offsets = ((1 - steps @ _signature(d).T) // 2 @ flat).tolist()
    up = tuple((slice(o, None), slice(None, -o or None)) for o in offsets)
    moves = sorted(zip(steps.tolist(), up, offsets))
    return Step(
        shape=layer_shape(d, k),
        axes=tuple(range(-d, 0)),
        frame=(Ellipsis,) + (slice(0, k),) * d,
        pads=tuple((Ellipsis, k) + (slice(None),) * (d - 1 - j) for j in range(d)),
        up=up,
        down=tuple(pair[::-1] for pair in up),
        moves=tuple((into, take, slice(0, o) if o else None)
                    for _, (into, take), o in moves))


@lru_cache(maxsize=64)
def step_plan(d: int, n: int) -> Tuple[Step, ...]:
    """step_geometry(d, k) for k = 0..n: a solve of length n looks each
    step up here, once per solve, not once per op."""
    return tuple(step_geometry(d, k) for k in range(n + 1))


class Frame(NamedTuple):
    """A frame of step k bound to its views: the array (cube, leading axes
    kept), its cells [0, k)^d that take a step-(k-1) layer (interior), its
    other cells (pads) and its flattening (flat), which the stencil's slice
    pairs read."""

    cube: np.ndarray
    interior: np.ndarray
    pads: list
    flat: np.ndarray

    def hold(self, layer: np.ndarray, fill: float) -> np.ndarray:
        """Write the step-(k-1) layer into the frame, fill the other cells
        and return the flattened frame."""
        self.interior[...] = layer
        for pad in self.pads:
            pad[...] = fill
        return self.flat


def framed(layer: np.ndarray, step: Step, fill: float) -> np.ndarray:
    """The step-(k-1) layer (leading axes kept) in a new frame of step k,
    whose geometry is step (step_geometry(d, k)); the frame's other cells
    hold fill."""
    out = np.empty(layer.shape[:layer.ndim - len(step.shape)] + step.shape)
    out[step.frame] = layer
    for pad in step.pads:
        out[pad] = fill
    return out


class Moves(NamedTuple):
    """PathDP.push's views at step k: the step-k scores (best, shape
    (batch,) + the step-k shape), move 0 as (edge, into, take) and every
    other move c as (edge, take, into, mask) on the flattened scores, frame
    and mask c - 1, with edge the cells [0, o) that into skips (None where
    o = 0), and the masks as (batch, 2d - 1, cells) for packing."""

    best: np.ndarray
    first: tuple
    rest: list
    packed: np.ndarray


def bind_moves(step: Step, batch: int, source: np.ndarray, score: np.ndarray,
               masks: np.ndarray) -> Moves:
    """The Moves of step k on the flattened frame source, the flat scores
    score (batch times the step's cells) and masks, 2d - 1 bool rows of
    that size."""
    (into, take, edge), *rest = step.moves
    first = (None if edge is None else score[edge], score[into], source[take])
    rest = [(None if edge is None else masks[c, edge], source[take], score[into], masks[c, into])
            for c, (into, take, edge) in enumerate(rest)]
    return Moves(score.reshape((batch,) + step.shape), first, rest,
                 masks.reshape(len(rest), batch, -1).transpose(1, 0, 2))


def sum_pairs(step: Step, layer: np.ndarray, source: np.ndarray) -> list:
    """The (into, take) view pairs of a neighbour sum up into the step-k
    layer from the flattened frame source, in the order of Step.up: into
    on the flattened layer, take on source."""
    out = layer.reshape(-1)
    return [(out[into], source[take]) for into, take in step.up]


class Bound(NamedTuple):
    """Step k of a forward sweep bound to the arrays it reads and writes
    (bind): the forward layer F_k (layer, leading axes kept) and its
    (batch, cells) view (flat); then the Frame of its neighbour sum, the
    sum's slice pairs (sum_pairs), the frame as (batch, cells) (squares),
    which holds engine.layer_alpha's square, and PathDP.push's Moves over
    the same frame.  A step bound on new arrays has none of the last four:
    the sum, the square and push each make their own when they run."""

    step: Step
    layer: np.ndarray
    flat: np.ndarray
    frame: Optional[Frame] = None
    sums: Optional[list] = None
    squares: Optional[np.ndarray] = None
    moves: Optional[Moves] = None


def bind(step: Step, lead: Tuple[int, ...], flats: Optional[dict] = None) -> Bound:
    """Bind step k (step_geometry(d, k)) with leading axes lead.

    flats None binds a new F_k and nothing else: the neighbour sum,
    engine.layer_alpha and PathDP.push each allocate their frame, square
    and scores when they run and drop what they can when they end, so a
    fresh solve allocates and frees in the order it always has.  Otherwise
    every array is a view of flats, {role: flat array} for the roles layer,
    frame, score and masks, each at least the step's size, and the step is
    bound in full: such steps are bound once and reused by every later
    solve (engine._Retained)."""
    shape = lead + step.shape
    rows = math.prod(lead)
    if flats is None:
        layer = np.empty(shape)
        return Bound(step, layer, layer.reshape(rows, -1))
    size = rows * math.prod(step.shape)
    layer = flats["layer"][:size].reshape(shape)
    cube = flats["frame"][:size].reshape(shape)
    frame = Frame(cube, cube[step.frame], [cube[pad] for pad in step.pads], cube.reshape(-1))
    masks = flats["masks"][:(len(step.moves) - 1) * size].reshape(-1, size)
    return Bound(step, layer, layer.reshape(rows, -1), frame,
                 sum_pairs(step, layer, frame.flat), frame.cube.reshape(rows, -1),
                 bind_moves(step, rows, frame.flat, flats["score"][:size], masks))


def layer_coords(d: int, k: int) -> Tuple[np.ndarray, ...]:
    """Site coordinates x_1, ..., x_d of the step-k layer as d int64 arrays
    that broadcast to layer_shape(d, k).  Over the cube axes u_1..u_d,
    x_1 = (3 - d) u_1 + u_2 + ... + u_d - k and x_i = u_1 - u_i for i >= 2
    (cube_sites), so each array spans only the axes its coordinate depends
    on: in d <= 3 at most two, (k+1)^2 entries, where the layer has
    (k+1)^d cells."""
    lead = (slice(None),) + (None,) * (d - 1)     # u_1 lies on axis 0, u_i on axis i
    # (3 - d) u_1 - k as one arange (u_1's coefficient is 0 in d = 3), then
    # u_2, ..., u_d added one axis each
    first = -k if d == 3 else np.arange(-k, -k + (3 - d) * (k + 1), 3 - d)[lead]
    rest = []
    for j in range(d - 2, -1, -1):
        u = np.arange(k + 1)
        ui = u[(slice(None),) + (None,) * j]
        first, rest = first + ui, rest + [u[lead] - ui]
    return (first, *rest)


def site_cells(d: int, k: int, x: np.ndarray) -> np.ndarray:
    """Flat cell index in the step-k layer of each site x (shape (..., d));
    every site must lie in the layer (every reachable site does)."""
    u = (np.asarray(x, dtype=np.int64) @ _signature(d).T + k) >> 1
    return u @ (k + 1) ** np.arange(d - 1, -1, -1, dtype=np.int64)


def cell_sites(d: int, k: int, cells: np.ndarray) -> np.ndarray:
    """Site coordinates (shape cells.shape + (d,)) of flat step-k cells."""
    return cube_sites(k, np.stack(np.unravel_index(np.asarray(cells, dtype=np.int64),
                                                   layer_shape(d, k)), axis=-1))


def cube_sites(k, u: np.ndarray) -> np.ndarray:
    """Site coordinates (shape u.shape) of the step-k cube cells u (shape
    (..., d)); k may be an array that broadcasts against u's leading axes."""
    s = 2 * u - k
    x = (s[..., :1] - s) >> 1           # x_i = (s_1 - s_i) / 2 for i >= 2
    x[..., 0] = s[..., 0] - x[..., 1:].sum(axis=-1)
    return x


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

    The score of a path is the sum of the fields along it; every cell of the
    layout competes, including cells of zero field.  Ties go to the
    lexicographically smallest endpoint, then at each step back to the
    lexicographically smallest predecessor, among scores that are equal in
    floating point: where exact ties round apart (at beta=0, in every d),
    the rounding decides.  Fields carry the leading axes `lead` (one
    environment per entry) before their d site axes.

    Each push frames the previous scores with -inf (framed) and takes
    every move as a pair of contiguous slices at its offset (Step.moves);
    -inf padding never wins a move, so every cell's score and choice are
    those of its 2d predecessors.
    Only the current layer's scores (best) are kept, starting from score 0
    at the origin.  A cell no path reaches (a cube cell off the cone, in
    d >= 3) has no scored predecessor, so its score stays -inf.  Every
    layer from step 2 keeps which of the 2d predecessors gave each cell its
    score, a choice c < 2d, as one mask per move c >= 1: the cells where
    move c was strictly better than moves 0..c-1.  A cell's choice is its
    last set mask, or 0 if none is set.  The 2d - 1 masks of a layer are
    packed with np.packbits over the flattened cells: shape (batch, 2d - 1,
    ceil(cells / 8)), so 1 bit per cell in d=1, 3 in d=2 and 5 in d=3.

    settle ends the sweep: it reduces the scores to what top, result and
    prefix read, each row's top score (tops) and the flat cell of its
    endpoint (ends), and drops them.  top, result and prefix(n) settle a
    program first.  result walks each row back from its endpoint in cube
    coordinates, with Python ints: one mask byte per move tried, then the
    move's {0,1}^d shift.  push reads and writes its step's views (Moves):
    those of the engine's bound step (bind) where the sweep retains them,
    else views it binds on new scores, frame and masks.  A retained step's
    scores lie in a buffer that outlives the program, so a settled program
    holds no score layer.

    keep names push counts m whose state prefix(m) can return later.  A
    push only appends to choices, so the state after m pushes is that
    push's (tops, ends), settled as the push ends, and the first m - 1
    choice layers: two numbers per row and nothing copied.
    """

    def __init__(self, d: int, lead: Tuple[int, ...], keep: Iterable[int] = ()):
        self.d = d
        self.batch = lead[0] if lead else 1
        self.n = 0
        self.best = np.zeros((self.batch,) + layer_shape(d, 0))
        self.tops = self.ends = None
        self.choices: List[np.ndarray] = []
        self.kept = dict.fromkeys(keep)      # m -> (tops, ends) after push m

    def push(self, field: np.ndarray, bound: Optional[Bound] = None) -> None:
        """Add the step-k field (leading axes lead), k the pushes so far
        plus one, through the Moves and the Frame of bound, step k as the
        engine's sweep bound it (bind).  Without them the step is bound
        here, on new scores, frame and masks."""
        self.n = k = self.n + 1
        if bound is None or bound.moves is None:
            step = step_geometry(self.d, k)
            size = self.batch * math.prod(step.shape)
            # the scores outlive the frame: allocated first, as the engine's
            # forward layers are
            score = np.empty(size)
            source = framed(self.best, step, -np.inf).reshape(-1)
            moves = bind_moves(step, self.batch, source, score,
                               np.empty((len(step.moves) - 1, size), bool))
        else:
            # framing reads the old scores before any score is written, so
            # the two may share a buffer
            moves = bound.moves
            bound.frame.hold(self.best, -np.inf)
        # predecessors y = x + v in lexicographic order of v: mask c - 1
        # holds where move c is strictly better than moves 0..c-1, so the
        # last set mask is the smallest of the tied predecessors.  Move 0
        # writes every score but its edge.
        edge, into, take = moves.first
        if edge is not None:
            edge[...] = -np.inf
        into[...] = take
        for edge, take, into, mask in moves.rest:
            if edge is not None:
                edge[...] = False
            np.greater(take, into, out=mask)
            np.maximum(into, take, out=into)
        best = moves.best
        best += field
        if k > 1:       # every step-1 cell comes from the origin
            self.choices.append(np.packbits(moves.packed, axis=-1))
        self.best = best
        if k in self.kept:
            self.kept[k] = self._answer()

    def _answer(self) -> Tuple[np.ndarray, np.ndarray]:
        """(tops, ends) of the current scores: each row's top score and the
        flat cell of its lexicographically smallest tied endpoint."""
        scores = self.best.reshape(self.batch, -1)
        tops = scores.max(axis=1)
        rows, tied = divmod(np.flatnonzero(scores == tops[:, None]), scores.shape[1])
        # cube C order is not lexicographic in d >= 2: sort the tied cells
        # by (row, site) and keep each row's first
        x = cell_sites(self.d, self.n, tied)
        order = np.lexsort(tuple(x.T[::-1]) + (rows,))
        return tops, tied[order[np.unique(rows[order], return_index=True)[1]]]

    def settle(self) -> Tuple[np.ndarray, np.ndarray]:
        """End the sweep: keep the current scores' (tops, ends), drop the
        scores and return (tops, ends).  A settled program takes no more
        pushes; settling it again changes nothing."""
        if self.best is not None:
            self.tops, self.ends = self.kept.get(self.n) or self._answer()
            self.best = None
        return self.tops, self.ends

    def prefix(self, m: int) -> "PathDP":
        """The settled program as it stood after its first m pushes: m is
        the pushes made so far or one of keep.  Shares its arrays with this
        one."""
        answer = self.settle() if m == self.n else self.kept.get(m)
        if answer is None:
            raise ValueError(f"the path program kept no state after {m} of "
                             f"{self.n} pushes")
        dp = copy.copy(self)
        dp.n, (dp.tops, dp.ends), dp.choices, dp.kept = m, answer, self.choices[:m - 1], {}
        return dp

    def top(self) -> np.ndarray:
        """The top scores, shape (batch,), without backtracking a path."""
        return self.settle()[0]

    def result(self) -> Tuple[np.ndarray, np.ndarray]:
        """(top scores of shape (batch,), best paths of shape (batch, n, d))."""
        d, n = self.d, self.n
        top, ends = self.settle()
        # move c takes cell u of the step-k cube to u - shifts[c] of the
        # step-(k-1) one, whose side is k
        shifts = ((1 - step_vectors(d) @ _signature(d).T) // 2).tolist()
        views = [memoryview(masks) for masks in self.choices]
        cubes = []
        for row, cell in enumerate(ends.tolist()):
            u = [cell // (n + 1) ** j % (n + 1) for j in range(d - 1, -1, -1)]
            walk = [u]
            for k in range(n, 1, -1):
                view, byte, bit = views[k - 2], cell >> 3, 7 - (cell & 7)
                c = len(shifts) - 1
                while c and not view[row, c - 1, byte] >> bit & 1:
                    c -= 1
                u = [a - b for a, b in zip(u, shifts[c])]
                cell = 0
                for a in u:
                    cell = cell * k + a
                walk.append(u)
            cubes.append(walk[::-1])
        ks = np.arange(1, n + 1)[:, None]
        return top, cube_sites(ks, np.array(cubes, dtype=np.int64).reshape(self.batch, n, d))
