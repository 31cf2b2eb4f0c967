"""Lattice geometry: neighbor sets, reachability cones, the path check of
tests/paths.py and the max-sum path program."""

from itertools import product

import numpy as np
import pytest

from polylab.lattice import (PathDP, cell_sites, framed, is_reachable,
                             layer_cells, layer_coords, layer_mask, layer_shape,
                             neighbors, site_cells, step_geometry, step_plan,
                             step_vectors)

from cone_sites import reachable_sites
from paths import validate_path
from stencil_windows import step_windows


def layer_sites(d, k):
    """The step-k layer's coordinate arrays stacked into its sites, shape
    layer_shape(d, k) + (d,)."""
    return np.stack(np.broadcast_arrays(*layer_coords(d, k)), axis=-1)


def walk_support(d, k):
    """Brute-force oracle: endpoints of all (2d)^k nearest-neighbor walks."""
    steps = [tuple(v) for v in step_vectors(d)]
    sites = {(0,) * d}
    for _ in range(k):
        sites = {tuple(x + s for x, s in zip(site, st))
                 for site in sites for st in steps}
    return sites


class TestNeighbors:
    def test_d1(self):
        assert neighbors((0,)) == [(-1,), (1,)]

    def test_d2(self):
        got = set(neighbors((0, 0)))
        assert got == {(1, 0), (-1, 0), (0, 1), (0, -1)}

    @pytest.mark.parametrize("x", [(3,), (0, -2), (1, 2, -3)])
    def test_count_is_2d(self, x):
        assert len(neighbors(x)) == 2 * len(x)

    @pytest.mark.parametrize("x", [(3,), (0, -2), (1, 2, -3), (5, 0, -1, 2)])
    def test_order_is_lexicographic(self, x):
        """neighbors and step_vectors list the unit steps in sorted order."""
        units = sorted(tuple(s * (i == j) for i in range(len(x)))
                       for j in range(len(x)) for s in (-1, 1))
        assert [tuple(v) for v in step_vectors(len(x)).tolist()] == units
        assert neighbors(x) == [tuple(a + b for a, b in zip(x, v)) for v in units]


class TestReachableSites:
    def test_d1_k1(self):
        assert set(reachable_sites(1, 1)) == {(-1,), (1,)}

    def test_d1_k3(self):
        got = set(reachable_sites(1, 3))
        assert got == {(-3,), (-1,), (1,), (3,)}
        assert len(got) == 4

    @pytest.mark.parametrize("d,k", [(1, 4), (1, 6), (2, 2), (2, 5), (3, 4)])
    def test_matches_walk_enumeration(self, d, k):
        assert set(reachable_sites(d, k)) == walk_support(d, k)

    def test_d1_count(self):
        for k in range(1, 20):
            assert sum(1 for _ in reachable_sites(1, k)) == k + 1

    def test_no_duplicates(self):
        sites = list(reachable_sites(2, 6))
        assert len(sites) == len(set(sites))

    def test_nested_in_neighbor_expansion(self):
        for k in range(2, 6):
            prev = set(reachable_sites(2, k - 1))
            expand = {y for x in prev for y in neighbors(x)}
            assert set(reachable_sites(2, k)) <= expand


class TestLayerMask:
    @pytest.mark.parametrize("d,k", [(1, 5), (2, 4), (3, 3)])
    def test_agrees_with_iterator(self, d, k):
        mask = layer_mask(d, k)
        from_iter = set(reachable_sites(d, k))
        for idx in product(range(2 * k + 1), repeat=d):
            site = tuple(i - k for i in idx)
            assert mask[idx] == (site in from_iter)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
class TestCubeLayout:
    """Site x at step k sits at cell (k + s(x)) / 2 of the cube {0..k}^d."""

    def test_cells_and_sites_round_trip(self, d):
        for k in range(7):
            assert layer_cells(d, k) == (k + 1) ** d
            cells = np.arange(layer_cells(d, k))
            sites = cell_sites(d, k, cells)
            np.testing.assert_array_equal(site_cells(d, k, sites), cells)

    def test_coordinate_arrays_are_the_cells_sites(self, d):
        """layer_coords broadcast to the layer, cell for cell its sites; in
        d <= 3 each spans at most two axes, in d = 3 x_1 not u_1's."""
        for k in (0, 1, 2, 5, 9):
            coords = layer_coords(d, k)
            assert len(coords) == d
            assert all(x.dtype == np.int64 for x in coords)
            assert np.broadcast_shapes(*(x.shape for x in coords)) == layer_shape(d, k)
            sites = cell_sites(d, k, np.arange(layer_cells(d, k)))
            np.testing.assert_array_equal(layer_sites(d, k).reshape(-1, d), sites)
            spans = [sum(n > 1 for n in np.shape(x)) for x in coords]
            if k > 0:
                assert max(spans) == (min(d, 2) if d <= 3 else d)
            if d == 3:                          # x_1 = u_2 + u_3 - k
                assert coords[0].shape == (k + 1, k + 1)

    def test_every_reachable_site_is_a_cell(self, d):
        for k in range(1, 7):
            sites = np.array(sorted(reachable_sites(d, k)))
            cells = site_cells(d, k, sites)
            assert np.all((cells >= 0) & (cells < layer_cells(d, k)))
            np.testing.assert_array_equal(cell_sites(d, k, cells), sites)
            # the cube is the cone exactly in d <= 2
            assert (len(sites) == layer_cells(d, k)) == (d <= 2)

    def test_windows_line_up_neighbours(self, d):
        axis_order = [tuple(s * (a == j) for a in range(d))
                      for j in range(d) for s in (1, -1)]
        for k in range(1, 7):
            big, small = layer_sites(d, k), layer_sites(d, k - 1)
            windows = step_windows(d, k)
            assert [v for v, _ in windows] == axis_order
            for v, window in windows:
                np.testing.assert_array_equal(big[window + (slice(None),)] + v, small)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_step_offsets_apply_the_windows(d):
    """A step-(k-1) layer framed and shifted by a step's flat offset o (where
    its up slice starts) adds into the step-k layer exactly as its window
    does, step by step in the windows' axis order; step_geometry's down
    pairs apply the same steps the other way."""
    rng = np.random.default_rng(d)
    for k in (1, 2, 3, 6):
        step, windows = step_geometry(d, k), step_windows(d, k)
        assert len(step.up) == len(step.down) == len(windows) == 2 * d
        assert step.up[0][0].start == 0
        cells = (Ellipsis,) + (slice(0, k),) * d
        small = rng.random((2,) + layer_shape(d, k - 1))
        padded = framed(small, step, np.nan)
        np.testing.assert_array_equal(padded[cells], small)
        assert np.isnan(padded).sum() == padded.size - small.size
        padded = framed(small, step, 0.0).reshape(-1)
        size = padded.size
        big = rng.random((2,) + layer_shape(d, k))
        for (_, window), (up_into, up_take), (into, take) in zip(windows, step.up,
                                                                  step.down):
            o = up_into.start
            want = big.copy()
            want[window] += small
            got = big.copy().reshape(-1)
            got[o:] += padded[:size - o]
            np.testing.assert_array_equal(got.reshape(big.shape), want)
            # the slices are the offset's: [o, N) and [0, N - o) up, reversed down
            assert range(size)[up_into] == range(o, size)
            assert range(size)[up_take] == range(size - o)
            assert (into, take) == (up_take, up_into)
            # down: the step-k layer's window lands on the frame cells
            out = np.zeros(size)
            out[into] += big.reshape(-1)[take]
            np.testing.assert_array_equal(out.reshape(big.shape)[cells], big[window])


def test_d1_layout_is_the_cone():
    """The d=1 layer is the cone x = -k + 2j with the windows [0, k) and
    [1, k+1), so the offsets 0 and 1: the layout, and so every d=1 record,
    is that of the cone sweep bit for bit."""
    for k in range(1, 40):
        cone = np.arange(-k, k + 1, 2)
        np.testing.assert_array_equal(layer_coords(1, k)[0], cone)
        np.testing.assert_array_equal(site_cells(1, k, cone[:, None]), np.arange(k + 1))
        assert step_windows(1, k) == (((1,), (Ellipsis, slice(0, k))),
                                      ((-1,), (Ellipsis, slice(1, k + 1))))
        assert step_geometry(1, k).up == ((slice(0, None), slice(None, None)),
                                          (slice(1, None), slice(None, -1)))


class TestValidatePath:
    def test_valid_path(self):
        validate_path(np.array([[1], [0], [-1], [0]]), 1)

    def test_rejects_bad_start(self):
        with pytest.raises(ValueError):
            validate_path(np.array([[2], [1]]), 1)

    def test_rejects_jump(self):
        with pytest.raises(ValueError):
            validate_path(np.array([[1], [3]]), 1)

    def test_rejects_diagonal(self):
        with pytest.raises(ValueError):
            validate_path(np.array([[1, 0], [2, 1]]), 2)

    @pytest.mark.parametrize("path", [np.array([[1.0], [0.0]]), np.array([[True], [False]]),
                                      [[1.0], [2.0]], np.array([["1"], ["0"]])])
    def test_rejects_non_integer_paths(self, path):
        """A float or bool path passed as the integer path it rounds to."""
        with pytest.raises(TypeError, match="integer array"):
            validate_path(path, 1)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int8, np.int32, np.uint64])
    def test_any_integer_dtype_steps_as_int64(self, dtype):
        """np.diff of an unsigned path wraps a step back (0 - 1) to 255 and
        more; the path is read as int64 first."""
        validate_path(np.array([[1], [0], [1]], dtype=dtype), 1)
        with pytest.raises(ValueError, match="not neighbors"):
            validate_path(np.array([[1], [2], [0]], dtype=dtype), 1)

    def test_unsigned_site_past_int64_is_off_the_cone(self):
        """2**64 - 1 would be read as the site -1."""
        with pytest.raises(ValueError, match="cone"):
            validate_path(np.array([[2 ** 64 - 1], [0]], dtype=np.uint64), 1)

    def test_random_walks_valid(self):
        rng = np.random.default_rng(7)
        sv = step_vectors(2)
        for _ in range(10):
            steps = sv[rng.integers(0, 4, size=30)]
            validate_path(np.cumsum(steps, axis=0), 2)


def best_path_reference(fields, d):
    """Site-by-site max-sum program over the cone with the same tie-break:
    the lexicographically smallest endpoint, then predecessor."""
    n = len(fields)
    score, pred = {}, {}
    for k in range(1, n + 1):
        for x in reachable_sites(d, k):
            value = float(fields[k - 1].reshape(-1)[site_cells(d, k, x)])
            if k == 1:
                score[k, x] = value
                continue
            ys = [y for y in neighbors(x) if is_reachable(y, k - 1)]
            y = max(ys, key=lambda y: (score[k - 1, y], [-c for c in y]))
            score[k, x], pred[k, x] = score[k - 1, y] + value, y
    end = max(reachable_sites(d, n), key=lambda x: (score[n, x], [-c for c in x]))
    path = [end]
    for k in range(n, 1, -1):
        path.append(pred[k, path[-1]])
    return score[n, end], np.array(path[::-1])


def check_path_dp(d, n, lead):
    """PathDP against best_path_reference on fields with ties everywhere."""
    # few distinct values, so ties are everywhere; sums of them are exact
    rng = np.random.default_rng(10 * d + n)
    fields = [rng.integers(0, 3, size=lead + layer_shape(d, k)) / 4.0
              for k in range(1, n + 1)]
    dp = PathDP(d, lead)
    for f in fields:
        dp.push(f)
    top, paths = dp.result()
    batch = lead[0] if lead else 1
    assert top.shape == (batch,) and paths.shape == (batch, n, d)
    for r in range(batch):
        score, path = best_path_reference([f[r] if lead else f for f in fields], d)
        assert top[r] == score
        np.testing.assert_array_equal(paths[r], path)
    # choices c < 2d stored as 2d - 1 packed move masks: 1, 3 and 5 bits
    # per cell
    for k, packed in enumerate(dp.choices, start=2):
        assert packed.dtype == np.uint8
        assert packed.shape == (batch, 2 * d - 1, -(-layer_cells(d, k) // 8))
    if n > 1:       # the last mask row is in use: some choice is 2d - 1
        assert any(packed[:, -1].any() for packed in dp.choices)


@pytest.mark.parametrize("d,n", [(1, 1), (1, 9), (2, 6), (3, 4), (2, 1), (3, 1), (3, 5)])
def test_path_dp_matches_site_by_site_reference(d, n):
    check_path_dp(d, n, (4,))


@pytest.mark.parametrize("d,n", [(1, 1), (1, 9), (2, 6), (3, 4)])
def test_path_dp_without_batch_axis_matches_reference(d, n):
    check_path_dp(d, n, ())



def test_step_plans_are_bounded_read_only_and_match_the_slices():
    """step_geometry and step_plan are bounded caches of immutable tuples
    and slices; their pairs are the slices [o, N) and [0, N - o) of the
    windows' offsets o (reversed down), and PathDP's moves are the up pairs
    in the lexicographic order of v, each with the cells [0, o) it skips."""
    assert step_geometry.cache_info().maxsize == 8192
    assert step_plan.cache_info().maxsize == 64
    plan = step_plan(2, 7)
    assert len(plan) == 8 and all(p is step_geometry(2, k) for k, p in enumerate(plan))
    for d in (1, 2, 3):
        for k in (1, 2, 5):
            step = step_geometry(d, k)
            with pytest.raises(AttributeError):
                step.shape = ()
            assert step.shape == layer_shape(d, k)
            assert step.frame == (Ellipsis,) + (slice(0, k),) * d
            assert step.axes == tuple(range(-d, 0))
            # a window's starts are its {0,1}^d shift; on a flattened frame
            # the shift is one offset
            offsets = {v: sum(w.start * (k + 1) ** (d - 1 - j)
                              for j, w in enumerate(window[1:]))
                       for v, window in step_windows(d, k)}
            ups = {v: (slice(o, None), slice(None, -o or None)) for v, o in offsets.items()}
            assert step.up == tuple(ups.values())
            assert step.down == tuple((t, i) for i, t in ups.values())
            edges = {v: slice(0, o) if o else None for v, o in offsets.items()}
            assert step.moves == tuple(ups[v] + (edges[v],) for v in sorted(ups))


def test_path_dp_top_is_the_result_score():
    rng = np.random.default_rng(4)
    for d, lead in ((1, (5,)), (2, ()), (3, (2,))):
        dp = PathDP(d, lead)
        for k in range(1, 6):
            dp.push(rng.random(lead + layer_shape(d, k)))
        assert dp.top().tobytes() == dp.result()[0].tobytes()
