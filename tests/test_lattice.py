"""Lattice geometry: neighbor sets, reachability cones, overlap counting."""

from itertools import product

import numpy as np
import pytest

from polylab.lattice import (PathDP, is_reachable, layer_mask, neighbors,
                             overlap, path_from_csv_row, path_to_csv_row,
                             reachable_sites, step_vectors, validate_path)


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


class TestOverlap:
    def test_self_overlap_full(self):
        p = np.array([[1], [2], [3], [2]])
        assert overlap(p, p) == 4

    def test_single_match(self):
        p = np.array([[1], [2], [3]])
        q = np.array([[1], [0], [1]])
        assert overlap(p, q) == 1

    def test_two_matches(self):
        p = np.array([[1], [0], [1]])
        q = np.array([[-1], [0], [1]])
        assert overlap(p, q) == 2

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            steps = rng.choice([-1, 1], size=(10, 1))
            p = np.cumsum(steps, axis=0)
            steps = rng.choice([-1, 1], size=(10, 1))
            q = np.cumsum(steps, axis=0)
            assert overlap(p, q) == overlap(q, p)
            assert 0 <= overlap(p, q) <= 10

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            overlap(np.array([[1]]), np.array([[1], [2]]))


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
            value = float(fields[k - 1][tuple(c + k for c in x)])
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
    fields = [rng.integers(0, 3, size=lead + (2 * k + 1,) * d) / 4.0
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
    # choices c < 2d stored as packed bit planes: 1, 2 and 3 bits per cell
    planes = (2 * d - 1).bit_length()
    for k, packed in enumerate(dp.choices, start=2):
        assert packed.dtype == np.uint8
        assert packed.shape == (batch, planes, -(-(2 * k + 1) ** d // 8))
    if n > 1:       # the top plane is in use: some choice is >= 2^(planes-1)
        assert any(packed[:, -1].any() for packed in dp.choices)


@pytest.mark.parametrize("d,n", [(1, 1), (1, 9), (2, 6), (3, 4), (2, 1), (3, 1), (3, 5)])
def test_path_dp_matches_site_by_site_reference(d, n):
    check_path_dp(d, n, (4,))


@pytest.mark.parametrize("d,n", [(1, 1), (1, 9), (2, 6), (3, 4)])
def test_path_dp_without_batch_axis_matches_reference(d, n):
    check_path_dp(d, n, ())


def test_csv_roundtrip():
    path = np.array([[1, 0], [1, 1], [0, 1]])
    row = path_to_csv_row(path)
    assert row == [1, 0, 1, 1, 0, 1]
    np.testing.assert_array_equal(path_from_csv_row(row, 2), path)
