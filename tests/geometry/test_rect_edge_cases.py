"""Rect edge cases: degenerate dimensions, precision, high dims."""

import numpy as np
import pytest

from repro.geometry import Rect
from repro.geometry.rect import min_dists_to_rects


class TestDegenerate:
    def test_zero_extent_dimension(self):
        r = Rect([0.0, 1.0], [5.0, 1.0])
        assert r.volume() == 0.0
        assert r.contains_point([2.0, 1.0])
        assert not r.contains_point([2.0, 1.0001])

    def test_point_rect(self):
        r = Rect.point([3.0, 4.0])
        assert r.volume() == 0.0
        assert r.min_dist([0.0, 0.0]) == pytest.approx(5.0)

    def test_union_with_degenerate(self):
        a = Rect.point([0.0, 0.0])
        b = Rect.point([1.0, 1.0])
        u = a.union(b)
        assert u == Rect([0.0, 0.0], [1.0, 1.0])

    def test_intersection_touching_edge(self):
        a = Rect([0.0, 0.0], [1.0, 1.0])
        b = Rect([1.0, 0.0], [2.0, 1.0])
        assert a.intersection_volume(b) == 0.0
        assert b.intersection_volume(a) == 0.0

    def test_one_dimension(self):
        r = Rect([2.0], [5.0])
        assert r.min_dist([0.0]) == 2.0
        assert r.min_dist([3.0]) == 0.0
        assert r.corners().shape == (2, 1)


class TestPrecision:
    def test_tiny_extents(self):
        r = Rect([0.0, 0.0], [1e-300, 1e-300])
        assert r.volume() == 0.0  # underflows, but no crash
        assert r.contains_point([0.0, 0.0])

    def test_huge_coordinates(self):
        r = Rect([1e15, 1e15], [1e15 + 1, 1e15 + 1])
        assert r.contains_point([1e15 + 0.5, 1e15 + 0.5])
        assert r.min_dist([1e15 - 1, 1e15]) == pytest.approx(1.0)


class TestHighDimensions:
    def test_ten_dimensional_operations(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(50, 10))
        r = Rect.from_points(pts)
        assert r.contains_points(pts).all()
        q = rng.normal(size=10) * 5
        d = np.sqrt(((pts - q) ** 2).sum(axis=1))
        assert r.min_dist(q) <= d.min()

    def test_corner_mask_width(self):
        r = Rect([0.0] * 6, [1.0] * 6)
        assert np.array_equal(r.corner((1 << 6) - 1), np.ones(6))
        assert np.array_equal(r.corner(0), np.zeros(6))


class TestBatchedHelpers:
    def test_stack_and_min_dists_consistent(self):
        rng = np.random.default_rng(1)
        rects = [Rect.from_points(rng.normal(size=(3, 4)))
                 for _ in range(30)]
        lo = np.stack([r.lo for r in rects])
        hi = np.stack([r.hi for r in rects])
        assert lo.shape == (30, 4)
        for q in rng.normal(size=(3, 4)):
            batch = min_dists_to_rects(q, lo, hi)
            assert np.allclose(batch,
                               [r.min_dist(q) for r in rects])

    def test_hash_and_equality(self):
        a = Rect([0.0, 1.0], [2.0, 3.0])
        b = Rect([0.0, 1.0], [2.0, 3.0])
        c = Rect([0.0, 1.0], [2.0, 3.5])
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert a != "not a rect"
