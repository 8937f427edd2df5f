"""Unit and property tests for repro.geometry.rect."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.geometry import Rect
from repro.geometry.rect import min_dists_to_rects


def finite_floats(lo=-1e6, hi=1e6):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False,
                     allow_infinity=False, width=32)


def point_arrays(min_points=1, max_points=30, dim=3):
    return hnp.arrays(np.float64, st.tuples(
        st.integers(min_points, max_points), st.just(dim)),
        elements=finite_floats())


class TestConstruction:
    def test_from_points_bounds_all(self):
        pts = np.array([[0.0, 1.0], [2.0, -1.0], [1.0, 0.5]])
        r = Rect.from_points(pts)
        assert np.array_equal(r.lo, [0.0, -1.0])
        assert np.array_equal(r.hi, [2.0, 1.0])

    def test_from_single_point(self):
        r = Rect.from_points(np.array([1.0, 2.0, 3.0]))
        assert r.volume() == 0.0
        assert r.contains_point([1.0, 2.0, 3.0])

    def test_degenerate_raises(self):
        with pytest.raises(ValueError):
            Rect([1.0, 0.0], [0.0, 1.0])

    def test_empty_points_raises(self):
        with pytest.raises(ValueError):
            Rect.from_points(np.empty((0, 2)))

    def test_mismatched_bounds_raise(self):
        with pytest.raises(ValueError):
            Rect([0.0, 0.0], [1.0])

    def test_from_rects(self):
        a = Rect([0.0, 0.0], [1.0, 1.0])
        b = Rect([2.0, -1.0], [3.0, 0.5])
        u = Rect.from_rects([a, b])
        assert u.contains_rect(a) and u.contains_rect(b)
        assert np.array_equal(u.lo, [0.0, -1.0])

    def test_from_rects_empty_raises(self):
        with pytest.raises(ValueError):
            Rect.from_rects([])


class TestMeasures:
    def test_volume(self):
        r = Rect([0.0, 0.0, 0.0], [2.0, 3.0, 4.0])
        assert r.volume() == 24.0

    def test_intersection_volume_disjoint(self):
        a = Rect([0.0, 0.0], [1.0, 1.0])
        b = Rect([2.0, 2.0], [3.0, 3.0])
        assert a.intersection_volume(b) == 0.0

    def test_intersection_volume_overlap(self):
        a = Rect([0.0, 0.0], [2.0, 2.0])
        b = Rect([1.0, 1.0], [3.0, 3.0])
        assert a.intersection_volume(b) == 1.0


class TestDistances:
    def test_min_dist_inside_is_zero(self):
        r = Rect([0.0, 0.0], [2.0, 2.0])
        assert r.min_dist([1.0, 1.0]) == 0.0

    def test_min_dist_face(self):
        r = Rect([0.0, 0.0], [2.0, 2.0])
        assert r.min_dist([3.0, 1.0]) == pytest.approx(1.0)

    def test_min_dist_corner(self):
        r = Rect([0.0, 0.0], [2.0, 2.0])
        assert r.min_dist([3.0, 3.0]) == pytest.approx(np.sqrt(2.0))

    def test_clamp(self):
        r = Rect([0.0, 0.0], [2.0, 2.0])
        assert np.array_equal(r.clamp([-1.0, 1.0]), [0.0, 1.0])


class TestCorners:
    def test_corner_masks(self):
        r = Rect([0.0, 0.0], [1.0, 2.0])
        assert np.array_equal(r.corner(0b00), [0.0, 0.0])
        assert np.array_equal(r.corner(0b01), [1.0, 0.0])
        assert np.array_equal(r.corner(0b10), [0.0, 2.0])
        assert np.array_equal(r.corner(0b11), [1.0, 2.0])

    def test_corners_count(self):
        r = Rect([0.0] * 4, [1.0] * 4)
        assert r.corners().shape == (16, 4)


class TestVectorized:
    def test_min_dists_matches_scalar(self):
        rng = np.random.default_rng(0)
        rects = [Rect.from_points(rng.normal(size=(4, 3)))
                 for _ in range(20)]
        q = rng.normal(size=3)
        lo = np.stack([r.lo for r in rects])
        hi = np.stack([r.hi for r in rects])
        batch = min_dists_to_rects(q, lo, hi)
        scalar = np.array([r.min_dist(q) for r in rects])
        assert np.allclose(batch, scalar)

    def test_contains_points_matches_scalar(self):
        rng = np.random.default_rng(1)
        r = Rect.from_points(rng.normal(size=(10, 3)))
        pts = rng.normal(size=(50, 3))
        batch = r.contains_points(pts)
        scalar = np.array([r.contains_point(p) for p in pts])
        assert np.array_equal(batch, scalar)


class TestProperties:
    @given(point_arrays())
    def test_mbr_contains_all_points(self, pts):
        r = Rect.from_points(pts)
        assert r.contains_points(pts).all()

    @given(point_arrays(min_points=2))
    def test_min_dist_lower_bounds_point_dists(self, pts):
        r = Rect.from_points(pts[1:])
        q = pts[0]
        dists = np.sqrt(((pts[1:] - q) ** 2).sum(axis=1))
        assert r.min_dist(q) <= dists.min() + 1e-9

    @given(point_arrays(), point_arrays())
    def test_union_contains_both(self, a, b):
        ra, rb = Rect.from_points(a), Rect.from_points(b)
        u = ra.union(rb)
        assert u.contains_rect(ra) and u.contains_rect(rb)

    @given(point_arrays())
    def test_union_is_commutative_and_idempotent(self, pts):
        r = Rect.from_points(pts)
        s = Rect(r.lo - 1.0, r.hi + 1.0)
        assert r.union(s) == s.union(r)
        assert r.union(r) == r

    @given(point_arrays(min_points=2))
    @settings(max_examples=50)
    def test_clamp_achieves_min_dist(self, pts):
        r = Rect.from_points(pts[1:])
        q = pts[0]
        c = r.clamp(q)
        assert r.contains_point(c)
        assert np.linalg.norm(q - c) == pytest.approx(r.min_dist(q), abs=1e-9)
