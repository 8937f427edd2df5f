"""Unit and property tests for the corner-bite geometry (paper section 5),
on the arrays :func:`repro.geometry.bites.carve_rows` returns."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.jbtree import _blocks
from repro.geometry.bites import (_corner_low_table, bite_volumes,
                                  bitten_min_dist, carve_rows, in_bites)


def finite_floats():
    return st.floats(min_value=-100.0, max_value=100.0, allow_nan=False,
                     allow_infinity=False, width=32)


def point_arrays(min_points=2, max_points=40, dim=2):
    return hnp.arrays(np.float64, st.tuples(
        st.integers(min_points, max_points), st.just(dim)),
        elements=finite_floats())


class Carved:
    """One group's carve: its MBR and the kept bites' masks, bounds,
    low-side flags and volumes."""

    def __init__(self, los, his=None, **kwargs):
        los = np.asarray(los, dtype=np.float64)
        his = los if his is None else np.asarray(his, dtype=np.float64)
        lo, hi, keep, inners = carve_rows(los[None], his[None], **kwargs)
        self.lo, self.hi = lo[0], hi[0]
        low = _corner_low_table(len(self.lo))
        corner = np.where(low, self.lo, self.hi)
        self.masks = np.flatnonzero(keep[0])
        self.blo = np.minimum(corner, inners[0])[self.masks]
        self.bhi = np.maximum(corner, inners[0])[self.masks]
        self.low = low[self.masks]
        self.vols = bite_volumes(lo, hi, inners)[0][self.masks]

    def removes(self, pts) -> np.ndarray:
        """Which of ``pts`` some bite removes."""
        return in_bites(np.asarray(pts, dtype=np.float64)[:, None, :],
                        self.blo, self.bhi, self.low).any(axis=1)

    def contains(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=np.float64)
        inside = np.all((pts >= self.lo) & (pts <= self.hi), axis=1)
        return inside & ~self.removes(pts)

    def min_dist(self, q) -> float:
        return bitten_min_dist(self.lo, self.hi, self.blo, self.bhi,
                               self.low, q)

    def mbr_dist(self, q) -> float:
        return bitten_min_dist(self.lo, self.hi, self.blo[:0],
                               self.bhi[:0], self.low[:0], q)


LOW_LOW = (np.array([0.0, 0.0]), np.array([1.0, 1.0]),
           np.array([True, True]))
HIGH_HIGH = (np.array([1.0, 1.0]), np.array([2.0, 2.0]),
             np.array([False, False]))


class TestBite:
    def test_volume_and_emptiness(self):
        lo, hi = np.array([[0.0, 0.0]]), np.array([[2.0, 3.0]])
        # every corner reaches the opposite one: the whole MBR
        inners = np.where(_corner_low_table(2), hi, lo)[None].copy()
        inners[0, 1] = [0.0, 0.0]   # corner (2, 0): no height, empty
        inners[0, 2] = [1.0, 1.0]   # corner (0, 3): a 1 x 2 box
        assert bite_volumes(lo, hi, inners)[0].tolist() == [6.0, 0.0, 2.0,
                                                             6.0]

    def test_half_open_membership(self):
        # Low-low corner bite: closed at the MBR faces, open at inner faces.
        assert in_bites(np.array([0.5, 0.5]), *LOW_LOW)
        assert in_bites(np.array([0.0, 0.5]), *LOW_LOW)   # MBR face: removed
        assert not in_bites(np.array([1.0, 0.5]), *LOW_LOW)  # inner: kept
        assert not in_bites(np.array([1.0, 1.0]), *LOW_LOW)

    def test_half_open_membership_high_corner(self):
        assert in_bites(np.array([2.0, 2.0]), *HIGH_HIGH)
        assert in_bites(np.array([1.5, 2.0]), *HIGH_HIGH)
        assert not in_bites(np.array([1.0, 1.5]), *HIGH_HIGH)  # inner: kept

    def test_blocks_rect(self):
        assert _blocks(np.array([0.5, 0.5]), np.array([2.0, 2.0]), *LOW_LOW)
        # Touching only the open inner face does not block.
        assert not _blocks(np.array([1.0, 0.0]), np.array([2.0, 1.0]),
                           *LOW_LOW)
        # Touching the closed MBR-boundary face does block.
        assert _blocks(np.array([0.0, 0.0]), np.array([0.0, 0.5]), *LOW_LOW)


class TestCarveFromPoints:
    def test_l_shaped_data_gets_corner_bite(self):
        # Points fill an L: the upper-right corner of the MBR is empty.
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0],
                        [0.0, 1.0], [0.0, 2.0], [2.0, 0.5], [0.5, 2.0]])
        carved = Carved(pts)
        # Corner mask 0b11 is the upper-right (hi, hi) corner.
        upper_right = carved.vols[carved.masks == 0b11]
        assert len(upper_right), "expected a bite at the empty corner"
        assert upper_right[0] > 0.5

    def test_no_point_ever_removed_by_a_bite(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(60, 3))
        assert not Carved(pts).removes(pts).any()

    def test_diagonal_data_bites_both_off_corners(self):
        pts = np.array([[float(i), float(i)] for i in range(10)])
        masks = set(Carved(pts).masks.tolist())
        assert 0b01 in masks and 0b10 in masks


class TestCarveFromRects:
    def test_bites_avoid_child_rects(self):
        los = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
        his = los + 1.0
        carved = Carved(los, his)
        for lo, hi in zip(los, his):
            assert not _blocks(lo, hi, carved.blo, carved.bhi,
                               carved.low).any()
        # The (hi, hi) corner region is empty of children: expect a big bite.
        ur = carved.vols[carved.masks == 0b11]
        assert len(ur) and ur[0] >= 4.0


class TestBittenRect:
    def test_from_points_is_conservative(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(50, 2))
        assert Carved(pts).contains(pts).all()

    def test_max_bites_keeps_largest(self):
        pts = np.array([[float(i), float(i)] for i in range(10)])
        full = Carved(pts)
        limited = Carved(pts, max_bites=1)
        assert len(limited.masks) == 1
        assert limited.vols[0] == pytest.approx(full.vols.max())

    def test_volume_shrinks_with_bites(self):
        pts = np.array([[float(i), float(i)] for i in range(10)])
        carved = Carved(pts)
        assert carved.vols.sum() > 0.0
        assert carved.vols.sum() < np.prod(carved.hi - carved.lo)

    def test_min_dist_at_bitten_corner_exceeds_mbr_dist(self):
        # Diagonal data: query beyond the empty (hi, lo) corner must see a
        # larger distance than the plain MBR reports.
        pts = np.array([[float(i), float(i)] for i in range(11)])
        carved = Carved(pts)
        q = np.array([12.0, -2.0])
        assert carved.min_dist(q) > carved.mbr_dist(q) + 0.1

    def test_min_dist_zero_inside_region(self):
        pts = np.array([[float(i), float(i)] for i in range(11)])
        assert Carved(pts).min_dist([5.0, 5.0]) == 0.0

    def test_min_dist_unchanged_when_clamp_hits_data(self):
        # Directly above the (10, 10) data point the clamp point is the
        # data point itself, which no bite may remove, so the bitten
        # distance equals the plain MBR distance.
        pts = np.array([[float(i), float(i)] for i in range(11)])
        carved = Carved(pts)
        q = np.array([10.0, 20.0])
        assert carved.min_dist(q) == pytest.approx(carved.mbr_dist(q))
        assert carved.min_dist(q) == pytest.approx(10.0)


class TestBittenRectProperties:
    @given(point_arrays())
    @settings(max_examples=60, deadline=None)
    def test_all_points_remain_covered(self, pts):
        assert Carved(pts).contains(pts).all()

    @given(point_arrays(min_points=3))
    @settings(max_examples=60, deadline=None)
    def test_min_dist_is_valid_lower_bound(self, pts):
        carved = Carved(pts[1:])
        q = pts[0]
        true_min = np.sqrt(((pts[1:] - q) ** 2).sum(axis=1)).min()
        assert carved.min_dist(q) <= true_min + 1e-7

    @given(point_arrays())
    @settings(max_examples=60, deadline=None)
    def test_min_dist_dominates_mbr_dist(self, pts):
        carved = Carved(pts)
        rng = np.random.default_rng(0)
        for q in rng.normal(scale=50.0, size=(5, pts.shape[1])):
            assert carved.min_dist(q) >= carved.mbr_dist(q) - 1e-9

    @given(point_arrays(min_points=4, dim=3))
    @settings(max_examples=40, deadline=None)
    def test_xjb_truncation_still_conservative(self, pts):
        carved = Carved(pts, max_bites=2)
        assert len(carved.masks) <= 2
        assert carved.contains(pts).all()
