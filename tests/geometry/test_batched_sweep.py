"""Batched sweep-carve kernels against their scalar references.

Three layers of equivalence, each exact (not approximate):

- :func:`_sweep_corners` (the factored corner-lattice kernel) against
  :func:`_sweep_rows` (the expanded per-corner kernel it replaced, kept
  below as the oracle) — bit identity;
- :func:`carve_rows` against the object oracle's per-group
  :meth:`BittenRect.from_points` / :meth:`from_rect_bounds`
  (``tests/geometry/bite_oracle.py``);
- the ``"sweep"`` carve method against the oracle's per-corner loop
  (:func:`_sweep_scalar`, over the ``_corner_proxies`` +
  ``_sweep_corner`` pair).

Bit identity is what makes page bytes independent of how a level's
nodes are grouped: any subset of groups may be carved together.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.geometry import Rect
from repro.geometry.bites import _corner_low_table, _sweep_corners, carve_rows

from tests.geometry.bite_oracle import (BittenRect, _PointObstacles,
                                        _RectObstacles, _sweep_scalar,
                                        from_carve)


def carved_rects(los, his=None, max_bites=None):
    """:func:`carve_rows` on ``G`` groups as oracle bitten rects."""
    return from_carve(*carve_rows(los, los if his is None else his,
                                  max_bites))


def _sweep_rows(c: np.ndarray, extent: np.ndarray):
    """The oracle for :func:`_sweep_corners`: ``_sweep_corner``'s core
    over ``R`` independent corners, one expanded distance row each.

    ``c`` is an ``(R, n, dim)`` array of obstacle distances inward from
    each row's corner; ``extent`` the ``(R, dim)`` box extents.  Returns
    ``(best_s, best_vol)``: each row's best cut depths and its volume
    (0.0 where no positive-volume cut exists).  Row ``r`` is
    bit-identical to the scalar sweep on the same inputs: the per-row
    stable argsort, prefix-minimum recurrence, volume products and
    first-maximum tie-breaks are all the same float operations in the
    same order, just laid out with a leading batch axis.
    """
    R, n, dim = c.shape
    rows = np.arange(R)
    best_vol = np.zeros(R)
    best_s = np.zeros((R, dim))
    for d in range(dim):
        order = np.argsort(c[:, :, d], axis=1, kind="stable")
        sorted_c = np.take_along_axis(c, order[:, :, None], axis=1)
        clipped = np.minimum(sorted_c, extent[:, None, :])
        # s[r, i]: cut after the first i obstacles — prefix minimum in
        # every dimension except the sweep dimension d, which reaches
        # obstacle i's own coordinate (the box extent at i == n).
        s = np.empty((R, n + 1, dim))
        s[:, 0] = extent
        np.minimum.accumulate(clipped, axis=1, out=s[:, 1:])
        s[:, :n, d] = clipped[:, :, d]
        s[:, n, d] = extent[:, d]
        vols = np.prod(np.clip(s, 0.0, None), axis=2)
        i = np.argmax(vols, axis=1)
        vd = vols[rows, i]
        improve = vd > best_vol
        best_vol[improve] = vd[improve]
        best_s[improve] = s[improve, i[improve]]
    return best_s, best_vol


def _bites_equal(a, b):
    if len(a) != len(b):
        return False
    return all(x.corner_mask == y.corner_mask
               and np.array_equal(x.lo, y.lo)
               and np.array_equal(x.hi, y.hi)
               and np.array_equal(x.inner, y.inner)
               for x, y in zip(a, b))


class TestSweepCornersKernel:
    @pytest.mark.parametrize("G,n,dim", [(1, 1, 2), (3, 0, 2), (5, 1, 4),
                                         (7, 13, 3), (11, 40, 5)])
    def test_bit_identical_to_expanded_rows(self, G, n, dim):
        rng = np.random.default_rng(G * 100 + n)
        M = 1 << dim
        low = _corner_low_table(dim)
        pts = rng.normal(size=(G, n, dim))
        lo = pts.min(axis=1) if n else -np.ones((G, dim))
        hi = pts.max(axis=1) if n else np.ones((G, dim))
        extent = hi - lo
        a_low = pts - lo[:, None, :]
        a_high = hi[:, None, :] - pts
        c = np.where(low[None, :, None, :], a_low[:, None],
                     a_high[:, None])
        s_ref, v_ref = _sweep_rows(c.reshape(G * M, n, dim),
                                   np.repeat(extent, M, axis=0))
        s_new, v_new = _sweep_corners(a_low, a_high, extent, low)
        assert np.array_equal(v_new, v_ref.reshape(G, M))
        assert np.array_equal(s_new, s_ref.reshape(G, M, dim))

    def test_duplicate_coordinates_tie_break_identically(self):
        """Stable-sort ties are where a factored kernel could diverge."""
        rng = np.random.default_rng(2)
        pts = rng.integers(0, 3, size=(4, 20, 3)).astype(np.float64)
        dim = 3
        M = 1 << dim
        low = _corner_low_table(dim)
        lo, hi = pts.min(axis=1), pts.max(axis=1)
        extent = hi - lo
        a_low = pts - lo[:, None, :]
        a_high = hi[:, None, :] - pts
        c = np.where(low[None, :, None, :], a_low[:, None],
                     a_high[:, None])
        s_ref, v_ref = _sweep_rows(c.reshape(-1, 20, dim),
                                   np.repeat(extent, M, axis=0))
        s_new, v_new = _sweep_corners(a_low, a_high, extent, low)
        assert np.array_equal(v_new, v_ref.reshape(4, M))
        assert np.array_equal(s_new, s_ref.reshape(4, M, dim))


class TestBatchedAgainstScalar:
    def test_points_mode_matches_from_points(self):
        rng = np.random.default_rng(3)
        groups = rng.normal(size=(9, 25, 4))
        batched = carved_rects(groups)
        for g, pred in enumerate(batched):
            scalar = BittenRect.from_points(groups[g])
            assert np.array_equal(pred.rect.lo, scalar.rect.lo)
            assert np.array_equal(pred.rect.hi, scalar.rect.hi)
            assert _bites_equal(pred.bites, scalar.bites)

    def test_rect_mode_matches_from_rect_bounds(self):
        rng = np.random.default_rng(4)
        centers = rng.normal(size=(6, 10, 3))
        los = centers - rng.uniform(0.1, 0.5, size=centers.shape)
        his = centers + rng.uniform(0.1, 0.5, size=centers.shape)
        batched = carved_rects(los, his)
        for g, pred in enumerate(batched):
            scalar = BittenRect.from_rect_bounds(los[g], his[g])
            assert _bites_equal(pred.bites, scalar.bites)

    def test_max_bites_truncation_matches(self):
        rng = np.random.default_rng(5)
        groups = rng.normal(size=(5, 30, 3))
        batched = carved_rects(groups, max_bites=2)
        for g, pred in enumerate(batched):
            scalar = BittenRect.from_points(groups[g], max_bites=2)
            assert _bites_equal(pred.bites, scalar.bites)

    def test_chunked_batches_match_single_batch(self):
        """Groups split across kernel chunks carve identically."""
        import repro.geometry.bites as bites_mod
        rng = np.random.default_rng(6)
        groups = rng.normal(size=(12, 18, 3))
        whole = carved_rects(groups)
        budget = bites_mod._BATCH_FLOAT_BUDGET
        bites_mod._BATCH_FLOAT_BUDGET = 1  # one group per kernel call
        try:
            chunked = carved_rects(groups)
        finally:
            bites_mod._BATCH_FLOAT_BUDGET = budget
        for a, b in zip(whole, chunked):
            assert _bites_equal(a.bites, b.bites)

    @given(hnp.arrays(np.float64, st.tuples(st.integers(2, 25),
                                            st.integers(2, 3)),
                      elements=st.floats(-50, 50, width=32)))
    @settings(max_examples=40, deadline=None)
    def test_single_group_always_matches_scalar(self, pts):
        batched, = carved_rects(pts[None])
        scalar = BittenRect.from_points(pts)
        assert _bites_equal(batched.bites, scalar.bites)


class TestSweepScalarReference:
    def test_sweep_equals_sweep_scalar(self):
        rng = np.random.default_rng(8)
        for n in (2, 7, 40):
            pts = rng.normal(size=(n, 3))
            rect = Rect.from_points(pts)
            fast = carved_rects(pts[None])[0].bites
            ref = _sweep_scalar(rect, _PointObstacles(pts))
            assert _bites_equal(fast, ref)

    def test_sweep_equals_sweep_scalar_on_rects(self):
        rng = np.random.default_rng(9)
        centers = rng.normal(size=(8, 3))
        rects = [Rect(c - 0.3, c + 0.3) for c in centers]
        outer = Rect.from_rects(rects)
        fast = carved_rects(np.stack([r.lo for r in rects])[None],
                                  np.stack([r.hi for r in rects])[None]
                                  )[0].bites
        ref = _sweep_scalar(outer, _RectObstacles(rects))
        assert _bites_equal(fast, ref)
