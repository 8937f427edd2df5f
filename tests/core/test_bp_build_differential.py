"""Hypothesis differentials for the bounding-predicate build kernels.

Each expression the fast build replaced is compared with the spelling
it replaced, kept verbatim here as the oracle:

- aMAP's head-of-order ``_side_bounds`` against the masked min/max
  reduction, on all four bound arrays and on both sides of the head
  width (the constant is also patched to 1, 8 and 10**9);
- the one-comparison ``_blocked`` against the four-comparison half-open
  intersection test;
- the array ranking ``_largest`` (behind :func:`carve_rows`'s top-X
  selection) against ``sorted(key=volume, reverse=True)``, the object
  oracle's ``_top_bites``.

Points sit on a small integer grid, so duplicate coordinates, equal
volumes and obstacles that touch a bite's faces are the common case.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.amap as amap_mod
from repro.geometry import Rect
from repro.geometry.bites import _blocked, _corner_low_table

from tests.core.test_amap import _side_bounds_reduce
from tests.geometry.bite_oracle import BittenRect, _top_bites, carve_bites
from tests.geometry.test_batched_sweep import _bites_equal, carved_rects


# -- aMAP: head-of-order scoring -------------------------------------------

def _one_sided_rows(order: np.ndarray, cut: int, rng) -> list:
    """Rows that select exactly the first ``cut`` items of ``order`` (an
    axis sweep), leave exactly those out, and the same two with the
    rest of the row random — the head of ``order`` is all on one side."""
    n = len(order)
    sweep = np.zeros(n, dtype=bool)
    sweep[order[:cut]] = True
    noise = rng.integers(0, 2, size=n).astype(bool)
    noise[order[:cut]] = False
    return [sweep, ~sweep, sweep | noise, ~(sweep | noise)]


@st.composite
def bipartition_cases(draw):
    dim = draw(st.integers(1, 8))
    n = draw(st.integers(2, 300))
    cells = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    los = rng.integers(0, cells, size=(n, dim)).astype(np.float64)
    his = los
    if draw(st.booleans()):                 # rect items
        his = los + rng.integers(0, 3, size=(n, dim))
    rows = list(rng.integers(0, 2, size=(24, n)).astype(bool))
    centers = (los + his) / 2.0
    for d in range(dim):
        for keys in (los[:, d], -his[:, d], centers[:, d]):
            order = np.argsort(keys, kind="stable")
            for cut in {1, n // 4, n // 2, 3 * n // 4, n - 1}:
                if 0 < cut < n:
                    rows += _one_sided_rows(order, cut, rng)
    masks = np.stack(rows)
    keep = masks.any(axis=1) & ~masks.all(axis=1)
    return masks[keep], los, his


@given(bipartition_cases())
@settings(max_examples=60, deadline=None)
def test_side_bounds_match_the_masked_reduction(case):
    masks, los, his = case
    want = _side_bounds_reduce(masks, los, his)
    for head in (amap_mod._HEAD, 1, 8, 10 ** 9):
        with mock.patch.object(amap_mod, "_HEAD", head):
            got = amap_mod._side_bounds(masks, los, his)
        for name, g, w in zip(("lo1", "hi1", "lo2", "hi2"), got, want):
            assert np.array_equal(g, w), (name, head)


# -- JB/XJB: the blocked check ---------------------------------------------

def _blocked_four_comparisons(obs_los, obs_his, blo, bhi, low, points_mode):
    """The batched ``blocked`` check as it stood before the
    one-comparison form, verbatim."""
    if points_mode:
        pts = obs_los[:, None]
        lo_ok = (pts >= blo[:, :, None]) & (pts < bhi[:, :, None])
        hi_ok = (pts > blo[:, :, None]) & (pts <= bhi[:, :, None])
    else:
        lo_ok = ((obs_los[:, None] < bhi[:, :, None])
                 & (obs_his[:, None] >= blo[:, :, None]))
        hi_ok = ((obs_los[:, None] <= bhi[:, :, None])
                 & (obs_his[:, None] > blo[:, :, None]))
    hit = np.all(np.where(low[None, :, None, :], lo_ok, hi_ok), axis=3)
    return hit.any(axis=2)


def _corner_bites(lo, hi, depth, low):
    """``(blo, bhi)`` of the bites reaching ``depth`` inward from every
    corner of the ``(G, dim)`` boxes ``[lo, hi]``."""
    corner = np.where(low[None], lo[:, None, :], hi[:, None, :])
    inner = corner + np.where(low, 1.0, -1.0)[None] * depth
    return np.minimum(corner, inner), np.maximum(corner, inner)


@st.composite
def obstacle_cases(draw):
    dim = draw(st.integers(1, 5))
    G = draw(st.integers(1, 4))
    n = draw(st.integers(1, 40))
    cells = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    points_mode = draw(st.booleans())
    obs_los = rng.integers(0, cells, size=(G, n, dim)).astype(np.float64)
    obs_his = obs_los
    if not points_mode:
        obs_his = obs_los + rng.integers(0, 3, size=(G, n, dim))
    lo, hi = obs_los.min(axis=1), obs_his.max(axis=1)
    # grid depths from nothing (an empty bite) to the whole extent, so
    # bite faces land on obstacle coordinates all the time
    depth = np.floor(rng.random((G, 1 << dim, dim))
                     * (hi - lo + 1)[:, None, :])
    return obs_los, obs_his, lo, hi, depth, points_mode


@given(obstacle_cases())
@settings(max_examples=150, deadline=None)
def test_one_comparison_blocked_matches_four(case):
    obs_los, obs_his, lo, hi, depth, points_mode = case
    low = _corner_low_table(obs_los.shape[2])
    blo, bhi = _corner_bites(lo, hi, depth, low)
    want = _blocked_four_comparisons(obs_los, obs_his, blo, bhi, low,
                                     points_mode)
    assert np.array_equal(_blocked(obs_los, obs_his, blo, bhi, low), want)


def test_point_on_an_mbr_face_inside_the_footprint_blocks():
    """(0, 1) lies on the box's x = 0 face, inside the half-open bite
    [0, 1) x [0, 2) of the low-low corner; from the high-high corner the
    bite (2, 3] x (1, 3] holds (3, 3) itself."""
    pts = np.array([[[0.0, 1.0], [2.0, 0.0], [3.0, 3.0]]])
    low = _corner_low_table(2)
    lo, hi = pts.min(axis=1), pts.max(axis=1)
    depth = np.broadcast_to(np.array([1.0, 2.0]), (1, 4, 2))
    blo, bhi = _corner_bites(lo, hi, depth, low)
    got = _blocked(pts, pts, blo, bhi, low)
    assert np.array_equal(got, _blocked_four_comparisons(
        pts, pts, blo, bhi, low, True))
    assert got.tolist() == [[True, False, False, True]]


def test_child_rect_touching_the_inner_face_does_not_block():
    """The child [1, 2] x [0, 1] starts exactly on the open inner face
    x = 1 of the low-low bite [0, 1) x [0, 3), as does the point child
    (0, 3) on its face y = 3; one step deeper in x the first is met.
    Both are mirrored through the box's centre for the high-high
    corner."""
    los = np.array([[[1.0, 0.0], [0.0, 3.0], [2.0, 3.0], [4.0, 1.0]]])
    his = np.array([[[2.0, 1.0], [0.0, 3.0], [3.0, 4.0], [4.0, 1.0]]])
    low = _corner_low_table(2)
    lo, hi = los.min(axis=1), his.max(axis=1)
    for reach, blocked in ((1.0, False), (2.0, True)):
        depth = np.broadcast_to(np.array([reach, 3.0]), (1, 4, 2))
        blo, bhi = _corner_bites(lo, hi, depth, low)
        got = _blocked(los, his, blo, bhi, low)
        assert np.array_equal(got, _blocked_four_comparisons(
            los, his, blo, bhi, low, False))
        assert got[0, 0] == blocked and got[0, 3] == blocked


# -- XJB: which bites are kept ---------------------------------------------

def _mirrored(points: np.ndarray, dims, cells: int) -> np.ndarray:
    """``points`` with their mirror images across the grid's middle in
    each of ``dims``: corners that differ only there carve congruent
    bites, i.e. exactly equal volumes."""
    for d in dims:
        flipped = points.copy()
        flipped[:, d] = cells - 1 - flipped[:, d]
        points = np.concatenate([points, flipped])
    return points


@st.composite
def symmetric_points(draw):
    dim = draw(st.integers(1, 5))
    cells = draw(st.integers(3, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    # interior points, one of them pushed onto each face of the grid:
    # none sits in a corner, so every corner has a bite to carve
    base = rng.integers(1, cells - 1,
                        size=(2 * dim + draw(st.integers(0, 4)), dim))
    base[np.arange(dim), np.arange(dim)] = 0
    base[dim + np.arange(dim), np.arange(dim)] = cells - 1
    dims = draw(st.lists(st.integers(0, dim - 1), unique=True))
    return _mirrored(base.astype(np.float64), dims, cells)


@given(symmetric_points(), st.sampled_from([1, 10, 31, 32, None]))
@settings(max_examples=150, deadline=None)
def test_kept_bites_match_the_sorted_ranking(points, max_bites):
    every = carve_bites(Rect.from_points(points), points=points)
    want = _top_bites(every, max_bites)
    scalar = BittenRect.from_points(points, max_bites=max_bites)
    batched, = carved_rects(points[None], max_bites=max_bites)
    for pred in (scalar, batched):
        assert _bites_equal(pred.bites, want)
        assert all(np.array_equal(b.low_side, w.low_side)
                   for b, w in zip(pred.bites, want))


@pytest.mark.parametrize("max_bites", [1, 10, 31, 32, None])
def test_equal_volumes_at_the_cut_keep_the_first_corners(max_bites):
    """The centres of the ten faces of a 5-D cube: all 32 corners carve
    the same volume, so every cut falls inside a tie and the lower
    corner masks must win — what ``sorted(..., reverse=True)``'s
    stability did."""
    base = np.full((5, 5), 2.0)
    base[np.arange(5), np.arange(5)] = 0.0
    points = _mirrored(base, range(5), cells=5)
    every = carve_bites(Rect.from_points(points), points=points)
    assert len(every) == 32
    assert len({b.volume() for b in every}) == 1
    kept = BittenRect.from_points(points, max_bites=max_bites).bites
    assert _bites_equal(kept, _top_bites(every, max_bites))
    assert [b.corner_mask for b in kept] == list(range(min(
        32, 32 if max_bites is None else max_bites)))
    batched, = carved_rects(points[None], max_bites=max_bites)
    assert _bites_equal(batched.bites, kept)
