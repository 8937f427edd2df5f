"""aMAP extension: dual-rectangle minimum-volume predicates (section 5.1)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import amap as amap_mod
from repro.core.amap import AMapExtension, best_bipartition
from repro.geometry import Rect

from tests.gist.oracle import (inner_node, object_contains, pred_object,
                               row_for_keys, row_for_rows)


def _covered_volume(row):
    """The two rects' volume, their overlap counted once."""
    r1, r2 = pred_object(AMapExtension(len(row) // 4), row)
    return r1.volume() + r2.volume() - r1.intersection_volume(r2)


def _contains(row, point):
    return object_contains(pred_object(AMapExtension(len(row) // 4), row),
                           point)


@pytest.fixture
def ext():
    return AMapExtension(2, samples=256, seed=0)


class TestBestBipartition:
    def test_two_clusters_get_two_tight_rects(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(20, 2)) * 0.1
        b = rng.normal(size=(20, 2)) * 0.1 + 10.0
        pts = np.concatenate([a, b])
        row = best_bipartition(pts, pts, 512, np.random.default_rng(1))
        whole = Rect.from_points(pts)
        assert _covered_volume(row) < 0.2 * whole.volume()

    def test_never_worse_than_single_mbr(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            pts = rng.normal(size=(rng.integers(2, 30), 3))
            row = best_bipartition(pts, pts, 64, rng)
            assert _covered_volume(row) \
                <= Rect.from_points(pts).volume() + 1e-9

    def test_single_point(self):
        pts = np.array([[1.0, 2.0]])
        row = best_bipartition(pts, pts, 16, np.random.default_rng(0))
        assert _contains(row, [1.0, 2.0])

    def test_covered_volume_counts_overlap_once(self):
        row = np.array([0.0, 0.0, 2.0, 1.0, 1.0, 0.0, 3.0, 1.0])
        assert amap_mod.covered_volume(row) == pytest.approx(3.0)
        assert _covered_volume(row) == pytest.approx(3.0)


class TestExtension:
    def test_pred_for_keys_is_conservative(self, ext):
        rng = np.random.default_rng(3)
        for _ in range(5):
            keys = rng.normal(size=(40, 2))
            row = row_for_keys(ext, keys)
            assert all(_contains(row, k) for k in keys)

    def test_pred_for_preds_covers_children(self, ext):
        rng = np.random.default_rng(4)
        children = [row_for_keys(ext, rng.normal(size=(10, 2)) + off)
                    for off in (0.0, 6.0, 12.0)]
        parent = row_for_rows(ext, children)
        for child in children:
            assert ext.covers(parent, child)

    def test_min_dist_is_min_of_rects(self, ext):
        node = inner_node([[0.0, 0.0, 1.0, 1.0, 5.0, 0.0, 6.0, 1.0]])
        q = np.array([4.5, 0.5])
        assert ext.min_dists_node(node, q)[0] == pytest.approx(0.5)

    def test_codec_decodes_mappred(self, ext):
        """A row's layout is ``[lo1, hi1, lo2, hi2]``: its footprint is
        the union of the two rects."""
        block = np.array([[0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0]])
        lo, hi = ext.block_bounds(block)
        assert lo.tolist() == [[0.0, 0.0]] and hi.tolist() == [[3.0, 3.0]]
        assert ext.pred_codec().numbers == 4 * ext.dim

    @given(hnp.arrays(np.float64, st.tuples(st.integers(2, 25), st.just(2)),
                      elements=st.floats(-100, 100, width=32)))
    @settings(max_examples=30, deadline=None)
    def test_conservative_on_arbitrary_data(self, keys):
        ext = AMapExtension(2, samples=64, seed=1)
        row = row_for_keys(ext, keys)
        assert all(_contains(row, k) for k in keys)


def _map_preds_equal(a, b):
    return a.tobytes() == b.tobytes()


def _side_bounds_reduce(masks, los, his):
    """The masked min/max reduction ``_side_bounds`` replaced."""
    big = np.inf
    lo1 = np.where(masks[:, :, None], los[None], big).min(axis=1)
    hi1 = np.where(masks[:, :, None], his[None], -big).max(axis=1)
    lo2 = np.where(masks[:, :, None], big, los[None]).min(axis=1)
    hi2 = np.where(masks[:, :, None], -big, his[None]).max(axis=1)
    return lo1, hi1, lo2, hi2


def _reference(build):
    """``build()`` with its candidates scored by the reduction."""
    with mock.patch.object(amap_mod, "_side_bounds", _side_bounds_reduce):
        return build()


class TestBipartitionKernels:
    """The order-statistics kernel against the masked-reduce reference.

    Both evaluate the same sampled bipartitions with the same RNG
    stream, so the winning predicate must match to the bit — that
    equality is what let the fast kernel replace the reference in the
    bulk-load pipeline without changing a single page byte.
    """

    @pytest.mark.parametrize("n,dim", [(2, 2), (3, 5), (40, 3), (170, 5)])
    def test_kernels_bit_identical(self, n, dim):
        rng = np.random.default_rng(n * 10 + dim)
        pts = rng.normal(size=(n, dim))
        fast = best_bipartition(pts, pts, 256, np.random.default_rng(9))
        ref = _reference(lambda: best_bipartition(
            pts, pts, 256, np.random.default_rng(9)))
        assert _map_preds_equal(fast, ref)

    def test_kernels_bit_identical_on_rects(self):
        rng = np.random.default_rng(11)
        los = rng.normal(size=(25, 4))
        his = los + rng.uniform(0.1, 1.0, size=los.shape)
        fast = best_bipartition(los, his, 128, np.random.default_rng(3))
        ref = _reference(lambda: best_bipartition(
            los, his, 128, np.random.default_rng(3)))
        assert _map_preds_equal(fast, ref)

    def test_extension_kernel_choice_does_not_change_preds(self):
        rng = np.random.default_rng(13)
        keys = rng.normal(size=(60, 3))
        fast = row_for_keys(AMapExtension(3, samples=128, seed=5), keys)
        ref = _reference(lambda: row_for_keys(AMapExtension(
            3, samples=128, seed=5), keys))
        assert _map_preds_equal(fast, ref)
