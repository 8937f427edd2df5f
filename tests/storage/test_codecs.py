"""Codec roundtrips and the paper's Table 3 size formulas."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.constants import NUMBER_SIZE
from repro.gist import Node
from repro.storage.codecs import (
    DualRectCodec,
    InnerBodyCodec,
    JBCodec,
    LeafBodyCodec,
    NodeCodec,
    RectCodec,
    RectSphereCodec,
    SphereCodec,
    XJBCodec,
)

from tests.geometry.bite_oracle import BittenRect, decode


def finite_floats():
    return st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                     allow_infinity=False, width=32)


class TestTable3Sizes:
    """Size of the array necessary to store each BP (paper Table 3)."""

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_mbr_is_2d_numbers(self, dim):
        assert RectCodec(dim).numbers == 2 * dim

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_map_is_4d_numbers(self, dim):
        assert DualRectCodec(dim).numbers == 4 * dim

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_jb_is_2_plus_2tod_times_d(self, dim):
        assert JBCodec(dim).numbers == (2 + 2 ** dim) * dim

    @pytest.mark.parametrize("dim,x", [(5, 10), (5, 0), (3, 4)])
    def test_xjb_is_2d_plus_d1_x(self, dim, x):
        assert XJBCodec(dim, x).numbers == 2 * dim + (dim + 1) * x

    def test_xjb_x_bounds(self):
        with pytest.raises(ValueError):
            XJBCodec(3, 9)
        with pytest.raises(ValueError):
            XJBCodec(3, -1)

    def test_paper_xjb_default(self):
        # The paper's configuration: D=5, X=10 -> 70 numbers.
        assert XJBCodec(5, 10).numbers == 70


def _through_body(pred_codec, row):
    """``row`` written into an inner page body and read back."""
    body = InnerBodyCodec(pred_codec).encode_block(
        np.asarray(row, dtype=np.float64)[None], np.array([0]))
    preds, _ = InnerBodyCodec(pred_codec).decode_block(body, 1)
    return preds[0]


def _written(codec, pred):
    """An oracle bitten rect as its codec's row."""
    keep = np.zeros((1, 1 << codec.dim), dtype=bool)
    inners = np.zeros((1, 1 << codec.dim, codec.dim))
    for b in pred.bites:
        keep[0, b.corner_mask] = True
        inners[0, b.corner_mask] = b.inner
    return codec.write(pred.rect.lo[None], pred.rect.hi[None], keep,
                       inners)[0]


class TestRoundtrips:
    """Each family's row layout survives an inner page body bit for bit,
    and the bitten layouts decode back into the region written."""

    def test_vector_shape_check(self):
        with pytest.raises(ValueError):
            LeafBodyCodec(3).encode_block(np.zeros((1, 4)), [0])

    def test_rect(self):
        row = [0.0, -1.0, 2.0, 1.0, 0.0, 3.0]
        out = _through_body(RectCodec(3), row)
        assert out.tolist() == row
        assert RectCodec(3).block_error(out[None]) is None

    def test_sphere(self):
        row = [1.0, 2.0, 3.0, 4.5]
        out = _through_body(SphereCodec(3), row)
        assert out.tolist() == row
        assert SphereCodec(3).block_error(out[None]) is None
        assert SphereCodec(3).block_error(-out[None]) \
            == (0, "negative radius")

    def test_rect_sphere(self):
        row = [0.0, 0.0, 1.0, 1.0, 0.5, 0.5, 0.71]
        out = _through_body(RectSphereCodec(2), row)
        assert out.tolist() == row
        assert RectSphereCodec(2).block_error(out[None]) is None

    def test_dual_rect(self):
        row = [0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 4.0]
        out = _through_body(DualRectCodec(2), row)
        assert out.tolist() == row
        bad = out.copy()
        bad[4] = 9.0                        # second rect: lo past hi
        assert DualRectCodec(2).block_error(bad[None]) \
            == (0, "degenerate rect: lo exceeds hi")

    def test_jb_roundtrip_preserves_region(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(40, 3))
        br = BittenRect.from_points(pts)
        c = JBCodec(3)
        out = decode(c, _through_body(c, _written(c, br)))
        assert out.rect == br.rect
        assert len(out.bites) == len(br.bites)
        probe = rng.normal(size=(200, 3))
        assert np.array_equal(out.contains_points(probe),
                              br.contains_points(probe))

    def test_xjb_roundtrip_preserves_region(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(40, 3))
        br = BittenRect.from_points(pts, max_bites=4)
        c = XJBCodec(3, 4)
        out = decode(c, _through_body(c, _written(c, br)))
        probe = rng.normal(size=(200, 3))
        assert np.array_equal(out.contains_points(probe),
                              br.contains_points(probe))

    def test_xjb_too_many_bites_rejected(self):
        pts = np.array([[float(i), float(i)] for i in range(8)])
        br = BittenRect.from_points(pts)  # up to 4 bites in 2-D
        if len(br.bites) > 1:
            with pytest.raises(ValueError):
                _written(XJBCodec(2, 1), br)

    def test_leaf_entry(self):
        c = LeafBodyCodec(4)
        key = np.array([1.0, 2.0, 3.0, 4.0])
        body = c.encode_block(key[None, :], [77])
        assert len(body) == c.size
        keys, rids = c.decode_block(body, 1)
        assert np.array_equal(keys[0], key) and rids.tolist() == [77]

    def test_index_entry(self):
        c = InnerBodyCodec(RectCodec(2))
        block = np.array([[0.0, 0.0, 1.0, 1.0]])
        body = c.encode_block(block, np.array([12]))
        assert len(body) == c.size
        preds, children = c.decode_block(body, 1)
        assert preds.tobytes() == block.tobytes()
        assert children.tolist() == [12]

    @given(hnp.arrays(np.float64, st.tuples(st.integers(2, 20), st.just(3)),
                      elements=finite_floats()))
    @settings(max_examples=30, deadline=None)
    def test_jb_roundtrip_property(self, pts):
        br = BittenRect.from_points(pts)
        out = decode(JBCodec(3), _written(JBCodec(3), br))
        # Every original point must remain covered after the roundtrip.
        assert out.contains_points(pts).all()


class TestNodeCodec:
    def _codec(self, page_size=4096):
        return NodeCodec(page_size, LeafBodyCodec(2),
                         InnerBodyCodec(RectCodec(2)))

    def test_leaf_roundtrip(self):
        c = self._codec()
        leaf = Node.leaf_from_arrays(9, np.array([[1.0, 2.0], [3.0, 4.0]]),
                                     np.array([5, 6]))
        out = c.decode_node(c.encode_nodes([leaf])[0], 9)
        assert (out.page_id, out.level) == (9, 0)
        assert len(out) == 2 and out.rids()[1] == 6

    def test_index_roundtrip(self):
        c = self._codec()
        inner = Node.inner_from_block(1, 2, np.array([[0.0, 0.0, 1.0, 1.0]]),
                                      np.array([3]))
        out = c.decode_node(c.encode_nodes([inner])[0], 1)
        assert out.level == 2 and out.children() == [3]

    def test_page_image_is_fixed_size(self):
        c = self._codec()
        assert c.encode_nodes([Node(1, 0)]).shape == (1, 4096)

    def test_overflow_rejected(self):
        c = self._codec(page_size=64)
        leaf = Node.leaf_from_arrays(1, np.zeros((10, 2)), np.arange(10))
        with pytest.raises(ValueError):
            c.encode_nodes([leaf])
