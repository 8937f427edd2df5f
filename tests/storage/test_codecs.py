"""Codec roundtrips and the paper's Table 3 size formulas."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.constants import NUMBER_SIZE
from repro.geometry import BittenRect, Rect, Sphere
from repro.gist import IndexEntry, LeafEntry, Node
from repro.storage.codecs import (
    DualRectCodec,
    IndexEntryCodec,
    JBCodec,
    LeafEntryCodec,
    NodeCodec,
    RectCodec,
    RectSphereCodec,
    SphereCodec,
    XJBCodec,
)


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


class TestRoundtrips:
    def test_vector_shape_check(self):
        with pytest.raises(ValueError):
            LeafEntryCodec(3).encode_block(np.zeros((1, 4)), [0])

    def test_rect(self):
        c = RectCodec(3)
        r = Rect([0.0, -1.0, 2.0], [1.0, 0.0, 3.0])
        assert c.decode(c.encode(r)) == r

    def test_sphere(self):
        c = SphereCodec(3)
        s = Sphere([1.0, 2.0, 3.0], 4.5)
        out = c.decode(c.encode(s))
        assert out == s

    def test_rect_sphere(self):
        c = RectSphereCodec(2)
        r = Rect([0.0, 0.0], [1.0, 1.0])
        s = Sphere([0.5, 0.5], 0.71)
        r2, s2 = c.decode(c.encode((r, s)))
        assert r2 == r and s2 == s

    def test_dual_rect(self):
        c = DualRectCodec(2)
        pair = (Rect([0.0, 0.0], [1.0, 1.0]), Rect([2.0, 2.0], [3.0, 4.0]))
        r1, r2 = c.decode(c.encode(pair))
        assert (r1, r2) == pair

    def test_jb_roundtrip_preserves_region(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(40, 3))
        br = BittenRect.from_points(pts)
        c = JBCodec(3)
        out = c.decode(c.encode(br))
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
        out = c.decode(c.encode(br))
        probe = rng.normal(size=(200, 3))
        assert np.array_equal(out.contains_points(probe),
                              br.contains_points(probe))

    def test_xjb_too_many_bites_rejected(self):
        pts = np.array([[float(i), float(i)] for i in range(8)])
        br = BittenRect.from_points(pts)  # up to 4 bites in 2-D
        if len(br.bites) > 1:
            with pytest.raises(ValueError):
                XJBCodec(2, 1).encode(br)

    def test_leaf_entry(self):
        c = LeafEntryCodec(4)
        key = np.array([1.0, 2.0, 3.0, 4.0])
        body = c.encode_block(key[None, :], [77])
        assert len(body) == c.size
        keys, rids = c.decode_block(body, 1)
        assert np.array_equal(keys[0], key) and rids.tolist() == [77]

    def test_index_entry(self):
        c = IndexEntryCodec(RectCodec(2))
        r = Rect([0.0, 0.0], [1.0, 1.0])
        block = np.frombuffer(RectCodec(2).encode(r), dtype="<f8")[None, :]
        body = c.encode_block(block, np.array([12]))
        assert len(body) == c.size
        preds, children = c.decode_block(body, 1)
        assert RectCodec(2).decode(preds[0].tobytes()) == r
        assert children.tolist() == [12]

    @given(hnp.arrays(np.float64, st.tuples(st.integers(2, 20), st.just(3)),
                      elements=finite_floats()))
    @settings(max_examples=30, deadline=None)
    def test_jb_roundtrip_property(self, pts):
        br = BittenRect.from_points(pts)
        out = JBCodec(3).decode(JBCodec(3).encode(br))
        # Every original point must remain covered after the roundtrip.
        assert out.contains_points(pts).all()


class TestNodeCodec:
    def _codec(self, page_size=4096):
        return NodeCodec(page_size, LeafEntryCodec(2),
                         IndexEntryCodec(RectCodec(2)))

    def test_leaf_roundtrip(self):
        c = self._codec()
        leaf = Node.from_entries(9, 0, [LeafEntry(np.array([1.0, 2.0]), 5),
                                        LeafEntry(np.array([3.0, 4.0]), 6)])
        out = c.decode_node(c.encode_nodes([leaf])[0], 9)
        assert (out.page_id, out.level) == (9, 0)
        assert len(out) == 2 and out.entries[1].rid == 6

    def test_index_roundtrip(self):
        c = self._codec()
        inner = Node.from_entries(
            1, 2, [IndexEntry(Rect([0.0, 0.0], [1.0, 1.0]), 3)],
            RectCodec(2))
        out = c.decode_node(c.encode_nodes([inner])[0], 1)
        assert out.level == 2 and out.entries[0].child == 3

    def test_page_image_is_fixed_size(self):
        c = self._codec()
        assert c.encode_nodes([Node(1, 0)]).shape == (1, 4096)

    def test_overflow_rejected(self):
        c = self._codec(page_size=64)
        leaf = Node.from_entries(1, 0, [LeafEntry(np.array([0.0, 0.0]), i)
                                        for i in range(10)])
        with pytest.raises(ValueError):
            c.encode_nodes([leaf])
