"""Property-based fuzzing of every fixed-size codec and of the page
codec that packs them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.bulk import bulk_load
from repro.geometry import Rect
from repro.storage.codecs import (
    DualRectCodec,
    JBCodec,
    NodeCodec,
    RectCodec,
    SphereCodec,
    XJBCodec,
    make_leaf_codec,
)

from tests.conftest import make_ext
from tests.geometry.bite_oracle import BittenRect, decode
from tests.storage.test_codecs import _through_body, _written

FAMILIES = ("rtree", "sstree", "srtree", "jb", "xjb", "amap")

floats = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False,
                   allow_infinity=False, width=32)


def vectors(dim):
    return hnp.arrays(np.float64, (dim,), elements=floats)


@st.composite
def rects(draw, dim=3):
    a = draw(vectors(dim))
    b = draw(vectors(dim))
    return Rect(np.minimum(a, b), np.maximum(a, b))


class TestFuzzRoundtrips:
    @given(rects())
    @settings(max_examples=60)
    def test_rect(self, r):
        row = np.concatenate([r.lo, r.hi])
        out = _through_body(RectCodec(3), row)
        assert out.tobytes() == row.tobytes()
        assert RectCodec(3).block_error(out[None]) is None

    @given(vectors(3), st.floats(0, 1e9, allow_nan=False, width=32))
    @settings(max_examples=60)
    def test_sphere(self, center, radius):
        row = np.append(center, radius)
        out = _through_body(SphereCodec(3), row)
        assert out.tobytes() == row.tobytes()
        assert SphereCodec(3).block_error(out[None]) is None

    @given(rects(), rects())
    @settings(max_examples=40)
    def test_dual_rect(self, r1, r2):
        row = np.concatenate([r1.lo, r1.hi, r2.lo, r2.hi])
        out = _through_body(DualRectCodec(3), row)
        assert out.tobytes() == row.tobytes()
        assert DualRectCodec(3).block_error(out[None]) is None

    @given(hnp.arrays(np.float64, st.tuples(st.integers(2, 25),
                                            st.just(3)),
                      elements=st.floats(-1e4, 1e4, allow_nan=False,
                                         width=32)),
           st.integers(0, 8))
    @settings(max_examples=40, deadline=None)
    def test_xjb_region_semantics_survive(self, pts, x):
        """Decoded XJB predicates keep the exact same covered region."""
        br = BittenRect.from_points(pts, max_bites=x)
        c = XJBCodec(3, 8)
        out = decode(c, _written(c, br))
        rng = np.random.default_rng(0)
        lo, hi = br.rect.lo - 1.0, br.rect.hi + 1.0
        probes = lo + rng.random((300, 3)) * (hi - lo)
        assert np.array_equal(out.contains_points(probes),
                              br.contains_points(probes))

    @given(hnp.arrays(np.float64, st.tuples(st.integers(2, 25),
                                            st.just(2)),
                      elements=st.floats(-1e4, 1e4, allow_nan=False,
                                         width=32)))
    @settings(max_examples=40, deadline=None)
    def test_jb_min_dist_survives(self, pts):
        """Distance refinement behaves identically after a roundtrip."""
        br = BittenRect.from_points(pts)
        out = decode(JBCodec(2), _written(JBCodec(2), br))
        rng = np.random.default_rng(1)
        for q in rng.normal(scale=2e4, size=(5, 2)):
            assert out.min_dist(q) == pytest.approx(br.min_dist(q),
                                                    rel=1e-9, abs=1e-9)


class TestPageRoundTrip:
    """``decode_node`` inverts ``encode_nodes`` on every page of every
    AM family, for both leaf codecs: the page codec the stores, the
    WAL and persistence all share."""

    @pytest.mark.parametrize("codec", ["f64", "sq8"])
    @pytest.mark.parametrize("family", FAMILIES)
    @given(keys=hnp.arrays(np.float64,
                           st.tuples(st.integers(1, 150), st.just(2)),
                           elements=st.floats(-1e4, 1e4, allow_nan=False,
                                              width=32)))
    @settings(max_examples=15, deadline=None)
    def test_decode_node_inverts_encode_nodes(self, family, codec, keys):
        leaf_codec = make_leaf_codec(codec, 2)
        tree = bulk_load(make_ext(family, 2), keys, page_size=512,
                         leaf_codec=leaf_codec)
        pages = NodeCodec(512, leaf_codec, tree.index_codec)
        nodes = list(tree.iter_nodes())
        for node, image in zip(nodes, pages.encode_nodes(nodes)):
            out = pages.decode_node(image, node.page_id)
            assert (out.page_id, out.level, len(out)) \
                == (node.page_id, node.level, len(node))
            if not node.is_leaf:
                assert out.pred_block().tobytes() \
                    == node.pred_block().tobytes()
                assert out.children() == node.children()
                continue
            rids = node.rid_array()
            if codec == "f64":
                assert np.array_equal(out.rid_array(), rids)
                assert np.array_equal(out.keys_array(), node.keys_array())
                continue
            # SQ8 stores a page's entries by ascending rid, each key
            # within its quantization cell of the original.
            order = np.argsort(rids, kind="stable")
            assert np.array_equal(out.rid_array(), rids[order])
            error = np.abs(out.keys_array() - keys[rids[order]])
            assert (error <= out.key_halfwidths() * (1 + 1e-9)
                    + 1e-9).all()
