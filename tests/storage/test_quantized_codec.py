"""QuantizedLeafCodec: round-trip properties and hostile inputs.

The SQ8 contract under test: every reconstruction lies within the
per-dimension cell half width of its original AND inside the page's
exact key bounding box; RIDs survive delta packing exactly; and every
malformed input — truncated bodies, non-finite keys, oversized RID
spreads, damaged affine params — raises the documented error instead
of decoding garbage.
"""

import numpy as np
import pytest

from repro.storage.codecs import (LeafBodyCodec, QuantizedKeys,
                                  QuantizedLeafCodec, make_leaf_codec)
from repro.storage.errors import PageCorruptError

DIM = 5


@pytest.fixture
def codec():
    return QuantizedLeafCodec(DIM)


def roundtrip(codec, keys, rids):
    body = codec.encode_block(np.asarray(keys, dtype=np.float64),
                              list(rids))
    block, rid_arr = codec.decode_block(body, len(rids))
    return block, rid_arr


# ---------------------------------------------------------------------------
# round-trip properties
# ---------------------------------------------------------------------------

class TestRoundTrip:
    def test_error_bounded_by_half_width(self, codec):
        rng = np.random.default_rng(0)
        keys = rng.normal(size=(200, DIM)) * rng.uniform(0.5, 50, DIM)
        block, rids = roundtrip(codec, keys, range(200))
        recon = block.dequantize()
        half = block.half_widths()
        # encode sorts by RID; range() is already sorted, so rows align.
        assert (np.abs(recon - keys) <= half + 1e-12).all()
        assert (recon >= block.mins).all() and (recon <= block.maxs).all()

    def test_rids_exact_and_sorted(self, codec):
        rng = np.random.default_rng(1)
        rids = rng.choice(10_000_000, size=64, replace=False)
        keys = rng.normal(size=(64, DIM))
        _, rid_arr = roundtrip(codec, keys, rids)
        assert rid_arr.dtype == np.int64
        assert rid_arr.tolist() == sorted(int(r) for r in rids)
        assert (np.diff(rid_arr) > 0).all()

    def test_zero_range_dimension_is_exact(self, codec):
        """A dimension where every key agrees has scale 0: the codes
        are meaningless there and decode must return the constant."""
        rng = np.random.default_rng(2)
        keys = rng.normal(size=(30, DIM))
        keys[:, 2] = 7.25
        block, _ = roundtrip(codec, keys, range(30))
        recon = block.dequantize()
        assert (recon[:, 2] == 7.25).all()
        assert block.half_widths()[2] == 0.0

    def test_all_dimensions_constant(self, codec):
        keys = np.tile(np.arange(DIM, dtype=np.float64), (8, 1))
        block, rids = roundtrip(codec, keys, range(8))
        assert (block.dequantize() == keys).all()
        assert (block.half_widths() == 0.0).all()

    def test_single_entry_page(self, codec):
        keys = np.array([[1.0, -2.0, 3.5, 0.0, 9.9]])
        block, rids = roundtrip(codec, keys, [41])
        assert (block.dequantize() == keys).all()
        assert rids.tolist() == [41]

    def test_empty_page(self, codec):
        assert codec.encode_block(np.empty((0, DIM)), []) == b""
        keys, rids = codec.decode_block(b"", 0)
        assert len(keys) == 0 and len(rids) == 0

    def test_capacity_vs_float64(self, codec):
        """The acceptance bar: >= 4x the float64 fanout at dim=5."""
        exact = LeafBodyCodec(DIM)
        assert codec.capacity(8192) >= 4 * exact.capacity(8192)

    def test_decode_is_lazy_views(self, codec):
        rng = np.random.default_rng(3)
        body = codec.encode_block(rng.normal(size=(50, DIM)), range(50))
        block, _ = codec.decode_block(body, 50)
        assert isinstance(block, QuantizedKeys)
        assert block.codes.dtype == np.uint8
        assert not block.codes.flags.owndata  # still a view over the body


# ---------------------------------------------------------------------------
# hostile inputs
# ---------------------------------------------------------------------------

class TestHostileInput:
    def test_truncated_body_raises(self, codec):
        rng = np.random.default_rng(4)
        body = codec.encode_block(rng.normal(size=(20, DIM)), range(20))
        with pytest.raises(PageCorruptError, match="truncated"):
            codec.decode_block(body[:-5], 20)
        with pytest.raises(PageCorruptError, match="truncated"):
            codec.decode_block(body[:codec.preamble], 20)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_keys_raise(self, codec, bad):
        keys = np.zeros((4, DIM))
        keys[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            codec.encode_block(keys, range(4))

    def test_damaged_affine_params_raise(self, codec):
        rng = np.random.default_rng(5)
        body = bytearray(
            codec.encode_block(rng.normal(size=(10, DIM)), range(10)))
        # Swap mins and maxs for dimension 0: maxs < mins.
        lo, hi = bytes(body[:8]), bytes(body[DIM * 8:DIM * 8 + 8])
        body[:8], body[DIM * 8:DIM * 8 + 8] = hi, lo
        with pytest.raises(PageCorruptError, match="affine"):
            codec.decode_block(bytes(body), 10)

    def test_nan_affine_params_raise(self, codec):
        rng = np.random.default_rng(6)
        body = bytearray(
            codec.encode_block(rng.normal(size=(10, DIM)), range(10)))
        body[:8] = np.float64("nan").tobytes()
        with pytest.raises(PageCorruptError, match="affine"):
            codec.decode_block(bytes(body), 10)

    def test_rid_spread_beyond_u4_raises(self, codec):
        keys = np.zeros((2, DIM))
        with pytest.raises(ValueError, match="RID spread"):
            codec.encode_block(keys, [0, 1 << 32])

    def test_shape_mismatch_raises(self, codec):
        with pytest.raises(ValueError, match="keys"):
            codec.encode_block(np.zeros((3, DIM + 1)), range(3))

    def test_per_entry_interface_is_blocked(self, codec):
        """SQ8 affine params are per page: there is no scalar
        encode/decode, only the block pair."""
        assert not hasattr(codec, "encode")
        assert not hasattr(codec, "decode")


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

def test_registry_resolves_both_codecs():
    assert isinstance(make_leaf_codec("f64", 3), LeafBodyCodec)
    sq8 = make_leaf_codec("sq8", 3)
    assert isinstance(sq8, QuantizedLeafCodec)
    assert sq8.lossy and not make_leaf_codec("f64", 3).lossy
    with pytest.raises(ValueError, match="unknown leaf codec"):
        make_leaf_codec("zstd", 3)
