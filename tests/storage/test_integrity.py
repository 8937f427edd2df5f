"""Page checksums: CRC-32 sealing, epoch refusal and bit-flip detection.

The oracle is the stdlib's ``zlib.crc32`` over a copy of the image with
its checksum field zeroed: every entry point is held to it, on every
kind of buffer a caller hands the seal.
"""

import mmap
import random
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import DEFAULT_PAGE_SIZE
from repro.gist import Node
from repro.storage.codecs import LeafBodyCodec, InnerBodyCodec, \
    NodeCodec, RectCodec
from repro.storage.errors import PageCorruptError
from repro.storage.integrity import (CHECKSUM_OFFSET, FORMAT_EPOCH, crc32,
                                     page_crc, seal_image, seal_images,
                                     verify_image)
from repro.storage.wal import CRC32_HD4_BITS, MAX_PAGE_SIZE

from tests.storage.epoch1 import epoch1_page


def reference_page_crc(image):
    """``page_crc`` by the oracle: zero the field in a copy, checksum."""
    zeroed = bytearray(bytes(image))
    zeroed[CHECKSUM_OFFSET:CHECKSUM_OFFSET + 4] = bytes(4)
    return zlib.crc32(bytes(zeroed))


def reference_seal(image):
    """``seal_image`` by the oracle: stamp the epoch, checksum the image
    with its crc field zeroed, splice the checksum in."""
    stamped = (image[:CHECKSUM_OFFSET] + struct.pack("<II", 0, FORMAT_EPOCH)
               + image[CHECKSUM_OFFSET + 8:])
    return (stamped[:CHECKSUM_OFFSET]
            + struct.pack("<I", zlib.crc32(stamped))
            + stamped[CHECKSUM_OFFSET + 4:])


def _stored(image):
    """The (crc, epoch) pair in a page image's header."""
    return struct.unpack_from("<II", image, CHECKSUM_OFFSET)


def _codec(page_size=256, dim=2):
    return NodeCodec(page_size, LeafBodyCodec(dim),
                     InnerBodyCodec(RectCodec(dim)))


def _leaf_image(codec, dim=2, n=3, page_id=7):
    leaf = Node.leaf_from_arrays(
        page_id, np.arange(dim, dtype=float) + np.arange(n)[:, None],
        100 + np.arange(n))
    return codec.encode_nodes([leaf])[0].tobytes()


def _unsealed(image):
    """``image`` with crc and epoch (bytes 16:24) zero, as pages were
    written before seals existed."""
    return image[:16] + bytes(8) + image[24:]


#: lengths 0 .. _MAX_LEN cover three 256-byte blocks and a ragged tail.
_MAX_LEN = 3 * 256 + 7


def _kinds(raw, mapped=None):
    """``raw`` as every kind of buffer a caller hands the seal; the
    last is a slice of ``mapped``, a memoryview over an mmap."""
    yield "bytes", raw
    yield "bytearray", bytearray(raw)
    yield "memoryview", memoryview(raw)
    readonly = np.frombuffer(raw, dtype=np.uint8)
    yield "read-only row", readonly
    strided = np.zeros((len(raw), 3), dtype=np.uint8)
    strided[:, 1] = readonly
    yield "non-contiguous", strided[:, 1]
    if mapped is not None:
        yield "mmap slice", mapped


def _spellings(data, tmp_path):
    """``data`` as all six kinds of buffer, the mmap included."""
    raw = bytes(data)
    if not raw:
        yield from _kinds(raw)
        return
    path = tmp_path / "crc.bin"
    path.write_bytes(b"\xAA" * 5 + raw)
    with open(path, "rb") as f, \
            mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ) as m:
        view = memoryview(m)[5:]
        yield from _kinds(raw, view)
        view.release()


class TestCrc32c:
    """The seal checksum — CRC-32, the repo's one CRC — held to zlib on
    every length, seed, split point and buffer kind."""

    def test_empty_and_chaining(self):
        assert crc32(b"") == 0
        assert crc32(b"", 0x1234) == 0x1234
        whole = crc32(b"hello world")
        chained = crc32(b" world", crc32(b"hello"))
        assert whole == chained == zlib.crc32(b"hello world")

    @settings(max_examples=150, deadline=None)
    @given(data=st.binary(max_size=_MAX_LEN),
           seed=st.integers(0, 0xFFFFFFFF),
           split=st.integers(0, _MAX_LEN))
    def test_matches_oracle_for_any_length_seed_and_split(
            self, data, seed, split, tmp_path_factory):
        expected = zlib.crc32(data, seed)
        tmp = tmp_path_factory.mktemp("crc")
        for name, buffer in _spellings(data, tmp):
            assert crc32(buffer, seed) == expected, name
            if len(data) >= CHECKSUM_OFFSET + 4:
                assert page_crc(buffer) == reference_page_crc(data), name
        split = min(split, len(data))
        assert crc32(data[split:], crc32(data[:split], seed)) == expected

    def test_every_length_and_buffer_kind(self, tmp_path):
        data = np.random.default_rng(4).integers(
            0, 256, _MAX_LEN, dtype=np.uint8).tobytes()
        path = tmp_path / "crc.bin"
        path.write_bytes(b"\xAA" * 5 + data)
        with open(path, "rb") as f, \
                mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ) as m:
            whole = memoryview(m)
            for length in range(_MAX_LEN + 1):
                raw = data[:length]
                seed = (length * 2654435761) & 0xFFFFFFFF
                split = length // 3
                expected = zlib.crc32(raw, seed)
                mapped = whole[5:5 + length]
                for name, buffer in _kinds(raw, mapped):
                    assert crc32(buffer, seed) == expected, (length, name)
                    if length >= CHECKSUM_OFFSET + 4:
                        assert page_crc(buffer) == \
                            reference_page_crc(raw), (length, name)
                assert crc32(raw[split:], crc32(raw[:split], seed)) \
                    == expected, length
                mapped.release()
            whole.release()

    def test_buffers_longer_than_one_gather_pass(self):
        """Buffers around and past 32 KB, the pass length of the numpy
        CRC32C kernel this seal replaced, and past four 8 KB pages."""
        rng = np.random.default_rng(3)
        for length in (32767, 32768, 32769, 70001):
            data = rng.integers(0, 256, length, dtype=np.uint8).tobytes()
            assert crc32(data, 7) == zlib.crc32(data, 7), length
            assert page_crc(data) == reference_page_crc(data), length

    def test_input_is_never_written(self):
        data = np.arange(600, dtype=np.uint8) % 251
        before = data.copy()
        data.setflags(write=False)
        crc32(data, 5)
        page_crc(data)
        with pytest.raises(PageCorruptError):
            verify_image(data)
        assert np.array_equal(data, before)


def _hd4_data_bits(poly, limit):
    """Longest data word (bits) at which the 32-bit CRC ``poly`` (normal
    form, x^32 implied) has no codeword of weight 2 or 3, searched up to
    ``limit`` bits.  Shifting a codeword gives a codeword, so it is
    enough to find the least ``a`` with x^a = 1 or x^a + x^b + 1 = 0."""
    first = {}
    reg = 1
    for a in range(limit + 32):
        if (a and reg == 1) or first.get(reg ^ 1, a) < a:
            return a - 32
        first.setdefault(reg, a)
        reg <<= 1
        if reg >> 32:
            reg ^= poly | 1 << 32
    return None


def test_pages_and_wal_records_sit_in_crc32s_hd4_range():
    """CRC-32 catches every error of up to 3 bits in a data word of up
    to 91,607 bits (the limit cited from Koopman, DSN 2002, recomputed
    here): a default 8 KB page, and a WAL record carrying one, fit
    inside it."""
    limit = _hd4_data_bits(0x04C11DB7, 100_000)
    assert limit == 91_607 == CRC32_HD4_BITS
    record = (40 + DEFAULT_PAGE_SIZE) * 8
    assert DEFAULT_PAGE_SIZE * 8 < record <= limit
    # the largest page --page-size takes is the largest that fits
    assert (40 + MAX_PAGE_SIZE) * 8 <= limit < (40 + MAX_PAGE_SIZE + 1) * 8


class TestCrc32cMany:
    """Batched sealing: ``seal_images`` over an ``(n, page_size)``
    array, row by row against the oracle; every row verifies."""

    def test_matches_oracle_row_by_row(self):
        rng = np.random.default_rng(0)
        blocks = rng.integers(0, 256, size=(17, 301), dtype=np.uint8)
        expected = [reference_seal(row.tobytes()) for row in blocks]
        sealed = seal_images(blocks.copy())
        assert [row.tobytes() for row in sealed] == expected
        for row in sealed:
            verify_image(row)

    def test_more_rows_than_one_gather_pass_holds(self):
        """40 rows of 4 KB, more than one 32 KB pass of the kernel this
        seal replaced: every row sealed and verified on its own."""
        rng = np.random.default_rng(1)
        blocks = seal_images(
            rng.integers(0, 256, size=(40, 4096), dtype=np.uint8))
        assert [_stored(row.tobytes())[0] for row in blocks] == [
            reference_page_crc(row.tobytes()) for row in blocks]
        for row in blocks:
            verify_image(row)

    def test_blank_seal_counts_the_checksum_field_as_zeros(self):
        rng = np.random.default_rng(2)
        blocks = rng.integers(0, 256, size=(4, 300), dtype=np.uint8)
        zeroed = blocks.copy()
        zeroed[:, CHECKSUM_OFFSET:CHECKSUM_OFFSET + 4] = 0
        assert [page_crc(row) for row in blocks] == [
            zlib.crc32(row.tobytes()) for row in zeroed]

    def test_single_row_and_single_byte(self):
        assert crc32(np.array([0x61], dtype=np.uint8)) == zlib.crc32(b"a")
        image = np.zeros((1, 64), dtype=np.uint8)
        image[0, 40] = 7
        assert seal_images(image.copy()).tobytes() \
            == seal_image(image.tobytes()) \
            == reference_seal(image.tobytes())

    def test_zero_rows(self):
        empty = np.empty((0, 64), dtype=np.uint8)
        assert seal_images(empty).shape == (0, 64)


class TestSeal:
    def test_sealed_roundtrip(self):
        codec = _codec()
        image = _leaf_image(codec)
        crc, epoch = _stored(image)
        assert epoch == FORMAT_EPOCH == 2
        assert crc == reference_page_crc(image) != 0
        verify_image(image)
        node = codec.decode_node(image, 7)
        assert (node.page_id, node.level, len(node)) == (7, 0, 3)

    def test_older_epoch_image_refused(self):
        """An epoch-1 page (CRC32C-sealed) and a page without a seal are
        refused by name before any CRC is computed."""
        image = _leaf_image(_codec())
        for old, epoch in ((epoch1_page(image), 1), (_unsealed(image), 0)):
            assert _stored(old)[1] == epoch
            message = f"format epoch {epoch}: rebuild the index"
            with pytest.raises(PageCorruptError, match=message):
                verify_image(old)
            with pytest.raises(PageCorruptError, match=message):
                _codec().decode_node(old, 7)

    def test_every_single_bit_flip_is_detected(self):
        """Exhaustive over a small page: no silent garbage, ever."""
        codec = _codec(page_size=256)
        image = _leaf_image(codec)
        for bit in range(len(image) * 8):
            byte, offset = divmod(bit, 8)
            flipped = (image[:byte]
                       + bytes([image[byte] ^ (1 << offset)])
                       + image[byte + 1:])
            with pytest.raises(PageCorruptError):
                codec.decode_node(flipped, 7)

    def test_seeded_flips_on_full_size_page(self):
        codec = _codec(page_size=4096)
        image = _leaf_image(codec, n=20)
        rng = random.Random(42)
        for _ in range(200):
            bit = rng.randrange(len(image) * 8)
            byte, offset = divmod(bit, 8)
            flipped = (image[:byte]
                       + bytes([image[byte] ^ (1 << offset)])
                       + image[byte + 1:])
            with pytest.raises(PageCorruptError):
                codec.decode_node(flipped, 7)

    def test_truncated_image_rejected(self):
        codec = _codec()
        image = _leaf_image(codec)
        with pytest.raises(PageCorruptError, match="truncated"):
            codec.decode_node(image[:-1], 7)

    def test_insane_entry_count_rejected_under_a_valid_seal(self):
        codec = _codec(page_size=256)
        image = bytearray(_leaf_image(codec))
        struct.pack_into("<i", image, 12, 10_000)   # entry count
        with pytest.raises(PageCorruptError, match="entry count"):
            codec.decode_node(seal_image(bytes(image)), 7)

    def test_verify_reports_path_and_page(self):
        codec = _codec()
        image = bytearray(_leaf_image(codec))
        image[40] ^= 0x01
        with pytest.raises(PageCorruptError, match="some/file"):
            codec.decode_node(bytes(image), 7, path="some/file")

    def test_seal_matches_the_oracle(self):
        rng = np.random.default_rng(1)
        images = rng.integers(0, 256, size=(9, 1024), dtype=np.uint8)
        expected = [reference_seal(row.tobytes()) for row in images]
        assert [seal_image(row.tobytes()) for row in images] == expected
        sealed = seal_images(images.copy())
        assert [row.tobytes() for row in sealed] == expected


#: one byte offset inside every region of a 256-byte leaf page.
_REGIONS = {"pid": 3, "level": 9, "count": 13, "crc field": 17,
            "epoch": 21, "reserved": 27, "body": 60, "zero padding": 250}


class TestVerifiersAgree:
    """``verify_image`` on every kind of buffer gives one verdict and
    one message."""

    @staticmethod
    def _verdicts(image, tmp_path):
        """Each verifier's outcome for ``image``: None or the error
        text."""
        out = []
        for _name, buffer in _spellings(image, tmp_path):
            try:
                out.append(verify_image(buffer, path="f", page_id=7))
            except PageCorruptError as exc:
                out.append(str(exc))
        return out

    def test_clean_page(self, tmp_path):
        image = _leaf_image(_codec())
        assert set(self._verdicts(image, tmp_path)) == {None}

    def test_epoch1_page(self, tmp_path):
        image = _leaf_image(_codec())
        assert set(self._verdicts(epoch1_page(image), tmp_path)) == {
            "f: page 7: format epoch 1: rebuild the index"}
        assert set(self._verdicts(_unsealed(image), tmp_path)) == {
            "f: page 7: format epoch 0: rebuild the index"}

    @pytest.mark.parametrize("region", sorted(_REGIONS))
    def test_flipped_bit_in_each_region(self, region, tmp_path):
        image = bytearray(_leaf_image(_codec()))
        assert image[250] == 0      # really in the padding
        image[_REGIONS[region]] ^= 0x10
        image = bytes(image)
        verdicts = set(self._verdicts(image, tmp_path))
        stored, epoch = _stored(image)
        if region == "epoch":
            # A flip in the epoch is refused as another format.
            assert verdicts == {
                f"f: page 7: format epoch {epoch}: rebuild the index"}
            return
        assert verdicts == {
            f"f: page 7: checksum mismatch: stored {stored:#010x}, "
            f"computed {reference_page_crc(image):#010x}"}
