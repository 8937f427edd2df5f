"""Page checksums: CRC32C sealing and bit-flip detection.

The byte-at-a-time table loop below is the oracle: it is the textbook
definition of the checksum, it is what ``src/`` shipped before the
gather kernel replaced it, and every kernel entry point is held to it.
"""

import mmap
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gist import LeafEntry, Node
from repro.storage.codecs import LeafEntryCodec, IndexEntryCodec, \
    NodeCodec, RectCodec
from repro.storage.errors import PageCorruptError
from repro.storage.integrity import (CHECKSUM_OFFSET, FORMAT_EPOCH, crc32c,
                                     crc32c_many, seal_image, seal_images,
                                     stored_seal, verify_image,
                                     verify_images)

_POLY = 0x82F63B78


def _make_table():
    table = []
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ _POLY if crc & 1 else crc >> 1
        table.append(crc)
    return tuple(table)


_TABLE = _make_table()


def reference_crc32c(data, crc=0):
    """CRC32C (Castagnoli, reflected) one byte at a time."""
    crc ^= 0xFFFFFFFF
    for byte in bytes(data):
        crc = _TABLE[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


def reference_seal(image, epoch=FORMAT_EPOCH):
    """``seal_image`` by the oracle: stamp the epoch, checksum the image
    with its crc field zeroed, splice the checksum in."""
    stamped = (image[:CHECKSUM_OFFSET] + struct.pack("<II", 0, epoch)
               + image[CHECKSUM_OFFSET + 8:])
    return (stamped[:CHECKSUM_OFFSET]
            + struct.pack("<I", reference_crc32c(stamped))
            + stamped[CHECKSUM_OFFSET + 4:])


def _codec(page_size=256, dim=2):
    return NodeCodec(page_size, LeafEntryCodec(dim),
                     IndexEntryCodec(RectCodec(dim)))


def _leaf_image(codec, dim=2, n=3, page_id=7):
    leaf = Node.from_entries(
        page_id, 0, [LeafEntry(np.arange(dim, dtype=float) + i, 100 + i)
                     for i in range(n)])
    return codec.encode_nodes([leaf])[0].tobytes()


def _unsealed(image):
    """``image`` as a legacy page written before checksums: crc and
    epoch (bytes 16:24) zero."""
    return image[:16] + bytes(8) + image[24:]


#: three gather chunks and a ragged tail, so every alignment of the
#: buffer end against the 256-byte chunk grid is reachable.
_MAX_LEN = 3 * 256 + 7


def _spellings(data, tmp_path):
    """``data`` as every kind of buffer a caller hands the kernel."""
    raw = bytes(data)
    yield "bytes", raw
    yield "bytearray", bytearray(raw)
    yield "memoryview", memoryview(raw)
    readonly = np.frombuffer(raw, dtype=np.uint8)
    yield "read-only row", readonly
    strided = np.zeros((len(raw), 3), dtype=np.uint8)
    strided[:, 1] = readonly
    yield "non-contiguous", strided[:, 1]
    if raw:
        path = tmp_path / "crc.bin"
        path.write_bytes(b"\xAA" * 5 + raw)
        with open(path, "rb") as f, \
                mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ) as m:
            view = memoryview(m)[5:]
            yield "mmap slice", view
            view.release()


class TestCrc32c:
    @pytest.mark.parametrize("data, expected", [
        (b"123456789", 0xE3069283),          # the iSCSI check value
        (bytes(32), 0x8A9136AA),             # RFC 3720 B.4
        (b"\xFF" * 32, 0x62A8AB43),
        (bytes(range(32)), 0x46DD794E),
    ])
    def test_rfc3720_vectors(self, data, expected):
        assert reference_crc32c(data) == expected
        assert crc32c(data) == expected

    def test_empty_and_chaining(self):
        assert crc32c(b"") == 0
        assert crc32c(b"", 0x1234) == 0x1234
        whole = crc32c(b"hello world")
        chained = crc32c(b" world", crc32c(b"hello"))
        assert whole == chained

    @settings(max_examples=150, deadline=None)
    @given(data=st.binary(max_size=_MAX_LEN),
           seed=st.integers(0, 0xFFFFFFFF),
           split=st.integers(0, _MAX_LEN))
    def test_matches_oracle_for_any_length_seed_and_split(
            self, data, seed, split, tmp_path_factory):
        expected = reference_crc32c(data, seed)
        tmp = tmp_path_factory.mktemp("crc")
        for name, buffer in _spellings(data, tmp):
            assert crc32c(buffer, seed) == expected, name
        split = min(split, len(data))
        assert crc32c(data[split:], crc32c(data[:split], seed)) == expected

    def test_buffers_longer_than_one_gather_pass(self):
        rng = np.random.default_rng(3)
        for length in (32767, 32768, 32769, 70001):
            data = rng.integers(0, 256, length, dtype=np.uint8).tobytes()
            assert crc32c(data, 7) == reference_crc32c(data, 7), length

    def test_input_is_never_written(self):
        data = np.arange(600, dtype=np.uint8) % 251
        before = data.copy()
        data.setflags(write=False)
        crc32c(data, 5)
        crc32c_many(data.reshape(2, 300), blank_seal=True)
        assert np.array_equal(data, before)


class TestCrc32cMany:
    def test_matches_oracle_row_by_row(self):
        rng = np.random.default_rng(0)
        blocks = rng.integers(0, 256, size=(17, 301), dtype=np.uint8)
        for seed in (0, 0xCAFEF00D):
            many = crc32c_many(blocks, seed)
            assert many.dtype == np.uint32
            assert many.tolist() == [reference_crc32c(row.tobytes(), seed)
                                     for row in blocks]

    def test_more_rows_than_one_gather_pass_holds(self):
        rng = np.random.default_rng(1)
        blocks = rng.integers(0, 256, size=(40, 4096), dtype=np.uint8)
        assert crc32c_many(blocks).tolist() == [
            reference_crc32c(row.tobytes()) for row in blocks]

    def test_blank_seal_counts_the_checksum_field_as_zeros(self):
        rng = np.random.default_rng(2)
        blocks = rng.integers(0, 256, size=(4, 300), dtype=np.uint8)
        zeroed = blocks.copy()
        zeroed[:, CHECKSUM_OFFSET:CHECKSUM_OFFSET + 4] = 0
        assert crc32c_many(blocks, blank_seal=True).tolist() == [
            reference_crc32c(row.tobytes()) for row in zeroed]

    def test_single_row_and_single_byte(self):
        assert crc32c_many(np.array([[0x61]], dtype=np.uint8))[0] \
            == reference_crc32c(b"a")

    def test_zero_rows(self):
        assert len(crc32c_many(np.empty((0, 8), dtype=np.uint8))) == 0

    def test_rejects_non_2d_and_rows_too_short_for_a_seal(self):
        with pytest.raises(ValueError):
            crc32c_many(np.zeros(8, dtype=np.uint8))
        with pytest.raises(ValueError, match="cannot hold a seal"):
            crc32c_many(np.zeros((2, 20), dtype=np.uint8), blank_seal=True)


class TestSeal:
    def test_sealed_roundtrip(self):
        codec = _codec()
        image = _leaf_image(codec)
        crc, epoch = stored_seal(image)
        assert epoch == FORMAT_EPOCH
        assert crc != 0
        assert verify_image(image) == FORMAT_EPOCH
        node = codec.decode_node(image, 7)
        assert (node.page_id, node.level, len(node)) == (7, 0, 3)

    def test_legacy_unsealed_image_accepted(self):
        image = _unsealed(_leaf_image(_codec()))
        assert stored_seal(image) == (0, 0)
        assert verify_image(image) == 0   # legacy: verification skipped
        # The codec still decodes it (back-compat).
        assert _codec().decode_node(image, 7).page_id == 7

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

    def test_insane_entry_count_rejected_even_unsealed(self):
        import struct
        codec = _codec(page_size=256)
        image = bytearray(_leaf_image(codec))
        struct.pack_into("<i", image, 12, 10_000)   # entry count
        image[16:24] = b"\x00" * 8                  # strip the seal
        with pytest.raises(PageCorruptError, match="entry count"):
            codec.decode_node(bytes(image), 7)

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
    """``verify_image`` on every kind of buffer and ``verify_images`` on
    the stacked array give one verdict and one message."""

    @staticmethod
    def _verdicts(image, tmp_path):
        """Each verifier's outcome for ``image``: an epoch or the error
        text."""
        out = []
        for _name, buffer in _spellings(image, tmp_path):
            try:
                out.append(verify_image(buffer, path="f", page_id=7))
            except PageCorruptError as exc:
                out.append(str(exc))
        stacked = np.frombuffer(image + image, dtype=np.uint8) \
            .reshape(2, -1)
        for fault in verify_images(stacked):
            out.append(stored_seal(image)[1] if fault is None
                       else f"f: page 7: {fault}")
        return out

    def test_clean_page(self, tmp_path):
        image = _leaf_image(_codec())
        assert set(self._verdicts(image, tmp_path)) == {FORMAT_EPOCH}

    def test_unsealed_legacy_page(self, tmp_path):
        image = _unsealed(_leaf_image(_codec()))
        assert set(self._verdicts(image, tmp_path)) == {0}

    @pytest.mark.parametrize("region", sorted(_REGIONS))
    def test_flipped_bit_in_each_region(self, region, tmp_path):
        image = bytearray(_leaf_image(_codec()))
        assert image[250] == 0      # really in the padding
        image[_REGIONS[region]] ^= 0x10
        image = bytes(image)
        verdicts = set(self._verdicts(image, tmp_path))
        stored, epoch = stored_seal(image)
        blanked = (image[:CHECKSUM_OFFSET] + bytes(4)
                   + image[CHECKSUM_OFFSET + 4:])
        assert verdicts == {
            f"f: page 7: checksum mismatch: stored {stored:#010x}, "
            f"computed {reference_crc32c(blanked):#010x} (epoch {epoch})"}

    def test_verify_images_reports_only_the_damaged_rows(self):
        codec = _codec()
        images = np.frombuffer(
            b"".join(_leaf_image(codec, page_id=p) for p in (1, 2, 3)),
            dtype=np.uint8).reshape(3, -1).copy()
        images[1, 70] ^= 0x01
        faults = verify_images(images)
        assert [f is None for f in faults] == [True, False, True]
        assert faults[1].startswith("checksum mismatch: stored 0x")
