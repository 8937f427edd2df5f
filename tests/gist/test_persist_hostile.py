"""Hostile inputs to load_tree: damage fails loudly, typed, and named."""

import json
import struct

import numpy as np
import pytest

from repro.analysis import deep_scrub
from repro.analysis.treecheck import (LEVEL_MISMATCH, PAGE_ORPHAN,
                                      SIZE_MISMATCH)
from repro.bulk import bulk_load
from repro.gist.persist import (load_tree, read_superblock, save_tree,
                                superblock_image)
from repro.gist.validate import scrub_file
from repro.storage import PageCorruptError, StorageError
from repro.storage.diskfile import FilePageFile
from repro.storage.integrity import FORMAT_EPOCH, crc32, seal_image
from repro.storage.page import PAGE_HEADER_SIZE

from tests.conftest import make_ext
from tests.storage.epoch1 import epoch1_superblock


@pytest.fixture
def saved(tmp_path):
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(200, 2))
    tree = bulk_load(make_ext("rtree", 2), pts, page_size=1024)
    path = str(tmp_path / "tree.gist")
    save_tree(tree, path)
    return path


def _expect_corrupt(path, match=None):
    with pytest.raises(StorageError, match=match) as excinfo:
        load_tree(path=path)
    assert path in str(excinfo.value)
    return excinfo.value


class TestHostileFiles:
    def test_zero_length_file(self, tmp_path):
        path = str(tmp_path / "empty.gist")
        open(path, "wb").close()
        _expect_corrupt(path, match="too short")

    def test_truncated_mid_superblock(self, saved):
        raw = open(saved, "rb").read()
        open(saved, "wb").write(raw[:10])
        _expect_corrupt(saved)

    def test_truncated_mid_pages(self, saved):
        raw = open(saved, "rb").read()
        open(saved, "wb").write(raw[:len(raw) - 700])
        _expect_corrupt(saved, match="holds only")

    def test_wrong_magic(self, saved):
        raw = bytearray(open(saved, "rb").read())
        (hlen,) = struct.unpack_from("<I", raw, 0)
        header = json.loads(raw[4:4 + hlen])
        header["magic"] = "someone-elses-format"
        _rewrite_header(saved, raw, header)
        _expect_corrupt(saved, match="bad magic")

    def test_not_json(self, saved):
        raw = bytearray(open(saved, "rb").read())
        raw[4:8] = b"\xff\xfe\xfd\xfc"
        open(saved, "wb").write(bytes(raw))
        _expect_corrupt(saved)

    def test_bad_dim(self, saved):
        self._poison_field(saved, "dim", 0)

    def test_bad_page_size(self, saved):
        self._poison_field(saved, "page_size", 16)

    def test_negative_num_nodes(self, saved):
        self._poison_field(saved, "num_nodes", -3)

    def test_num_nodes_beyond_file(self, saved):
        # The stale num_slots field (still at the true count) catches
        # the inflated census before the file-length check would.
        self._poison_field(saved, "num_nodes", 10_000,
                           match="below num_nodes")

    def test_num_slots_beyond_file(self, saved):
        self._poison_field(saved, "num_slots", 10_000, match="holds only")

    def test_root_slot_beyond_num_nodes(self, saved):
        self._poison_field(saved, "root_slot", 9_999, match="root_slot")

    def test_superblock_bit_flip(self, saved):
        raw = bytearray(open(saved, "rb").read())
        raw[40] ^= 0x20          # inside the JSON header text
        open(saved, "wb").write(bytes(raw))
        _expect_corrupt(saved)

    def test_node_page_bit_flip(self, saved):
        raw = bytearray(open(saved, "rb").read())
        raw[1024 + 200] ^= 0x01  # body of the first node slot
        open(saved, "wb").write(bytes(raw))
        _expect_corrupt(saved, match="checksum mismatch")

    def test_random_garbage(self, tmp_path):
        path = str(tmp_path / "garbage.gist")
        rng = np.random.default_rng(9)
        open(path, "wb").write(rng.integers(0, 256, 4096,
                                            dtype=np.uint8).tobytes())
        err = _expect_corrupt(path)
        assert isinstance(err, PageCorruptError)

    def test_errors_keep_valueerror_compat(self, tmp_path):
        """Pre-existing callers catch ValueError; they still can."""
        path = str(tmp_path / "junk.gist")
        open(path, "wb").write(b"\x00" * 64)
        with pytest.raises(ValueError, match="not a saved GiST"):
            load_tree(path=path)

    @staticmethod
    def _poison_field(path, key, value, match=None):
        raw = bytearray(open(path, "rb").read())
        (hlen,) = struct.unpack_from("<I", raw, 0)
        header = json.loads(raw[4:4 + hlen])
        header[key] = value
        _rewrite_header(path, raw, header)
        _expect_corrupt(path, match=match or key)


class TestSuperblockReader:
    def test_good_superblock_parses(self, saved):
        raw = open(saved, "rb").read()
        header = read_superblock(raw, saved)
        assert header["magic"] == "repro-gist-v1"
        assert header["extension"] == "rtree"
        assert header["num_nodes"] > 0

    def test_older_epoch_superblock_refused(self, saved):
        """An epoch-1 (CRC32C-sealed) trailer and the all-zero trailer
        of a file written before checksums are refused by name."""
        raw = open(saved, "rb").read()
        page_size = read_superblock(raw, saved)["page_size"]
        forged = epoch1_superblock(raw[:page_size])
        for page0, epoch in ((forged, 1),
                             (raw[:page_size - 8] + bytes(8), 0)):
            with pytest.raises(PageCorruptError,
                               match=f"format epoch {epoch}: rebuild"):
                read_superblock(page0 + raw[page_size:], saved)

    @pytest.mark.parametrize("key", ["num_slots", "leaf_codec",
                                     "ext_config"])
    def test_every_field_is_required(self, saved, key):
        """No superblock field has a default: a header without one is
        damaged, not an older layout."""
        raw = bytearray(open(saved, "rb").read())
        header = read_superblock(bytes(raw), saved)
        del header[key]
        _rewrite_header(saved, raw, header)
        _expect_corrupt(saved, match=f"field '{key}' invalid: None")


def _rewrite_header(path, raw, header):
    """Re-embed a modified JSON header, resealing the trailer so only
    the targeted field — not the checksum — trips validation."""
    blob = json.dumps(header).encode()
    (hlen,) = struct.unpack_from("<I", raw, 0)
    page_size = json.loads(raw[4:4 + hlen]).get("page_size", 1024)
    page0 = struct.pack("<I", len(blob)) + blob
    page0 += b"\x00" * (page_size - 8 - len(page0))
    page0 += struct.pack("<II", crc32(page0), FORMAT_EPOCH)
    open(path, "wb").write(page0 + bytes(raw[page_size:]))


class TestSuperblockContradictsPages:
    """A resealed superblock whose census disagrees with the pages it
    describes must not load as a quietly wrong tree."""

    @pytest.fixture
    def tall(self, tmp_path):
        pts = np.random.default_rng(4).normal(size=(3000, 3))
        tree = bulk_load(make_ext("rtree", 3), pts, page_size=1024)
        assert tree.height == 3
        path = str(tmp_path / "tall.gist")
        save_tree(tree, path)
        return path

    @staticmethod
    def _reseal(path, **fields):
        raw = open(path, "rb").read()
        header = read_superblock(raw, path)
        header.update(fields)
        page_size = header["page_size"]
        open(path, "wb").write(superblock_image(header, page_size)
                               + raw[page_size:])
        return header

    def test_root_slot_pointing_at_a_leaf(self, tall):
        header = read_superblock(open(tall, "rb").read(), tall)
        leaf_slot = header["num_nodes"]    # traversal order ends on a leaf
        self._reseal(tall, root_slot=leaf_slot)
        err = _expect_corrupt(tall, match="root page level 0 contradicts "
                                          "superblock height 3")
        assert isinstance(err, PageCorruptError)

    def test_no_root_among_live_pages(self, tall):
        self._reseal(tall, root_slot=0)
        _expect_corrupt(tall, match="root_slot 0 holds no node")

    def test_size_disagrees_with_the_leaves(self, tall):
        self._reseal(tall, size=3001)
        _expect_corrupt(tall, match="claims 3001 keys, leaves hold 3000")

    @pytest.mark.parametrize("fields, codes", [
        ({"root_slot": "leaf"},
         {LEVEL_MISMATCH, SIZE_MISMATCH, PAGE_ORPHAN}),
        ({"root_slot": 0}, {PAGE_ORPHAN}),
        ({"size": 3001}, {SIZE_MISMATCH}),
    ], ids=["root-at-a-leaf", "no-root", "size"])
    def test_deep_scrub_names_what_load_tree_refuses(self, tall, fields,
                                                     codes):
        """``fsck --deep`` skips load_tree's census and reports the
        contradiction by page instead of giving up on the file."""
        leaf_slot = read_superblock(open(tall, "rb").read(),
                                    tall)["num_nodes"]
        if fields.get("root_slot") == "leaf":
            fields = {"root_slot": leaf_slot}
        self._reseal(tall, **fields)
        deep = deep_scrub(tall)
        assert deep.check is not None, deep.format()
        assert not deep.clean
        assert set(deep.check.codes()) == codes, deep.format()
        if LEVEL_MISMATCH in codes:
            assert [v.page_id for v in deep.check.violations
                    if v.code == LEVEL_MISMATCH] == [leaf_slot]


def _damage_first_inner_entry(path, family):
    """Rewrite entry 1 of the root page so the predicate codec rejects
    it, reseal the page, and return ``(slot, expected message)``."""
    raw = bytearray(open(path, "rb").read())
    header = read_superblock(bytes(raw), path)
    page_size, slot = header["page_size"], header["root_slot"]
    pred_codec = make_ext(family, 2).pred_codec()
    entry_size = pred_codec.size + 8
    start = slot * page_size + PAGE_HEADER_SIZE + entry_size
    row = np.frombuffer(bytes(raw[start:start + pred_codec.size]),
                        dtype="<f8").copy()
    if family == "rtree":
        row[0] = row[2] + 1.0             # lo[0] above hi[0]
        reason = "degenerate rect: lo exceeds hi"
    else:
        row[4] = float(1 << 2)            # first bite's corner id
        reason = "bite corner id out of range"
    raw[start:start + pred_codec.size] = row.tobytes()
    page = bytes(raw[slot * page_size:(slot + 1) * page_size])
    raw[slot * page_size:(slot + 1) * page_size] = seal_image(page)
    open(path, "wb").write(bytes(raw))
    offset = PAGE_HEADER_SIZE + entry_size
    return slot, f"page {slot}: undecodable entry at offset {offset}: {reason}"


def _read_through_store(path, family, slot):
    with FilePageFile.for_extension(path, make_ext(family, 2),
                                    page_size=1024) as store:
        store.read(slot)


def _load(path, family, slot):
    load_tree(path=path)


def _scrub(path, family, slot):
    report = scrub_file(path)
    assert [s.slot for s in report.corrupt_slots] == [slot]
    raise PageCorruptError(report.corrupt_slots[0].detail)


class TestOneDecoderOneVerdict:
    """Every reader decodes a page through the same codec, so a page
    the codec rejects is rejected by each with the same message."""

    @pytest.mark.parametrize("reader", [_read_through_store, _load, _scrub],
                             ids=["FilePageFile.read", "load_tree",
                                  "scrub_file"])
    @pytest.mark.parametrize("family", ["rtree", "xjb"])
    def test_rejected_inner_page(self, tmp_path, family, reader):
        pts = np.random.default_rng(5).normal(size=(400, 2))
        tree = bulk_load(make_ext(family, 2), pts, page_size=1024)
        assert tree.height >= 2
        path = str(tmp_path / f"{family}.gist")
        save_tree(tree, path)
        slot, message = _damage_first_inner_entry(path, family)
        with pytest.raises(PageCorruptError) as excinfo:
            reader(path, family, slot)
        assert message in str(excinfo.value)
