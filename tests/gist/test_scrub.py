"""scrub_file / fsck: slot classification on saved indexes."""

import struct

import numpy as np
import pytest

from repro.bulk import bulk_load
from repro.gist import Node
from repro.gist.persist import save_tree
from repro.gist.validate import scrub_file

from tests.conftest import make_ext

PAGE = 1024


@pytest.fixture
def saved(tmp_path):
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(300, 2))
    tree = bulk_load(make_ext("rtree", 2), pts, page_size=PAGE)
    path = str(tmp_path / "tree.gist")
    save_tree(tree, path)
    return path, tree


class TestCleanFile:
    def test_clean_verdict(self, saved):
        path, tree = saved
        report = scrub_file(path)
        assert report.superblock_ok
        assert report.clean
        assert len(report.ok_slots) == tree.num_nodes()
        assert not report.corrupt_slots
        assert not report.orphaned_slots
        assert "clean" in report.format()

    def test_missing_file_is_reported_not_raised(self, tmp_path):
        report = scrub_file(str(tmp_path / "no-such-file.gist"))
        assert not report.superblock_ok
        assert not report.clean
        assert "unreadable" in report.detail


class TestDamage:
    def test_bit_flip_flags_exactly_that_slot(self, saved):
        path, tree = saved
        raw = bytearray(open(path, "rb").read())
        victim = 3
        raw[victim * PAGE + 100] ^= 0x04
        open(path, "wb").write(bytes(raw))
        report = scrub_file(path)
        assert [s.slot for s in report.corrupt_slots] == [victim]
        assert "checksum mismatch" in report.corrupt_slots[0].detail
        assert not report.clean
        assert "DAMAGED" in report.format()
        assert f"slot {victim}" in report.format()

    def test_corrupt_superblock_reported(self, saved):
        path, _ = saved
        raw = bytearray(open(path, "rb").read())
        raw[0:4] = struct.pack("<I", 0)       # zero the length prefix
        open(path, "wb").write(bytes(raw))
        report = scrub_file(path)
        assert not report.superblock_ok
        assert "CORRUPT" in report.format()

    def test_truncated_trailing_slot(self, saved):
        path, tree = saved
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:len(raw) - PAGE // 2])
        report = scrub_file(path)
        # The superblock now over-claims: that is superblock-level damage.
        assert not report.clean

    def test_partial_slot_past_the_census(self, saved):
        path, _ = saved
        raw = open(path, "rb").read()
        open(path, "wb").write(raw + b"\x01" * (PAGE // 2))
        report = scrub_file(path)
        extra = len(raw) // PAGE
        assert [s.slot for s in report.corrupt_slots] == [extra]
        assert "truncated trailing slot" in report.corrupt_slots[0].detail

    def test_orphaned_slot_beyond_node_count(self, saved):
        path, tree = saved
        raw = open(path, "rb").read()
        num_slots = len(raw) // PAGE - 1
        extra_slot = num_slots + 1
        from repro.storage.codecs import (InnerBodyCodec, LeafBodyCodec,
                                          NodeCodec)
        ext = make_ext("rtree", 2)
        codec = NodeCodec(PAGE, LeafBodyCodec(2),
                          InnerBodyCodec(ext.pred_codec()))
        stray = codec.encode_nodes(
            [Node.leaf_from_arrays(extra_slot, np.zeros((1, 2)),
                                   np.array([1]))])[0]
        open(path, "wb").write(raw + stray.tobytes())
        report = scrub_file(path)
        orphans = [s.slot for s in report.orphaned_slots]
        assert orphans == [extra_slot]
        assert "beyond superblock slot count" in \
            report.orphaned_slots[0].detail
        assert not report.clean

    def test_free_slot_classified(self, saved):
        path, tree = saved
        from repro.storage.codecs import (InnerBodyCodec, LeafBodyCodec,
                                          NodeCodec)
        ext = make_ext("rtree", 2)
        codec = NodeCodec(PAGE, LeafBodyCodec(2),
                          InnerBodyCodec(ext.pred_codec()))
        raw = bytearray(open(path, "rb").read())
        # Overwrite a leaf slot with a freed marker: it becomes "free",
        # and nothing else breaks structurally (the parent now dangles,
        # which reachability does not flag — fsck is per-page).
        victim = len(raw) // PAGE - 1
        raw[victim * PAGE:(victim + 1) * PAGE] = \
            codec.encode_nodes([Node(-1, 0)])[0].tobytes()
        open(path, "wb").write(bytes(raw))
        report = scrub_file(path)
        assert [s.slot for s in report.free_slots] == [victim]
