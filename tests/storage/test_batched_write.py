"""Batched write-path identity: one-pass encode/seal/write, same bytes.

The bulk-load pipeline writes whole levels at once — block-encoded leaf
bodies, one batched CRC pass, contiguous multi-page writes.  Every stage
is contractually byte-identical to its scalar counterpart; these tests
pin the contract for page encoding and the store's :meth:`write_many`
(CRC and sealing are held to their oracle in ``test_integrity``).
"""

import struct

import numpy as np
import pytest

from repro.gist.node import Node
from repro.storage.codecs import (InnerBodyCodec, LeafBodyCodec, NodeCodec,
                                  RectCodec)
from repro.storage.diskfile import FilePageFile
from repro.storage.integrity import seal_image
from repro.storage.page import PAGE_HEADER_SIZE

PAGE_SIZE = 1024
DIM = 3


def _codec():
    return NodeCodec(PAGE_SIZE, LeafBodyCodec(DIM),
                     InnerBodyCodec(RectCodec(DIM)))


def _leaf_nodes(rng, count, start_id=1, entries_per=10):
    nodes = []
    for i in range(count):
        keys = rng.normal(size=(entries_per, DIM))
        nodes.append(Node.leaf_from_arrays(
            start_id + i, keys, 1000 * i + np.arange(entries_per)))
    return nodes


def _inner_nodes(rng, count, start_id, entries_per=5):
    nodes = []
    for i in range(count):
        lo = rng.normal(size=(entries_per, DIM))
        nodes.append(Node.inner_from_block(
            start_id + i, 1, np.concatenate([lo, lo + 1.0], axis=1),
            100 + np.arange(entries_per)))
    return nodes


def _reference_image(codec, node):
    """One page image built entry by entry: header, packed body,
    zero padding, then the single-image seal."""
    rows, ids = node.rows(), node.ids().tolist()
    body = b"".join(struct.pack(f"<{len(row)}d", *row)
                    + struct.pack("<q", ident)
                    for row, ident in zip(rows, ids))
    image = struct.pack("<qii", node.page_id, node.level, len(node))
    image += b"\x00" * (PAGE_HEADER_SIZE - len(image)) + body
    return seal_image(image + b"\x00" * (PAGE_SIZE - len(image)))


class TestEncodePages:
    def test_rows_match_scalar_encode(self):
        rng = np.random.default_rng(2)
        codec = _codec()
        nodes = _leaf_nodes(rng, 4) + _inner_nodes(rng, 3, start_id=5)
        images = codec.encode_nodes(nodes)
        for node, image in zip(nodes, images):
            assert image.tobytes() == _reference_image(codec, node)

    def test_encode_block_matches_per_entry_encode(self):
        rng = np.random.default_rng(3)
        leaf_codec = LeafBodyCodec(DIM)
        keys = rng.normal(size=(12, DIM))
        rids = list(range(100, 112))
        block = leaf_codec.encode_block(keys, rids)
        assert block == b"".join(k.astype("<f8").tobytes()
                                 + struct.pack("<q", r)
                                 for k, r in zip(keys, rids))

    def test_empty_block(self):
        assert LeafBodyCodec(DIM).encode_block(np.empty((0, DIM)), []) \
            == b""

    def test_overflow_rejected(self):
        codec = _codec()
        big = _leaf_nodes(np.random.default_rng(5), 1,
                          entries_per=LeafBodyCodec(DIM).capacity(
                              PAGE_SIZE) + 1)
        with pytest.raises(ValueError, match="overflows page"):
            codec.encode_nodes(big)


class TestWriteMany:
    def test_file_store_write_many_identical_to_write(self, tmp_path):
        rng = np.random.default_rng(4)
        nodes = _leaf_nodes(rng, 6) + _inner_nodes(rng, 2, start_id=7)

        paths = {tag: str(tmp_path / f"{tag}.pages")
                 for tag in ("single", "batch")}
        stores = {tag: FilePageFile(path, _codec())
                  for tag, path in paths.items()}
        for node in nodes:
            stores["single"].write(node)
        stores["batch"].write_many(nodes)
        for store in stores.values():
            store.flush()
            store.close()
        with open(paths["single"], "rb") as fa, \
                open(paths["batch"], "rb") as fb:
            assert fa.read() == fb.read()

    def test_write_many_in_any_page_order(self, tmp_path):
        """Non-contiguous, out-of-order page ids land correctly."""
        rng = np.random.default_rng(5)
        nodes = _leaf_nodes(rng, 5)
        for node, pid in zip(nodes, (9, 2, 7, 3, 12)):
            node.page_id = pid
        path = str(tmp_path / "scattered.pages")
        store = FilePageFile(path, _codec())
        store.write_many(nodes)
        store.flush()
        for node in nodes:
            got = store.peek(node.page_id)
            assert got.page_id == node.page_id
            assert got.rids() == node.rids()
            assert np.array_equal(got.keys_array(), node.keys_array())
        store.close()

    def test_every_write_passes_write_raw_once_per_run(self, tmp_path,
                                                       monkeypatch):
        """`write`, `write_many` and `free` reach the data file only
        through `_write_raw` (the WAL ordering tests observe it there),
        one call per contiguous page-id run."""
        calls = []
        real = FilePageFile._write_raw

        def spy(self, page_id, image):
            calls.append((page_id, len(image) // PAGE_SIZE))
            real(self, page_id, image)

        monkeypatch.setattr(FilePageFile, "_write_raw", spy)
        rng = np.random.default_rng(9)
        nodes = _leaf_nodes(rng, 5)
        for node, pid in zip(nodes, (4, 2, 3, 9, 8)):
            node.page_id = pid
        store = FilePageFile(str(tmp_path / "raw.pages"), _codec())
        store.write_many(nodes)
        assert calls == [(2, 3), (8, 2)]
        del calls[:]
        store.write(nodes[0])
        store.free(9)
        assert calls == [(4, 1), (9, 1)]
        store.close()

    def test_write_many_counts_writes_and_levels(self, tmp_path):
        rng = np.random.default_rng(6)
        nodes = _leaf_nodes(rng, 3)
        store = FilePageFile(str(tmp_path / "c.pages"), _codec())
        store.write_many(nodes)
        assert store.stats.writes == 3
        store.close()

    def test_memory_store_write_many_roundtrips(self):
        """An in-memory tree's store: a resident pool over an anonymous
        page file."""
        from repro.ams import RTreeExtension
        from repro.gist import GiST
        rng = np.random.default_rng(7)
        store = GiST(RTreeExtension(DIM), page_size=PAGE_SIZE).store
        nodes = _leaf_nodes(rng, 4)
        store.write_many(nodes)
        for node in nodes:
            got = store.peek(node.page_id)
            assert len(got) == len(node)
            assert got.keys_array().tobytes() == node.keys_array().tobytes()

    def test_empty_batch_is_a_no_op(self, tmp_path):
        store = FilePageFile(str(tmp_path / "e.pages"), _codec())
        store.write_many([])
        assert store.stats.writes == 0
        store.close()

    def test_lazy_leaf_nodes_write_identically(self, tmp_path):
        """`Node.leaf_from_arrays` leaves (the loader's and the decoder's)
        encode the same bytes as leaves built entry by entry."""
        rng = np.random.default_rng(8)
        keys = rng.normal(size=(10, DIM))
        rids = np.arange(10, dtype=np.int64)
        lazy = Node.leaf_from_arrays(1, keys, rids)
        eager = Node(1, 0)
        for key, rid in zip(keys, rids):
            eager.append(key, int(rid))
        paths = {tag: str(tmp_path / f"{tag}.pages")
                 for tag in ("lazy", "eager")}
        for tag, node in (("lazy", lazy), ("eager", eager)):
            store = FilePageFile(paths[tag], _codec())
            store.write_many([node])
            store.flush()
            store.close()
        with open(paths["lazy"], "rb") as fa, \
                open(paths["eager"], "rb") as fb:
            assert fa.read() == fb.read()
