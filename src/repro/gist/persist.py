"""Tree persistence: dump and reload a GiST as real page images.

The byte accounting the tree does in memory is made honest here: every
node round-trips through the page codec
(:class:`~repro.storage.codecs.NodeCodec`) into a page-sized slot of a
single file, with a small JSON superblock in page 0.  Saving encodes
all nodes in one batched call; loading decodes every slot (verifying
its seal), checks the pages against the superblock's census
(:func:`load_pages` skips that check for ``fsck --deep``), then copies
the slots into an in-memory tree's anonymous page file and pins every
live page in its pool, so the loaded tree never touches ``path`` again.

Resilience: the superblock carries a (CRC-32, format epoch) trailer in
its last 8 bytes and every node page is sealed by the codec, so a
truncated, bit-flipped, or otherwise damaged file — or one written in
an older format — fails loading with a typed
:class:`~repro.storage.errors.StorageError` subclass naming the file —
never a raw ``struct.error`` or ``json.JSONDecodeError``.
"""

from __future__ import annotations

import json
import os
import struct
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.gist.node import Node
from repro.gist.tree import GiST
from repro.storage.codecs import LEAF_CODECS, NodeCodec, make_leaf_codec
from repro.storage.errors import PageCorruptError, PageMissingError
from repro.storage.integrity import FORMAT_EPOCH, crc32
from repro.storage.page import PAGE_HEADER_SIZE
from repro.storage.wal import default_wal_path

_MAGIC = "repro-gist-v1"

#: bytes reserved at the end of page 0 for (crc, epoch).
_SUPERBLOCK_TRAILER = 8


def superblock_image(header: Dict, page_size: int) -> bytes:
    """Render a header dict as a sealed page-0 image.

    Shared by :func:`save_tree` and the WAL commit path
    (:mod:`repro.storage.wal`), whose transactions carry the complete
    post-commit superblock image so redo can rewrite page 0 like any
    other page.
    """
    blob = json.dumps(header).encode()
    if len(blob) + 4 + _SUPERBLOCK_TRAILER > page_size:
        raise ValueError("superblock overflow")
    page0 = struct.pack("<I", len(blob)) + blob
    page0 += b"\x00" * (page_size - _SUPERBLOCK_TRAILER - len(page0))
    page0 += struct.pack("<II", crc32(page0), FORMAT_EPOCH)
    return page0


def save_tree(tree: GiST, path: str) -> None:
    """Write the tree to ``path`` as fixed-size page images.

    A redo log beside ``path`` belongs to the file being replaced; it is
    removed first, or the next :class:`~repro.gist.mutable.MutableTree`
    open would replay its transactions onto the new tree.
    """
    codec = NodeCodec(tree.page_size, tree.leaf_codec, tree.index_codec)
    nodes = list(tree.iter_nodes()) if tree.root_id is not None else []
    # Page slots are assigned densely in traversal order; the superblock
    # maps original page ids to slots.
    slot_of: Dict[int, int] = {n.page_id: i + 1 for i, n in enumerate(nodes)}
    header = {
        "magic": _MAGIC,
        "extension": tree.ext.name,
        "ext_config": tree.ext.config(),
        "dim": tree.ext.dim,
        "page_size": tree.page_size,
        "height": tree.height,
        "size": tree.size,
        "num_nodes": len(nodes),
        "root_slot": slot_of.get(tree.root_id, 0),
        # A freshly saved file is dense: every slot holds a live node.
        # Mutable files (repro.gist.mutable) grow sparse as deletes
        # free slots; their superblocks keep num_slots > num_nodes.
        "num_slots": len(nodes),
        # Names the leaf-page body format.
        "leaf_codec": tree.leaf_codec.codec_id,
    }
    page0 = superblock_image(header, tree.page_size)
    images = codec.encode_nodes(
        [_renumbered(node, slot_of) for node in nodes])
    try:
        os.remove(default_wal_path(path))
    except FileNotFoundError:
        pass
    with open(path, "wb") as f:
        f.write(page0)
        f.write(images)


def _renumbered(node: Node, slot_of: Dict[int, int]) -> Node:
    """``node`` moved to its slot, its child ids mapped to theirs."""
    slot = slot_of[node.page_id]
    if node.is_leaf:
        return Node.leaf_from_arrays(slot, node.keys_array(),
                                     node.rid_array())
    children = np.array([slot_of[c] for c in node.children()],
                        dtype=np.int64)
    return Node.inner_from_block(slot, node.level, node.pred_block(),
                                 children)


def read_superblock(raw: bytes, path: str) -> dict:
    """Parse and verify the page-0 superblock of a saved index.

    Every field a reader indexes is required and validated.  Raises
    :class:`PageCorruptError` (naming ``path``) on any damage:
    truncation, unparseable JSON, wrong magic, a missing or implausible
    field, another format epoch, or a checksum mismatch.
    """
    if len(raw) < 4:
        raise PageCorruptError("not a saved GiST (file too short)",
                               path=path)
    (hlen,) = struct.unpack_from("<I", raw, 0)
    if hlen <= 0 or 4 + hlen > len(raw):
        raise PageCorruptError("not a saved GiST (bad superblock length)",
                               path=path)
    try:
        header = json.loads(raw[4:4 + hlen])
    except ValueError:
        raise PageCorruptError("not a saved GiST (superblock is not JSON)",
                               path=path) from None
    if not isinstance(header, dict) or header.get("magic") != _MAGIC:
        raise PageCorruptError("not a saved GiST (bad magic)", path=path)

    def _field(key: str, valid: Callable[[Any], bool]) -> Any:
        value = header.get(key)
        if not valid(value):
            raise PageCorruptError(
                f"superblock field {key!r} invalid: {value!r}", path=path)
        return value

    def _int_field(key: str, minimum: int) -> int:
        return _field(key, lambda v: isinstance(v, int) and v >= minimum)

    page_size = _int_field("page_size", PAGE_HEADER_SIZE + 1)
    _int_field("dim", 1)
    num_nodes = _int_field("num_nodes", 0)
    _int_field("height", 0)
    _int_field("size", 0)
    root_slot = _int_field("root_slot", 0)
    # Mutable files carry num_slots >= num_nodes (freed slots linger).
    num_slots = _int_field("num_slots", 0)
    if num_slots < num_nodes:
        raise PageCorruptError(
            f"superblock num_slots {num_slots} below num_nodes "
            f"{num_nodes}", path=path)
    if root_slot > num_slots:
        raise PageCorruptError(
            f"superblock root_slot {root_slot} exceeds num_slots "
            f"{num_slots}", path=path)
    if len(raw) < (num_slots + 1) * page_size:
        raise PageCorruptError(
            f"superblock claims {num_slots} slots of {page_size} bytes "
            f"but the file holds only {len(raw)} bytes", path=path)
    _field("extension", lambda v: isinstance(v, str))
    _field("ext_config", lambda v: isinstance(v, dict))
    _field("leaf_codec", lambda v: isinstance(v, str) and v in LEAF_CODECS)

    crc, epoch = struct.unpack_from(
        "<II", raw, page_size - _SUPERBLOCK_TRAILER)
    if epoch != FORMAT_EPOCH:
        raise PageCorruptError(f"format epoch {epoch}: rebuild the index",
                               path=path)
    actual = crc32(memoryview(raw)[:page_size - _SUPERBLOCK_TRAILER])
    if actual != crc:
        raise PageCorruptError(
            f"superblock checksum mismatch: stored {crc:#010x}, "
            f"computed {actual:#010x}", path=path)
    return header


def header_extension(header: Dict, extension: Any = None) -> Any:
    """The access method a superblock describes.

    With ``extension=None`` it is rebuilt from the header's extension
    name, ``dim`` and ``ext_config``; a passed extension is checked
    against them.  Raises ``ValueError`` on a mismatch; a hostile
    ``ext_config`` may fail inside the extension's constructor.
    """
    if extension is None:
        from repro.core.api import make_extension
        extension = make_extension(header["extension"], header["dim"],
                                   **header["ext_config"])
    if header["extension"] != extension.name:
        raise ValueError(
            f"tree was saved by {header['extension']!r}, "
            f"got extension {extension.name!r}")
    if header["dim"] != extension.dim:
        raise ValueError(
            f"dimension mismatch: saved {header['dim']}, "
            f"extension {extension.dim}")
    return extension


def load_tree(extension: Any = None, path: str = None) -> GiST:
    """Reload a tree saved by :func:`save_tree`.

    With ``extension=None`` the saved header's extension name and config
    rebuild the access method automatically (files are self-describing);
    an explicitly passed extension is checked against the header.
    """
    if path is None and isinstance(extension, str):
        extension, path = None, extension
    tree, header, root, stored = _load(extension, path)
    if root is None:
        if header["num_nodes"]:
            raise PageCorruptError(
                f"superblock root_slot {header['root_slot']} holds no "
                f"node", path=path)
    elif root.level != header["height"] - 1:
        raise PageCorruptError(
            f"root page level {root.level} contradicts superblock "
            f"height {header['height']}", path=path)
    if stored != header["size"]:
        raise PageCorruptError(
            f"superblock claims {header['size']} keys, leaves hold "
            f"{stored}", path=path)
    return tree


def load_pages(path: str) -> GiST:
    """Load a saved tree without :func:`load_tree`'s root, height and
    size census, so ``fsck --deep`` can run
    :func:`~repro.analysis.treecheck.check_tree` on a file whose pages
    contradict its superblock and name the pages involved."""
    return _load(None, path)[0]


def _load(extension: Any, path: str
          ) -> Tuple[GiST, Dict, Optional[Node], int]:
    """Decode every slot of ``path`` into an in-memory tree: the tree,
    its superblock, the root-slot node (None if absent) and the leaf
    entries decoded."""
    with open(path, "rb") as f:
        raw = f.read()
    header = read_superblock(raw, path)
    extension = header_extension(header, extension)
    page_size = header["page_size"]
    leaf_codec = make_leaf_codec(header["leaf_codec"], extension.dim)
    tree = GiST(extension, page_size=page_size, leaf_codec=leaf_codec)
    pages = tree.store.pagefile

    num_slots = header["num_slots"]
    images = np.frombuffer(raw, dtype=np.uint8, count=num_slots * page_size,
                           offset=page_size).reshape(num_slots, page_size)
    root = None
    live: List[Node] = []
    stored = 0
    for slot, image in enumerate(images, start=1):
        # Mutable files are sparse: freed slots are stamped with page
        # id -1, and aborted allocations can leave never-written
        # all-zero gaps.  Neither holds a node.
        if not image.any():
            continue
        try:
            node = pages.codec.decode_node(image, slot, path=path)
        except PageMissingError:
            continue
        live.append(node)
        if node.is_leaf:
            stored += len(node)
        if slot == header["root_slot"]:
            root = node
    if len(live) != header["num_nodes"]:
        raise PageCorruptError(
            f"superblock claims {header['num_nodes']} nodes, "
            f"file holds {len(live)}", path=path)
    if num_slots:
        pages._write_raw(1, raw[page_size:(num_slots + 1) * page_size])
    if live:
        pages.reserve(live[-1].page_id)
    # The census decoded every live page already: pin those nodes
    # rather than decode each again through the store's peek.
    tree.store.pin_nodes(live)
    if root is not None:
        tree.adopt(root, header["height"], header["size"])
    return tree, header, root, stored
