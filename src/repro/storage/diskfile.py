"""The one bottom store: nodes live as real page images in one file.

Every `read` fetches one page's slot and decodes the fixed-size image
through the node codec, every `write` encodes and writes it back, so a
tree backed by this store runs with genuine disk-page granularity.  The
file is named, or anonymous (``path=None``): an in-memory tree is such a
file behind a :class:`~repro.storage.buffer.BufferPool` that keeps every
page.  Nothing decoded is kept here: the one cache of decoded nodes is a
pool in front of the file.

Resilience: images are sealed with CRC-32 checksums by the codec, so a
torn write or bit flip surfaces as a typed
:class:`~repro.storage.errors.PageCorruptError` instead of silently
decoding garbage; missing or freed slots raise
:class:`~repro.storage.errors.PageMissingError`; an interrupted slot
read is wrapped as :class:`~repro.storage.errors.TransientIOError` and
masked here by bounded exponential backoff (:mod:`repro.storage.retry`):
this is the one place a transient fault arises, so it is the one place
it is retried, and a :class:`~repro.storage.buffer.BufferPool` in front
adds no second loop.
"""

from __future__ import annotations

import errno
import mmap
import os
import struct
import tempfile
import time
import weakref
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.gist.node import Node
from repro.storage.codecs import NodeCodec
from repro.storage.errors import PageMissingError, TransientIOError
from repro.storage.pagefile import PageStats
from repro.storage.retry import RetryPolicy, call_with_retry

#: OS errors that plausibly succeed on retry.
_TRANSIENT_ERRNOS = frozenset(
    e for e in (getattr(errno, name, None)
                for name in ("EINTR", "EAGAIN", "EBUSY"))
    if e is not None)


class FilePageFile:
    """Page-granular node storage in a single binary file.

    Page ids map to fixed-size slots (`page_id * page_size`); slot 0 is
    reserved.  The codec comes from the tree's extension, so construct
    via :meth:`for_extension` or pass a prepared :class:`NodeCodec`.
    With ``path=None`` the file is an anonymous temporary file, closed
    when the store is closed or dropped.

    With ``mmap_mode=True`` reads go through a shared read-only memory
    map of the file instead of seek+read syscalls: page images are
    memoryview slices over the map, and leaf bodies decode as zero-copy
    array views (:meth:`LeafBodyCodec.decode_block` into
    :meth:`Node.leaf_from_arrays`).  Every counted read is one
    :meth:`read` of one page; this store caches nothing, so a caller
    that revisits pages puts a
    :class:`~repro.storage.buffer.BufferPool` in front.  Writes stay
    on the ordinary descriptor — an mmap shares the OS page cache with
    file writes, so in-place updates are visible through the existing
    map after a flush and only file *growth* forces a remap.
    """

    def __init__(self, path: Optional[str], codec: NodeCodec,
                 retry: Optional[RetryPolicy] = RetryPolicy(),
                 sleep: Callable[[float], None] = time.sleep,
                 mmap_mode: bool = False) -> None:
        self.path = path
        self.codec = codec
        self.page_size = codec.page_size
        self.retry = retry
        self._sleep = sleep
        self.mmap_mode = bool(mmap_mode)
        if path is None:
            self._file = tempfile.TemporaryFile()
            # nothing else owns an anonymous file: a dropped store closes it
            weakref.finalize(self, self._file.close)
        else:
            # "a+b" would force writes to the end regardless of seeks;
            # open read-write, creating the file when missing.
            if not os.path.exists(path):
                open(path, "wb").close()
            self._file = open(path, "r+b")
        self._map: Optional[mmap.mmap] = None
        self._map_slots = 0
        self._map_dirty = True
        self._next_id = max(1, self._slot_count())
        self._free: List[int] = []
        self.stats = PageStats()

    @classmethod
    def for_extension(cls, path: Optional[str], extension: Any,
                      page_size: int, leaf_codec: str = "f64",
                      **kwargs: Any) -> "FilePageFile":
        from repro.storage.codecs import InnerBodyCodec, make_leaf_codec
        codec = NodeCodec(page_size, make_leaf_codec(leaf_codec,
                                                     extension.dim),
                          InnerBodyCodec(extension.pred_codec()))
        return cls(path, codec, **kwargs)

    # -- id allocation ------------------------------------------------------

    def allocate(self) -> int:
        if self._free:
            return self._free.pop()
        page_id = self._next_id
        self._next_id += 1
        return page_id

    def reserve(self, up_to: int) -> None:
        self._next_id = max(self._next_id, up_to + 1)

    # -- raw slot access -----------------------------------------------------

    def _slot_count(self) -> int:
        """Slots the file currently holds (slot 0 included)."""
        # fstat sees the OS file, not Python's write buffer — flush so
        # freshly written slots are counted.
        self._file.flush()
        return os.fstat(self._file.fileno()).st_size // self.page_size

    def _read_raw(self, page_id: int) -> bytes:
        """The raw image bytes of a slot (an interrupted syscall is a
        :class:`TransientIOError`); typed errors, no decode."""
        if page_id < 1:
            raise PageMissingError("page ids start at 1", path=self.path,
                                   page_id=page_id)
        try:
            self._file.seek(page_id * self.page_size)
            image = self._file.read(self.page_size)
        except OSError as exc:
            if exc.errno in _TRANSIENT_ERRNOS:
                raise TransientIOError(
                    f"transient read failure: {exc}", path=self.path,
                    page_id=page_id) from exc
            raise
        if len(image) < self.page_size:
            raise PageMissingError("slot beyond end of file",
                                   path=self.path, page_id=page_id)
        return image

    def _write_raw(self, page_id: int, image: bytes) -> None:
        """Write raw image bytes into the run of slots starting at
        ``page_id``: every byte the data file receives passes here."""
        if not image or len(image) % self.page_size:
            raise ValueError(f"{len(image)} bytes is not a run of slots")
        self._file.seek(page_id * self.page_size)
        self._file.write(image)
        self._map_dirty = True

    # -- memory map ----------------------------------------------------------

    def _drop_map(self) -> None:
        if self._map is not None:
            try:
                self._map.close()
            except BufferError:
                # Decoded nodes still hold zero-copy views into the old
                # map; dropping our reference lets the GC unmap it once
                # the last view dies.
                pass
            self._map = None
            self._map_slots = 0

    def _ensure_map(self, min_slots: int) -> bool:
        """Map (or refresh) a read-only view of the file.

        Returns True when the map covers at least ``min_slots`` slots.
        Pending buffered writes are flushed first so the map sees them;
        in-place slot updates need no remap (the map and the descriptor
        share the OS page cache) — only file growth does.
        """
        if self._map_dirty:
            self._file.flush()
            self._map_dirty = False
        if self._map is not None and self._map_slots >= min_slots:
            return True
        slots = os.fstat(self._file.fileno()).st_size // self.page_size
        if slots != self._map_slots or self._map is None:
            self._drop_map()
            if slots:
                self._map = mmap.mmap(self._file.fileno(),
                                      slots * self.page_size,
                                      access=mmap.ACCESS_READ)
            self._map_slots = slots
        return self._map_slots >= min_slots

    def _read_view(self, page_id: int) -> memoryview:
        """A slot's image as a zero-copy view over the memory map."""
        if page_id < 1:
            raise PageMissingError("page ids start at 1", path=self.path,
                                   page_id=page_id)
        if not self._ensure_map(page_id + 1):
            raise PageMissingError("slot beyond end of file",
                                   path=self.path, page_id=page_id)
        assert self._map is not None
        start = page_id * self.page_size
        return memoryview(self._map)[start:start + self.page_size]

    def _slot_page_id(self, page_id: int, slots: int) -> Optional[int]:
        """The page id stamped in a slot's header, or None if absent
        (``slots`` is :meth:`_slot_count`, taken once per scan)."""
        if page_id < 1 or page_id >= slots:
            return None
        self._file.seek(page_id * self.page_size)
        header = self._file.read(8)
        if len(header) < 8:
            return None
        return struct.unpack("<q", header)[0]

    # -- node access ----------------------------------------------------------

    def _read_image(self, page_id: int) -> Node:
        image = (self._read_view(page_id) if self.mmap_mode
                 else self._read_raw(page_id))
        return self.codec.decode_node(image, page_id, path=self.path)

    def read(self, page_id: int) -> Node:
        node = call_with_retry(lambda: self._read_image(page_id),
                               self.retry, sleep=self._sleep)
        self.stats.record_read(node.level)
        return node

    def read_many(self, page_ids: Iterable[int]) -> List[Node]:
        # kept by name only: the spine's trace_store wraps it
        return [self.read(page_id) for page_id in page_ids]

    def peek(self, page_id: int) -> Node:
        return call_with_retry(lambda: self._read_image(page_id),
                               self.retry, sleep=self._sleep)

    def write(self, node: Node) -> None:
        self.write_many([node])

    def write_many(self, nodes: Iterable[Node]) -> None:
        """Encode and write a batch of nodes in one pass: one
        :meth:`NodeCodec.encode_nodes` call (one batched CRC pass), then
        one :meth:`_write_raw` per contiguous page-id run."""
        nodes = list(nodes)
        if not nodes:
            return
        images = self.codec.encode_nodes(nodes)
        order = sorted(range(len(nodes)), key=lambda i: nodes[i].page_id)
        tail: List[Optional[int]] = [*order, None]
        run: List[int] = []
        for i in tail:
            if run and (i is None
                        or nodes[i].page_id != nodes[run[-1]].page_id + 1):
                self._write_raw(nodes[run[0]].page_id,
                                images[run].tobytes())
                run = []
            if i is not None:
                run.append(i)
        self.stats.writes += len(nodes)

    def _scan_slots(self) -> Tuple[List[int], List[int]]:
        """``(live, freed)`` page ids, by one pass over the slot headers:
        a slot is live when its header names it, freed when stamped -1.
        Slots that are neither (all-zero gaps from an aborted
        allocation) are skipped — they stay unreusable but harmless."""
        slots = self._slot_count()
        live: List[int] = []
        freed: List[int] = []
        for slot in range(1, slots):
            pid = self._slot_page_id(slot, slots)
            if pid == slot:
                live.append(slot)
            elif pid == -1:
                freed.append(slot)
        return live, freed

    def rebuild_slot_state(self) -> Tuple[List[int], List[int]]:
        """Rescan slot headers after reopening a mutated file.

        The free list is not persisted, so a store opened over a file
        that previously saw inserts/deletes must rebuild it before
        allocating, or freed slots leak.  Returns ``(live, freed)``
        page-id lists (see :meth:`_scan_slots`).
        """
        live, freed = self._scan_slots()
        self._free = list(freed)
        return live, freed

    def free(self, page_id: int) -> None:
        # Stamp the slot with page id -1 (sealed) so stale reads fail
        # loudly with PageMissingError, never decode as live data.
        self._write_raw(page_id,
                        self.codec.encode_nodes([Node(-1, 0)])[0].tobytes())
        self._free.append(page_id)

    def __contains__(self, page_id: int) -> bool:
        # Header-only membership: no body decode, so a corrupt-but-
        # present slot answers True and a freed slot (-1) answers False
        # without raising.
        try:
            return self._slot_page_id(page_id, self._slot_count()) == page_id
        except OSError:
            return False

    def page_ids(self) -> List[int]:
        """Live page ids, by scanning slot headers (reload-safe)."""
        return self._scan_slots()[0]

    def __len__(self) -> int:
        return len(self.page_ids())

    # -- lifecycle ------------------------------------------------------------

    def flush(self) -> None:
        self._file.flush()

    def close(self) -> None:
        self._drop_map()
        self._file.close()

    def __enter__(self) -> "FilePageFile":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
