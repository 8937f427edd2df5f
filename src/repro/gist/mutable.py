"""Crash-safe online mutation for saved indexes.

:class:`MutableTree` opens a file written by
:func:`repro.gist.persist.save_tree` for in-place insert/delete.  Every
mutation runs as one WAL transaction (:mod:`repro.storage.wal`): the
tree's page writes stage in an overlay, commit encodes them, logs them
with the post-mutation superblock image, fsyncs — the durability
point — and only then applies them to the data file.  A process killed
anywhere in that protocol reopens through :func:`~repro.storage.wal.recover`
to exactly the last committed mutation; ``repro fsck --deep`` comes back
clean and queries match a tree that applied only the committed
transactions (the kill-and-recover harness in
:mod:`repro.workload.crash` proves this for all six AM families).

Predicate maintenance on the insert path uses the extensions'
incremental ``widen``/``widen_key`` row hooks (widen, never
recompute-unless-needed), so online inserts work for every registered
family: R/R*-tree
MBR growth, SS/SR-tree sphere unions, aMAP lesser-growth rectangle
widening, and JB/XJB bite invalidation (a key landing inside a carved
bite un-carves it).

Reads between mutations: commit is synchronous, so a query on
``mt.tree`` reads the last committed state.  There is no read view
pinned across a mutation: an ``nn_cursor`` held while the tree mutates
is not supported.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

import numpy as np

from repro.gist.tree import GiST
from repro.gist.persist import (_MAGIC, header_extension, read_superblock,
                                save_tree, superblock_image)
from repro.storage.buffer import BufferPool
from repro.storage.diskfile import FilePageFile
from repro.storage.errors import StorageError
from repro.storage.faults import CrashError, CrashInjector
from repro.storage.wal import (RecoveryReport, WALPageFile, WriteAheadLog,
                               default_wal_path, recover)


class MutableTree:
    """A saved index opened for crash-safe insert/delete.

    Construct with :meth:`open` (existing file) or :meth:`create`
    (fresh empty index).  Mutations are atomic and durable; attached
    :class:`~repro.blobworld.cache.QueryResultCache` instances are
    invalidated whenever a mutation commits.
    """

    def __init__(self, tree: GiST, wpf: WALPageFile, path: str,
                 recovery: RecoveryReport) -> None:
        self.tree = tree
        self.wpf = wpf
        self.path = path
        #: what :func:`~repro.storage.wal.recover` did at open time.
        self.recovery = recovery
        self._broken = False
        self._caches: List[Any] = []

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def create(cls, extension: Any, path: str,
               page_size: int, leaf_codec: str = "f64",
               **open_options: Any) -> "MutableTree":
        """Write an empty index file and open it for mutation."""
        from repro.storage.codecs import make_leaf_codec
        save_tree(GiST(extension, page_size=page_size,
                       leaf_codec=make_leaf_codec(leaf_codec,
                                                  extension.dim)), path)
        return cls.open(path, extension=extension, **open_options)

    @classmethod
    def open(cls, path: str, extension: Any = None,
             buffer_pages: int = 0,
             injector: Optional[CrashInjector] = None,
             wal_path: Optional[str] = None,
             exact: Any = None) -> "MutableTree":
        """Recover, then open a saved index for mutation.

        Recovery always runs first: if the previous writer crashed, the
        sidecar log's committed transactions are replayed (and its torn
        tail truncated) before a single page is read.  ``buffer_pages``
        optionally interposes a :class:`~repro.storage.BufferPool`;
        ``injector`` threads a crash-point injector through the commit
        protocol (tests only).  ``exact``, the ``(N, dim)`` keys by rid,
        is attached as :attr:`GiST.exact`: a quantized index ranks its
        leaves by it and keeps its predicates fit to it.
        """
        if wal_path is None:
            wal_path = default_wal_path(path)
        recovery = recover(path, wal_path)
        with open(path, "rb") as f:
            raw = f.read()
        header = read_superblock(raw, path)
        extension = header_extension(header, extension)
        page_size = header["page_size"]
        base = FilePageFile.for_extension(path, extension, page_size,
                                          leaf_codec=header["leaf_codec"])
        store: Any = base
        if buffer_pages:
            store = BufferPool(base, buffer_pages)
        wal = WriteAheadLog(wal_path, page_size, injector=injector)
        wpf = WALPageFile(store, wal, injector=injector)
        tree = GiST(extension, store=wpf, page_size=page_size,
                    leaf_codec=base.codec.leaf_codec)
        tree.incremental_adjust = True
        tree.exact = exact
        tree.root_id = header["root_slot"] or None
        tree.height = header["height"]
        tree.size = header["size"]
        return cls(tree, wpf, path, recovery)

    def close(self) -> None:
        self.wpf.close()

    def __enter__(self) -> "MutableTree":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- mutation ------------------------------------------------------------

    def insert(self, key: np.ndarray, rid: int) -> None:
        """Durably add one ``(key, RID)`` pair."""
        key = np.asarray(key, dtype=np.float64)
        self._mutate(lambda: self.tree.insert(key, rid))

    def delete(self, key: np.ndarray, rid: int) -> bool:
        """Durably remove one ``(key, RID)`` pair; False if absent."""
        key = np.asarray(key, dtype=np.float64)
        return bool(self._mutate(lambda: self.tree.delete(key, rid)))

    def _mutate(self, op: Callable[[], Any]) -> Any:
        """Run one tree mutation as a logged transaction."""
        if self._broken:
            raise StorageError(
                "tree is poisoned after a crashed commit; reopen through "
                "recovery", path=self.path)
        tree, wpf = self.tree, self.wpf
        saved = (tree.root_id, tree.height, tree.size)
        wpf.begin()
        try:
            result = op()
        except BaseException:
            # The mutation never reached the log: discard the overlay
            # and roll the in-memory bookkeeping back.
            wpf.abort()
            tree.root_id, tree.height, tree.size = saved
            raise
        if not wpf.dirty():
            wpf.commit(None)
            return result
        num_nodes, num_slots = wpf.pending_counts()
        header = {
            "magic": _MAGIC,
            "extension": tree.ext.name,
            "ext_config": tree.ext.config(),
            "dim": tree.ext.dim,
            "page_size": tree.page_size,
            "height": tree.height,
            "size": tree.size,
            "num_nodes": num_nodes,
            "root_slot": tree.root_id or 0,
            "num_slots": num_slots,
            "leaf_codec": tree.leaf_codec.codec_id,
        }
        meta = superblock_image(header, tree.page_size)
        try:
            wpf.commit(meta)
        except CrashError:
            self._broken = True
            raise
        for cache in self._caches:
            # Any structural mutation can change any ranked list (a new
            # nearest neighbor, a deleted one), so the whole cache goes.
            cache.invalidate()
        return result

    # -- caches --------------------------------------------------------------

    def attach_cache(self, cache: Any) -> None:
        """Invalidate ``cache`` whenever a mutation commits."""
        self._caches.append(cache)

    def detach_cache(self, cache: Any) -> None:
        self._caches.remove(cache)

    # -- maintenance ---------------------------------------------------------

    def checkpoint(self) -> None:
        """Sync the data file and reset the log."""
        self.wpf.checkpoint()

    @property
    def wal_size(self) -> int:
        """Bytes of pending redo log."""
        return self.wpf.wal.size_bytes()
