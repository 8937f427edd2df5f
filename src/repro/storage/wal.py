"""Write-ahead logging and redo recovery for mutable page files.

The sealed-page storage stack (:mod:`repro.storage.diskfile`) writes
nodes in place; an insert or delete touches several pages plus the
superblock, and a crash between those writes leaves the index file
inconsistent.  This module makes mutation atomic and durable:

- :class:`WriteAheadLog` — an append-only sidecar file (``<index>.wal``)
  of CRC-32-sealed records with monotonically increasing LSNs.  A
  transaction is a run of ``PAGE`` records (full post-images, one per
  dirtied slot — frees are images stamped with page id -1) followed by
  one ``COMMIT`` record whose payload is the complete superblock page-0
  image.  An fsync barrier after the commit record makes the
  transaction durable before any data-file byte changes.

- :class:`WALPageFile` — wraps the index's
  :class:`~repro.storage.diskfile.FilePageFile` and stages writes in a
  transaction overlay: ``begin()``, tree mutation, then ``commit()``
  encodes the staged nodes once, logs them, fsyncs, and only then
  applies the images to the data file.  Nothing caches decoded pages
  between the two, so no frame can go stale under the apply.  Reads
  during a transaction see the overlay.  Commit is
  synchronous, so a query run between two mutations reads the last
  committed state; there is no read view pinned across a mutation.

- :func:`recover` — redo recovery: scan the log, truncate any torn
  tail (a record whose seal fails, mid-write casualty of the crash),
  and rewrite every page image of every *committed* transaction into
  the data file.  Redo is pure image replay, so it is idempotent:
  replaying the same log twice produces byte-identical files.

Crash points (:class:`~repro.storage.faults.CrashPoint`) hook the
commit protocol at the three windows that matter — mid-append,
post-commit-pre-apply, mid-apply — and the kill-and-recover harness
(:mod:`repro.workload.crash`) proves every one recovers clean.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.gist.node import Node
from repro.storage.errors import (PageCorruptError, PageMissingError,
                                  StorageError)
from repro.storage.faults import CrashError, CrashInjector
from repro.storage.integrity import crc32

#: sidecar log file header: magic, then ``<II`` (version, page_size).
#: Version 1 sealed records with CRC32C; such a log is refused, not
#: scanned (every record would fail its seal and read as a torn tail).
_WAL_MAGIC = b"repro-wal-v1\x00\x00\x00\x00"
_WAL_VERSION = 2
_FILE_HEADER = struct.Struct("<II")
_HEADER_SIZE = len(_WAL_MAGIC) + _FILE_HEADER.size

#: per-record header: record magic, lsn, txn id, record type, page id,
#: payload length, crc (CRC-32 of the header with crc zeroed, then of
#: the payload).
_RECORD = struct.Struct("<IQQIqII")
_RECORD_MAGIC = 0x57414C52  # "WALR"

#: the longest data word, in bits, at which CRC-32 catches every error
#: of up to 3 bits (Koopman, DSN 2002; recomputed in the tests).
CRC32_HD4_BITS = 91_607
#: the largest page whose WAL record, header plus page, fits that word.
MAX_PAGE_SIZE = CRC32_HD4_BITS // 8 - _RECORD.size

#: record types.
REC_PAGE = 1
REC_COMMIT = 2

#: a commit that leaves the log longer than this checkpoints it.
CHECKPOINT_BYTES = 4 * 1024 * 1024


def default_wal_path(path: str) -> str:
    """The sidecar log path for an index file."""
    return path + ".wal"


def _seal_record(lsn: int, txn: int, rtype: int, page_id: int,
                 payload: bytes) -> bytes:
    header = _RECORD.pack(_RECORD_MAGIC, lsn, txn, rtype, page_id,
                          len(payload), 0)
    crc = crc32(payload, crc32(header))
    return _RECORD.pack(_RECORD_MAGIC, lsn, txn, rtype, page_id,
                        len(payload), crc) + payload


@dataclass
class WALScan:
    """What a replay scan of the log found."""

    page_size: int = 0
    #: committed transactions in commit order:
    #: (txn id, [(page_id, image), ...], superblock image or b"").
    committed: List[Tuple[int, List[Tuple[int, bytes]], bytes]] = \
        field(default_factory=list)
    #: transactions with PAGE records but no COMMIT (never durable).
    uncommitted: int = 0
    records: int = 0
    last_lsn: int = 0
    #: byte offset of the end of the last well-formed record.
    valid_bytes: int = _HEADER_SIZE
    #: torn-tail bytes after ``valid_bytes`` (0 when the log is whole).
    truncated_bytes: int = 0


def scan_wal(path: str) -> WALScan:
    """Parse the log sequentially, stopping at the first damaged record.

    A record that is short, bears a wrong magic, fails its CRC seal, or
    carries an implausible payload length marks the torn tail: it and
    everything after it were in flight when the process died, and since
    the commit record is the *last* record of its transaction, nothing
    durable can follow a tear — the scan stops there and reports the
    tail length for truncation.
    """
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _HEADER_SIZE or raw[:len(_WAL_MAGIC)] != _WAL_MAGIC:
        raise PageCorruptError("not a repro WAL file (bad header)",
                               path=path)
    version, page_size = _FILE_HEADER.unpack_from(raw, len(_WAL_MAGIC))
    if version != _WAL_VERSION:
        raise PageCorruptError(f"unsupported WAL version {version}",
                               path=path)
    if page_size <= 0:
        raise PageCorruptError(f"implausible WAL page size {page_size}",
                               path=path)
    scan = WALScan(page_size=page_size)
    open_txns: Dict[int, List[Tuple[int, bytes]]] = {}
    offset = _HEADER_SIZE
    while offset + _RECORD.size <= len(raw):
        magic, lsn, txn, rtype, page_id, plen, crc = \
            _RECORD.unpack_from(raw, offset)
        end = offset + _RECORD.size + plen
        if (magic != _RECORD_MAGIC or plen > 4 * page_size
                or end > len(raw)):
            break
        payload = raw[offset + _RECORD.size:end]
        header = _RECORD.pack(magic, lsn, txn, rtype, page_id, plen, 0)
        if crc32(payload, crc32(header)) != crc:
            break
        if rtype == REC_PAGE and plen == page_size and page_id >= 1:
            open_txns.setdefault(txn, []).append((page_id, payload))
        elif rtype == REC_COMMIT and plen in (0, page_size):
            scan.committed.append(
                (txn, open_txns.pop(txn, []), payload))
        else:
            break
        scan.records += 1
        scan.last_lsn = lsn
        offset = end
        scan.valid_bytes = offset
    scan.truncated_bytes = len(raw) - scan.valid_bytes
    scan.uncommitted = len(open_txns)
    return scan


class WriteAheadLog:
    """The append-only redo log sitting beside an index file.

    Opening for append validates the file header (creating the file
    when missing) and truncates any torn tail left by a crash, so every
    record the log holds while it is open is well-formed.
    """

    def __init__(self, path: str, page_size: int,
                 injector: Optional[CrashInjector] = None) -> None:
        self.path = path
        self.page_size = page_size
        self.injector = injector
        if not os.path.exists(path) or os.path.getsize(path) == 0:
            with open(path, "wb") as f:
                f.write(_WAL_MAGIC
                        + _FILE_HEADER.pack(_WAL_VERSION, page_size))
                f.flush()
                os.fsync(f.fileno())
            self._next_lsn = 1
            self._end = _HEADER_SIZE
        else:
            scan = scan_wal(path)
            if scan.page_size != page_size:
                raise PageCorruptError(
                    f"WAL page size {scan.page_size} does not match "
                    f"index page size {page_size}", path=path)
            self._next_lsn = scan.last_lsn + 1
            self._end = scan.valid_bytes
            if scan.truncated_bytes:
                with open(path, "r+b") as f:
                    f.truncate(scan.valid_bytes)
        self._file = open(path, "r+b")
        self._file.seek(self._end)

    def size_bytes(self) -> int:
        """Bytes of log past the file header."""
        return self._end - _HEADER_SIZE

    @property
    def last_lsn(self) -> int:
        return self._next_lsn - 1

    def _write_partial(self, record: bytes, fraction: float) -> None:
        """Persist a torn prefix of a record (crash injection only)."""
        keep = max(0, min(len(record) - 1, int(len(record) * fraction)))
        self._file.write(record[:keep])
        self._file.flush()

    def append_transaction(self, txn: int,
                           pages: Iterable[Tuple[int, bytes]],
                           commit_image: bytes) -> int:
        """Log one transaction and fsync; returns the commit LSN.

        ``pages`` are (page_id, post-image) pairs; ``commit_image`` is
        the complete superblock page-0 image (or ``b""`` to leave the
        superblock untouched on redo).  Nothing is durable until the
        final fsync returns; the ``mid-append`` crash point fires
        before individual record writes, persisting a torn record.
        """
        written = 0
        for page_id, image in pages:
            if len(image) != self.page_size:
                raise ValueError(
                    f"page image is {len(image)} bytes, "
                    f"pages are {self.page_size}")
            record = _seal_record(self._next_lsn, txn, REC_PAGE,
                                  page_id, image)
            if self.injector is not None:
                self.injector.check(
                    "mid-append",
                    lambda frac, rec=record: self._write_partial(rec, frac))
            self._file.write(record)
            self._next_lsn += 1
            written += len(record)
        record = _seal_record(self._next_lsn, txn, REC_COMMIT, 0,
                              commit_image)
        if self.injector is not None:
            self.injector.check(
                "mid-append",
                lambda frac, rec=record: self._write_partial(rec, frac))
        self._file.write(record)
        commit_lsn = self._next_lsn
        self._next_lsn += 1
        written += len(record)
        self._file.flush()
        os.fsync(self._file.fileno())
        self._end += written
        return commit_lsn

    def reset(self) -> None:
        """Checkpoint: discard all records (data file must be synced).

        Callers must fsync the data file *first* — after the truncate,
        the log can no longer redo anything.
        """
        self._file.truncate(_HEADER_SIZE)
        self._file.seek(_HEADER_SIZE)
        self._file.flush()
        os.fsync(self._file.fileno())
        self._end = _HEADER_SIZE

    def flush(self) -> None:
        self._file.flush()

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


@dataclass
class RecoveryReport:
    """What :func:`recover` did to bring an index file current."""

    path: str
    wal_path: str
    records_scanned: int = 0
    transactions_applied: int = 0
    transactions_uncommitted: int = 0
    pages_applied: int = 0
    truncated_bytes: int = 0
    checkpointed: bool = False

    @property
    def clean_log(self) -> bool:
        """True when the log held no torn tail and no orphan records."""
        return self.truncated_bytes == 0 and \
            self.transactions_uncommitted == 0

    def format(self) -> str:
        lines = [f"recover {self.path}",
                 f"wal          : {self.wal_path}",
                 f"records      : {self.records_scanned} scanned, "
                 f"{self.truncated_bytes} torn-tail bytes truncated",
                 f"transactions : {self.transactions_applied} replayed, "
                 f"{self.transactions_uncommitted} uncommitted discarded",
                 f"pages        : {self.pages_applied} images rewritten"]
        if self.checkpointed:
            lines.append("wal          : checkpointed (log reset)")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {"path": self.path, "wal_path": self.wal_path,
                "records_scanned": self.records_scanned,
                "transactions_applied": self.transactions_applied,
                "transactions_uncommitted": self.transactions_uncommitted,
                "pages_applied": self.pages_applied,
                "truncated_bytes": self.truncated_bytes,
                "checkpointed": self.checkpointed}


def recover(path: str, wal_path: Optional[str] = None,
            checkpoint: bool = True) -> RecoveryReport:
    """Redo recovery: replay committed transactions into ``path``.

    Scans the sidecar log, truncates any torn tail, and rewrites every
    page image (and superblock) of every committed transaction, in
    commit order.  Uncommitted transactions are discarded — their page
    records never became durable intent.  Pure image replay makes this
    idempotent: with ``checkpoint=False`` the log is left untouched and
    running recovery again yields a byte-identical data file.

    With ``checkpoint=True`` (the default) the data file is fsynced and
    the log reset afterwards, so the next crash replays only new work.
    A missing or empty log is a clean no-op.
    """
    if wal_path is None:
        wal_path = default_wal_path(path)
    report = RecoveryReport(path=path, wal_path=wal_path)
    if (not os.path.exists(wal_path)
            or os.path.getsize(wal_path) <= _HEADER_SIZE):
        return report
    scan = scan_wal(wal_path)
    report.records_scanned = scan.records
    report.truncated_bytes = scan.truncated_bytes
    report.transactions_uncommitted = scan.uncommitted
    if not os.path.exists(path):
        open(path, "wb").close()
    with open(path, "r+b") as data:
        for txn, pages, commit_image in scan.committed:
            for page_id, image in pages:
                data.seek(page_id * scan.page_size)
                data.write(image)
                report.pages_applied += 1
            if commit_image:
                data.seek(0)
                data.write(commit_image)
                report.pages_applied += 1
            report.transactions_applied += 1
        data.flush()
        os.fsync(data.fileno())
    if checkpoint:
        with open(wal_path, "r+b") as f:
            f.truncate(_HEADER_SIZE)
            f.flush()
            os.fsync(f.fileno())
        report.checkpointed = True
    return report


#: sentinel marking a page freed inside a transaction overlay.
_FREED = None


class WALPageFile:
    """Log-then-apply transactions over a disk page file.

    Satisfies the full page-file protocol so a
    :class:`~repro.gist.tree.GiST` can point straight at it.  Between
    :meth:`begin` and :meth:`commit`, writes and frees stage in an
    overlay (reads consult it first); ``commit`` encodes the staged
    nodes, appends them to the log with a commit record carrying the
    new superblock image, fsyncs — the durability point — and only then
    applies the images to the data file.  A crash anywhere in that
    protocol is recovered by :func:`recover`.

    Writes outside a transaction are wrapped in an implicit
    single-operation transaction (with no superblock update), so *every*
    page write flows through the log — the convention check
    ``unlogged_write`` in ``tests/conventions/`` flags mutation paths
    that would bypass it.
    """

    def __init__(self, store: Any, wal: WriteAheadLog,
                 injector: Optional[CrashInjector] = None) -> None:
        #: the data file; ``base`` names the same store, whose raw slot
        #: access the commit and checkpoint paths use.
        self.store = self.base = store
        self.wal = wal
        self.injector = injector
        self._in_txn = False
        self._staged: Dict[int, Any] = {}
        self._next_txn = 1
        self._broken = False
        #: live page ids (maintained across commits), seeded by the one
        #: slot-header scan that also rebuilds the level map and free list.
        self._live: Set[int] = set(self.base.rebuild_slot_state()[0])

    # -- transactions --------------------------------------------------------

    def begin(self) -> None:
        if self._broken:
            raise StorageError(
                "store is poisoned after a crash; reopen through recovery",
                path=self.base.path)
        if self._in_txn:
            raise ValueError("transaction already in progress")
        self._in_txn = True
        self._staged = {}

    def dirty(self) -> bool:
        """Whether the open transaction staged any page changes."""
        return bool(self._staged)

    def abort(self) -> None:
        """Discard the overlay; the data file never saw the transaction.

        Page ids allocated inside the aborted transaction are leaked
        (their slots were never written); the next
        :meth:`~repro.storage.diskfile.FilePageFile.rebuild_slot_state`
        scan skips the resulting all-zero gaps.
        """
        self._staged = {}
        self._in_txn = False

    def pending_counts(self) -> Tuple[int, int]:
        """(live nodes, highest slot) as they will stand after commit.

        The caller bakes these into the superblock image it hands to
        :meth:`commit` — ``num_nodes`` and ``num_slots`` must describe
        the post-apply file.
        """
        live = set(self._live)
        for pid, node in self._staged.items():
            if node is _FREED:
                live.discard(pid)
            else:
                live.add(pid)
        top = max(self.base._slot_count() - 1,
                  max(self._staged, default=0), 0)
        return len(live), top

    def commit(self, meta_image: Optional[bytes] = None) -> int:
        """Log, fsync, then apply the staged transaction.

        ``meta_image`` is the complete superblock page-0 image to
        install (None leaves the superblock alone).  Returns the commit
        LSN, or -1 for an empty transaction (nothing logged).  A
        :class:`~repro.storage.faults.CrashError` fired by an injector
        poisons this store — the caller must discard it and reopen
        through :func:`recover`.
        """
        if not self._in_txn:
            raise ValueError("no transaction in progress")
        if not self._staged and meta_image is None:
            self._in_txn = False
            return -1
        staged = sorted(self._staged.items())
        images = self.base.codec.encode_nodes(
            [Node(-1, 0) if node is _FREED else node for _, node in staged])
        pages: List[Tuple[int, bytes, Any]] = [
            (pid, image.tobytes(), node)
            for (pid, node), image in zip(staged, images)]
        txn = self._next_txn
        self._next_txn += 1
        try:
            lsn = self.wal.append_transaction(
                txn, [(pid, image) for pid, image, _ in pages],
                meta_image if meta_image is not None else b"")
            if self.injector is not None:
                self.injector.check("pre-apply")
            self._apply_images(pages, meta_image)
        except CrashError:
            self._broken = True
            raise
        self._staged = {}
        self._in_txn = False
        if self.wal.size_bytes() > CHECKPOINT_BYTES:
            self.checkpoint()
        return lsn

    def _tear_page(self, page_id: int, image: bytes,
                   fraction: float) -> None:
        """Persist a torn prefix of a page write (crash injection)."""
        keep = max(0, min(len(image) - 1, int(len(image) * fraction)))
        self.base._write_raw(page_id,
                             image[:keep] + b"\x00" * (len(image) - keep))
        self.base.flush()

    def _apply_images(self, pages: List[Tuple[int, bytes, Any]],
                      meta_image: Optional[bytes]) -> None:
        """Redo phase of commit: install logged images in the data file.

        The data file is fsynced at the end — a crash mid-apply is
        repaired by replaying the log.
        """
        base = self.base
        for pid, image, node in pages:
            if self.injector is not None:
                self.injector.check(
                    "mid-apply",
                    lambda frac, pid=pid, img=image:
                        self._tear_page(pid, img, frac))
            base._write_raw(pid, image)
            if node is _FREED:
                if pid not in base._free:
                    base._free.append(pid)
                self._live.discard(pid)
            else:
                self._live.add(pid)
            base.stats.writes += 1
        if meta_image is not None:
            base._write_raw(0, meta_image)
        base.flush()
        os.fsync(base._file.fileno())

    def checkpoint(self) -> None:
        """Sync the data file, then reset the log (it has nothing left
        to redo)."""
        if self._in_txn:
            raise ValueError("cannot checkpoint mid-transaction")
        self.base.flush()
        os.fsync(self.base._file.fileno())
        self.wal.reset()

    # -- page-file protocol --------------------------------------------------

    def allocate(self) -> int:
        return int(self.store.allocate())

    def reserve(self, up_to: int) -> None:
        self.store.reserve(up_to)

    def read(self, page_id: int) -> Any:
        """The committed page, read through the wrapped store.

        Inside an open transaction a staged node is returned as is: it
        was never read from a page, and no query reads mid-transaction —
        :class:`~repro.gist.mutable.MutableTree`'s insert and delete
        descend through the uncounted
        :meth:`~repro.gist.tree.GiST._peek`.
        """
        if self._in_txn and page_id in self._staged:
            return self._staged_node(page_id)
        return self.store.read(page_id)

    def peek(self, page_id: int) -> Any:
        if self._in_txn and page_id in self._staged:
            return self._staged_node(page_id)
        return self.store.peek(page_id)

    def _staged_node(self, page_id: int) -> Any:
        node = self._staged[page_id]
        if node is _FREED:
            raise PageMissingError("page freed in open transaction",
                                   path=self.base.path, page_id=page_id)
        return node

    def write(self, node: Any) -> None:
        if self._in_txn:
            self._staged[node.page_id] = node
            return
        self.begin()
        self._staged[node.page_id] = node
        self.commit(None)

    def write_many(self, nodes: Iterable[Any]) -> None:
        if self._in_txn:
            for node in nodes:
                self._staged[node.page_id] = node
            return
        self.begin()
        for node in nodes:
            self._staged[node.page_id] = node
        self.commit(None)

    def free(self, page_id: int) -> None:
        if self._in_txn:
            self._staged[page_id] = _FREED
            return
        self.begin()
        self._staged[page_id] = _FREED
        self.commit(None)

    def page_ids(self) -> List[int]:
        live = set(self._live)
        if self._in_txn:
            for pid, node in self._staged.items():
                if node is _FREED:
                    live.discard(pid)
                else:
                    live.add(pid)
        return sorted(live)

    def __contains__(self, page_id: int) -> bool:
        if self._in_txn and page_id in self._staged:
            return self._staged[page_id] is not _FREED
        return page_id in self._live

    def __len__(self) -> int:
        return len(self.page_ids())

    @property
    def stats(self) -> Any:
        return self.store.stats

    def flush(self) -> None:
        self.store.flush()

    def close(self) -> None:
        self.wal.close()
        self.store.close()

    def __enter__(self) -> "WALPageFile":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
