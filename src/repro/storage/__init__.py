"""Paged storage substrate: codecs, page files, buffering, and I/O cost.

The GiST layer stores nodes in fixed-size pages.  Fanout is determined by
real byte budgets (predicate codec sizes against the page payload), and
every page lives in one kind of bottom store,
:class:`~repro.storage.diskfile.FilePageFile` (a named file, or an
anonymous one behind a resident :class:`BufferPool` for an in-memory
tree).  The tree counts its query reads in a
:class:`~repro.storage.pagefile.PageStats`; stores count what they
physically do (file reads and writes, pool hits and misses), and
:class:`~repro.storage.iomodel.DiskModel` converts access counts into
the paper's random-vs-sequential I/O economics (section 3.2).

Resilience (see DESIGN.md "Storage resilience"): page images carry
CRC-32 seals (:mod:`repro.storage.integrity`), failures surface through
the typed hierarchy in :mod:`repro.storage.errors`, a transient read
fault is retried once, where it arises — in the page file's slot read,
by :mod:`repro.storage.retry` — and
:class:`~repro.storage.faults.FaultyPageFile` injects deterministic
failures for testing.  Mutation is made atomic and durable by the
write-ahead log (:mod:`repro.storage.wal`): transactions stage in a
:class:`WALPageFile` overlay, reach the sidecar log plus an fsync
before the data file, and are redone by :func:`recover` after a crash.
All stores — file, buffered, faulty, logged — satisfy
:class:`PageFileProtocol` and are interchangeable.
"""

from typing import Any, Iterable, List, Protocol, runtime_checkable

from repro.storage.page import PAGE_HEADER_SIZE, page_payload
from repro.storage.pagefile import PageStats
from repro.storage.buffer import BufferPool
from repro.storage.diskfile import FilePageFile
from repro.storage.iomodel import DiskModel
from repro.storage.errors import (StorageError, PageCorruptError,
                                  PageMissingError, TransientIOError)
from repro.storage.integrity import FORMAT_EPOCH
from repro.storage.retry import RetryPolicy, call_with_retry
from repro.storage.faults import (CrashError, CrashInjector, CrashPoint,
                                  FaultLog, FaultPolicy, FaultyPageFile)
from repro.storage.wal import (RecoveryReport, WALPageFile, WALScan,
                               WriteAheadLog, default_wal_path, recover,
                               scan_wal)


@runtime_checkable
class PageFileProtocol(Protocol):
    """What every page store — file, buffered, fault-injected, logged —
    must provide so trees and tools can treat them alike.

    ``read`` is the query path (the tree books each node it returns);
    ``peek`` the maintenance path.  ``stats`` is an attribute by
    convention (``runtime_checkable`` checks methods only): a store's
    own counters of what it physically does.
    """

    # id allocation
    def allocate(self) -> int: ...
    def reserve(self, up_to: int) -> None: ...

    # node access
    def read(self, page_id: int) -> Any: ...
    def peek(self, page_id: int) -> Any: ...
    def write(self, node: Any) -> None: ...
    def write_many(self, nodes: Iterable[Any]) -> None: ...
    def free(self, page_id: int) -> None: ...
    def page_ids(self) -> List[int]: ...
    def __contains__(self, page_id: int) -> bool: ...
    def __len__(self) -> int: ...

    # lifecycle
    def flush(self) -> None: ...
    def close(self) -> None: ...
    def __enter__(self) -> "PageFileProtocol": ...
    def __exit__(self, *exc: Any) -> None: ...


__all__ = [
    "PAGE_HEADER_SIZE",
    "page_payload",
    "PageStats",
    "BufferPool",
    "FilePageFile",
    "DiskModel",
    "PageFileProtocol",
    "StorageError",
    "PageCorruptError",
    "PageMissingError",
    "TransientIOError",
    "FORMAT_EPOCH",
    "RetryPolicy",
    "call_with_retry",
    "FaultLog",
    "FaultPolicy",
    "FaultyPageFile",
    "CrashError",
    "CrashInjector",
    "CrashPoint",
    "WriteAheadLog",
    "WALPageFile",
    "WALScan",
    "RecoveryReport",
    "default_wal_path",
    "recover",
    "scan_wal",
]
