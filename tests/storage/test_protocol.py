"""PageFileProtocol: every store speaks the same interface."""

import numpy as np
import pytest

from repro.ams import RTreeExtension
from repro.gist import GiST
from repro.gist.node import Node
from repro.storage import (BufferPool, FilePageFile, PageFileProtocol,
                           PageMissingError, WALPageFile, WriteAheadLog)
from repro.storage.faults import FaultyPageFile


def _stores(tmp_path):
    ext = RTreeExtension(2)
    # an in-memory tree's store: a resident pool over an anonymous file
    mem = GiST(ext, page_size=1024).store
    anonymous = FilePageFile.for_extension(None, ext, page_size=1024)
    disk = FilePageFile.for_extension(str(tmp_path / "p.bin"), ext,
                                      page_size=1024)
    pool = BufferPool(
        FilePageFile.for_extension(str(tmp_path / "q.bin"), ext,
                                   page_size=1024),
        capacity_pages=4)
    faulty = FaultyPageFile(
        FilePageFile.for_extension(None, ext, page_size=1024))
    logged = WALPageFile(
        FilePageFile.for_extension(str(tmp_path / "w.bin"), ext,
                                   page_size=1024),
        WriteAheadLog(str(tmp_path / "w.bin.wal"), 1024))
    return {"memory": mem, "anonymous": anonymous, "disk": disk,
            "pool": pool, "faulty": faulty, "logged": logged}


class TestProtocol:
    def test_all_stores_satisfy_protocol(self, tmp_path):
        for name, store in _stores(tmp_path).items():
            with store:
                assert isinstance(store, PageFileProtocol), name

    def test_stores_are_interchangeable(self, tmp_path):
        """One script, six backends, identical observable behavior."""
        for name, store in _stores(tmp_path).items():
            with store:
                a = store.allocate()
                b = store.allocate()
                store.write(Node(a, 0))
                store.write(Node(b, 1))
                assert a in store and b in store
                assert store.read(a).level == 0
                assert store.peek(b).level == 1
                assert sorted(store.page_ids()) == [a, b], name
                assert len(store) == 2, name
                store.reserve(10)
                assert store.allocate() == 11, name
                store.free(b)
                assert b not in store, name
                with pytest.raises(KeyError):
                    store.read(b)
                with pytest.raises(PageMissingError):
                    store.read(b)
                store.flush()

    def test_counting_and_listeners_shared(self, tmp_path):
        """Over every store the tree books the one counted read and
        tells its listener."""
        events = []
        stores = _stores(tmp_path)
        for name, store in stores.items():
            with store:
                tree = GiST(RTreeExtension(2), store=store, page_size=1024)
                a = store.allocate()
                store.write(Node(a, 0))
                tree.add_listener(
                    lambda pid, level, evs=events: evs.append(pid))
                tree._read_query(a)
                tree._peek(a)                 # uncounted: no event
                assert tree.stats.reads_by_level == {0: 1}, name
        assert len(events) == len(stores)


class TestReadMany:
    """No query path reads pages in bulk, so ``read_many`` is no part of
    the protocol.  Two stores keep the name, as the loop over
    ``read``, because the benchmark's tracer wraps it on them; their
    tests in test_mmap_diskfile.py and test_buffer.py hold it to the
    loop's nodes, counters and errors."""

    def test_only_the_traced_stores_keep_it(self):
        assert "read_many" not in vars(PageFileProtocol)
        for cls in (FilePageFile, BufferPool):
            assert "read_many" in vars(cls), cls.__name__
        for cls in (FaultyPageFile, WALPageFile):
            assert not hasattr(cls, "read_many"), cls.__name__
