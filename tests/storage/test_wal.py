"""Write-ahead log: record format, torn tails, redo idempotence.

These are the unit-level guarantees underneath the kill-and-recover
harness (``tests/workload/test_crash.py``): every record is CRC-sealed,
a torn tail is detected and truncated exactly at the first damaged
record, and replaying committed transactions is pure image redo —
applying the same log twice leaves the data file byte-identical.
"""

import os
import struct

import numpy as np
import pytest

from repro.gist.mutable import MutableTree
from repro.gist.persist import save_tree
from repro.gist.tree import GiST
from repro.storage import PageCorruptError
from repro.storage import wal as wal_module
from repro.storage.diskfile import FilePageFile
from repro.storage.faults import CrashError, CrashInjector, CrashPoint
from repro.storage.wal import (_HEADER_SIZE, _RECORD, WriteAheadLog,
                               default_wal_path, recover, scan_wal)
from tests.conftest import make_ext

PAGE = 256


def _image(fill, page_size=PAGE):
    return bytes([fill]) * page_size


@pytest.fixture
def wal_path(tmp_path):
    return str(tmp_path / "index.amdb.wal")


@pytest.fixture
def wal(wal_path):
    log = WriteAheadLog(wal_path, PAGE)
    yield log
    log.close()


class TestAppendAndScan:
    def test_fresh_log_is_empty(self, wal, wal_path):
        assert wal.size_bytes() == 0
        assert wal.last_lsn == 0
        scan = scan_wal(wal_path)
        assert scan.records == 0
        assert scan.committed == []
        assert scan.truncated_bytes == 0

    def test_committed_transaction_round_trips(self, wal, wal_path):
        lsn = wal.append_transaction(
            7, [(1, _image(0xAA)), (3, _image(0xBB))], _image(0xCC))
        assert lsn == 3                      # two page records, then commit
        scan = scan_wal(wal_path)
        assert scan.records == 3
        assert scan.last_lsn == 3
        [(txn, pages, meta)] = scan.committed
        assert txn == 7
        assert pages == [(1, _image(0xAA)), (3, _image(0xBB))]
        assert meta == _image(0xCC)

    def test_commit_without_superblock_image(self, wal, wal_path):
        wal.append_transaction(1, [(2, _image(0x11))], b"")
        [(_, pages, meta)] = scan_wal(wal_path).committed
        assert pages == [(2, _image(0x11))]
        assert meta == b""

    def test_lsns_are_monotonic_across_transactions(self, wal, wal_path):
        first = wal.append_transaction(1, [(1, _image(1))], b"")
        second = wal.append_transaction(2, [(2, _image(2))], b"")
        assert second > first
        assert wal.last_lsn == second

    def test_wrong_size_image_rejected(self, wal):
        with pytest.raises(ValueError, match="bytes"):
            wal.append_transaction(1, [(1, b"\x00" * (PAGE - 1))], b"")

    def test_reopen_resumes_lsn_sequence(self, wal_path):
        with WriteAheadLog(wal_path, PAGE) as log:
            lsn = log.append_transaction(1, [(1, _image(1))], b"")
        with WriteAheadLog(wal_path, PAGE) as log:
            assert log.last_lsn == lsn
            assert log.append_transaction(2, [(2, _image(2))], b"") > lsn

    def test_page_size_mismatch_rejected_on_reopen(self, wal_path):
        WriteAheadLog(wal_path, PAGE).close()
        with pytest.raises(PageCorruptError, match="page size"):
            WriteAheadLog(wal_path, PAGE * 2)

    def test_garbage_file_rejected(self, tmp_path):
        path = str(tmp_path / "junk.wal")
        with open(path, "wb") as f:
            f.write(b"\xde\xad\xbe\xef" * 16)
        with pytest.raises(PageCorruptError, match="bad header"):
            scan_wal(path)

    def test_reset_discards_all_records(self, wal, wal_path):
        wal.append_transaction(1, [(1, _image(1))], b"")
        wal.reset()
        assert wal.size_bytes() == 0
        assert scan_wal(wal_path).records == 0


class TestTornTail:
    def _log_two(self, wal_path):
        with WriteAheadLog(wal_path, PAGE) as log:
            log.append_transaction(1, [(1, _image(0x11))], b"")
            log.append_transaction(2, [(2, _image(0x22))], b"")
        return os.path.getsize(wal_path)

    def test_truncated_record_marks_the_tail(self, wal_path):
        size = self._log_two(wal_path)
        with open(wal_path, "r+b") as f:
            f.truncate(size - 10)            # tear the last commit record
        scan = scan_wal(wal_path)
        assert [txn for txn, _, _ in scan.committed] == [1]
        assert scan.uncommitted == 1         # txn 2's page record is orphaned
        assert scan.truncated_bytes > 0

    def test_corrupt_byte_marks_the_tail(self, wal_path):
        self._log_two(wal_path)
        first_len = _RECORD.size + PAGE
        with open(wal_path, "r+b") as f:
            # Flip a payload byte of txn 2's page record: its seal breaks,
            # so txn 1 (fully intact) survives and txn 2 does not.
            f.seek(_HEADER_SIZE + 2 * first_len + _RECORD.size + 5)
            f.write(b"\xff")
        scan = scan_wal(wal_path)
        assert [txn for txn, _, _ in scan.committed] == [1]
        assert scan.truncated_bytes > 0

    def test_reopen_truncates_the_tail(self, wal_path):
        size = self._log_two(wal_path)
        with open(wal_path, "r+b") as f:
            f.truncate(size - 10)
        with WriteAheadLog(wal_path, PAGE) as log:
            # The torn transaction is gone; appending works from the
            # last well-formed record.
            log.append_transaction(3, [(3, _image(0x33))], b"")
        scan = scan_wal(wal_path)
        assert [txn for txn, _, _ in scan.committed] == [1, 3]
        assert scan.truncated_bytes == 0

    def test_mid_append_injection_leaves_torn_record(self, wal_path):
        injector = CrashInjector(CrashPoint(point="mid-append", after=1,
                                            torn=0.5))
        log = WriteAheadLog(wal_path, PAGE, injector=injector)
        with pytest.raises(CrashError):
            log.append_transaction(1, [(1, _image(1)), (2, _image(2))], b"")
        log.close()
        scan = scan_wal(wal_path)
        assert scan.committed == []          # commit record never written
        assert scan.uncommitted == 1
        assert scan.truncated_bytes > 0      # the torn second record


class TestRedoRecovery:
    def _data_file(self, tmp_path, slots=4):
        path = str(tmp_path / "index.amdb")
        with open(path, "wb") as f:
            f.write(b"\x00" * PAGE * (slots + 1))
        return path

    def test_committed_images_reach_the_data_file(self, tmp_path):
        path = self._data_file(tmp_path)
        with WriteAheadLog(default_wal_path(path), PAGE) as log:
            log.append_transaction(1, [(2, _image(0xAB))], _image(0x01))
        report = recover(path)
        assert report.transactions_applied == 1
        assert report.pages_applied == 2     # page 2 plus the superblock
        with open(path, "rb") as f:
            raw = f.read()
        assert raw[:PAGE] == _image(0x01)
        assert raw[2 * PAGE:3 * PAGE] == _image(0xAB)

    def test_uncommitted_transaction_is_discarded(self, tmp_path):
        path = self._data_file(tmp_path)
        wal_path = default_wal_path(path)
        with WriteAheadLog(wal_path, PAGE) as log:
            log.append_transaction(1, [(1, _image(0x11))], b"")
            size = os.path.getsize(wal_path)
            log.append_transaction(2, [(2, _image(0x22))], b"")
        with open(wal_path, "r+b") as f:
            f.truncate(size + 20)            # tear txn 2 mid-record
        report = recover(path)
        assert report.transactions_applied == 1
        assert report.truncated_bytes > 0
        with open(path, "rb") as f:
            raw = f.read()
        assert raw[PAGE:2 * PAGE] == _image(0x11)
        assert raw[2 * PAGE:3 * PAGE] == _image(0x00)   # txn 2 never applied

    def test_replay_is_idempotent(self, tmp_path):
        path = self._data_file(tmp_path)
        with WriteAheadLog(default_wal_path(path), PAGE) as log:
            log.append_transaction(1, [(1, _image(0x11))], _image(0x01))
            log.append_transaction(2, [(1, _image(0x22))], _image(0x02))
        recover(path, checkpoint=False)
        first = open(path, "rb").read()
        recover(path, checkpoint=False)
        assert open(path, "rb").read() == first
        # Later transaction wins on the shared page.
        assert first[PAGE:2 * PAGE] == _image(0x22)
        assert first[:PAGE] == _image(0x02)

    def test_checkpoint_resets_the_log(self, tmp_path):
        path = self._data_file(tmp_path)
        wal_path = default_wal_path(path)
        with WriteAheadLog(wal_path, PAGE) as log:
            log.append_transaction(1, [(1, _image(0x11))], b"")
        report = recover(path)               # checkpoint=True default
        assert report.checkpointed
        assert scan_wal(wal_path).records == 0
        # Second recovery is a clean no-op.
        again = recover(path)
        assert again.transactions_applied == 0

    def test_missing_log_is_a_clean_noop(self, tmp_path):
        path = self._data_file(tmp_path)
        report = recover(path)
        assert report.transactions_applied == 0
        assert report.clean_log


def _record_calls(monkeypatch, log, cls, name):
    """Append ``name`` to ``log`` on every call of ``cls.name``."""
    real = getattr(cls, name)

    def spy(self, *args, **kwargs):
        log.append(name)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, spy)


class TestProtocolOrdering:
    """The two orderings crash recovery rests on, observed on a live
    :class:`MutableTree`: a transaction's images reach the durable log
    before any byte of the data file moves, and the data file is
    fsynced before the log that could redo it is truncated."""

    @pytest.fixture
    def events(self, monkeypatch):
        """Calls in order: ``(name, inode)`` for an fsync, else the
        method name."""
        log = []
        real_fsync = wal_module.os.fsync

        def fsync(fd):
            log.append(("fsync", os.fstat(fd).st_ino))
            real_fsync(fd)

        monkeypatch.setattr(wal_module.os, "fsync", fsync)
        _record_calls(monkeypatch, log, WriteAheadLog, "append_transaction")
        _record_calls(monkeypatch, log, WriteAheadLog, "reset")
        _record_calls(monkeypatch, log, FilePageFile, "_write_raw")
        return log

    @pytest.fixture
    def mt(self, tmp_path):
        rng = np.random.default_rng(5)
        tree = GiST(make_ext("rtree", 3), page_size=1024)
        for rid, key in enumerate(rng.uniform(0.0, 100.0, size=(60, 3))):
            tree.insert(key, rid)
        path = str(tmp_path / "index.amdb")
        save_tree(tree, path)
        with MutableTree.open(path) as opened:
            yield opened

    def test_insert_logs_before_it_writes_the_data_file(self, mt, events):
        mt.insert(np.array([50.0, 50.0, 50.0]), 1000)
        assert "append_transaction" in events and "_write_raw" in events
        assert events.index("append_transaction") < \
            events.index("_write_raw"), events

    def test_checkpoint_fsyncs_the_data_file_before_reset(self, mt, events):
        mt.insert(np.array([50.0, 50.0, 50.0]), 1000)
        del events[:]
        mt.checkpoint()
        data_sync = ("fsync", os.stat(mt.path).st_ino)
        assert data_sync in events and "reset" in events
        assert events.index(data_sync) < events.index("reset"), events

    def test_recover_fsyncs_the_data_file_before_truncating(
            self, tmp_path, monkeypatch):
        path = str(tmp_path / "index.amdb")
        with open(path, "wb") as f:
            f.write(b"\x00" * PAGE * 3)
        wal_path = default_wal_path(path)
        with WriteAheadLog(wal_path, PAGE) as log:
            log.append_transaction(1, [(1, _image(0x11))], _image(0x01))
        syncs = []
        real_fsync = wal_module.os.fsync

        def fsync(fd):
            # Which file, and how much log was left when it synced.
            syncs.append((os.fstat(fd).st_ino, os.path.getsize(wal_path)))
            real_fsync(fd)

        monkeypatch.setattr(wal_module.os, "fsync", fsync)
        assert recover(path).checkpointed
        data_syncs = [log_bytes for ino, log_bytes in syncs
                      if ino == os.stat(path).st_ino]
        assert data_syncs and data_syncs[0] > _HEADER_SIZE, syncs
        assert os.path.getsize(wal_path) == _HEADER_SIZE
