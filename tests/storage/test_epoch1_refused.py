"""Files of format epoch 1 are refused with a named error, never misread.

Epoch 1 sealed pages, superblocks and WAL records with CRC32C and wrote
WAL version 1; :mod:`tests.storage.epoch1` forges such files byte for
byte.  Every reader refuses them by name.  Refusing a log must leave
the log and the data file as they were: a CRC-32 scan of a CRC32C log
would read its first record as a torn tail and truncate committed
transactions.
"""

import numpy as np
import pytest

from repro.bulk import bulk_load
from repro.cli import main
from repro.gist.mutable import MutableTree
from repro.gist.persist import load_tree, save_tree
from repro.storage.diskfile import FilePageFile
from repro.storage.errors import PageCorruptError

from tests.conftest import make_ext
from tests.storage.epoch1 import forge_index, forge_wal, reference_crc32c

EPOCH1 = "format epoch 1: rebuild the index"
DIM, PAGE = 3, 1024


@pytest.fixture
def index(tmp_path):
    keys = np.random.default_rng(11).random((300, DIM))
    path = str(tmp_path / "old.gist")
    save_tree(bulk_load(make_ext("xjb", DIM), keys, page_size=PAGE), path)
    return path


def _read(path):
    with open(path, "rb") as f:
        return f.read()


def _v1_log(index):
    """Three durable inserts, then the data file and its log forged as
    an epoch-1 writer left them; returns the log path and both files'
    bytes."""
    keys = np.random.default_rng(12).random((3, DIM))
    with MutableTree.open(index) as tree:
        for i, key in enumerate(keys):
            tree.insert(key, 10_000 + i)
    wal = index + ".wal"
    forge_index(index)
    forge_wal(wal)
    before = (_read(index), _read(wal))
    assert len(before[1]) > 24 + 40      # the log holds records
    return wal, before


def test_the_forger_seals_with_crc32c():
    assert reference_crc32c(b"123456789") == 0xE3069283   # iSCSI check


def test_load_tree_refuses_an_epoch1_index(index):
    current = _read(index)
    forge_index(index)
    with pytest.raises(PageCorruptError, match=EPOCH1) as excinfo:
        load_tree(path=index)
    assert index in str(excinfo.value)
    # Under a current superblock, the epoch-1 pages meet the seal check
    # load_tree runs on every page, which names their epoch too.
    forged = _read(index)
    with open(index, "wb") as f:
        f.write(current[:PAGE] + forged[PAGE:])
    with pytest.raises(PageCorruptError, match=EPOCH1) as excinfo:
        load_tree(path=index)
    assert "page 1" in str(excinfo.value)


@pytest.mark.parametrize("mmap_mode", [False, True], ids=["pread", "mmap"])
def test_page_file_refuses_epoch1_pages(index, mmap_mode):
    forge_index(index)
    with FilePageFile.for_extension(index, make_ext("xjb", DIM),
                                    page_size=PAGE,
                                    mmap_mode=mmap_mode) as store:
        with pytest.raises(PageCorruptError, match=EPOCH1):
            store.read(1)


def test_mutable_open_refuses_a_v1_log_and_changes_no_byte(index):
    wal, before = _v1_log(index)
    with pytest.raises(PageCorruptError,
                       match="unsupported WAL version 1"):
        MutableTree.open(index)
    assert (_read(index), _read(wal)) == before


def test_recover_refuses_a_v1_log_and_changes_no_byte(index, capsys):
    wal, before = _v1_log(index)
    assert main(["recover", index]) == 1
    out = capsys.readouterr().out
    assert "recovery refused" in out and "unsupported WAL version 1" in out
    assert (_read(index), _read(wal)) == before


def test_fsck_deep_names_the_epoch(index, capsys):
    forge_index(index)
    assert main(["fsck", index, "--deep"]) == 1
    assert EPOCH1 in capsys.readouterr().out
