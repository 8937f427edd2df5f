"""Writes on a quantized tree are exact by construction.

A quantized (SQ8) leaf stores cell centers, so an insert or delete fits
predicates to, and re-encodes pages from, ``GiST.exact`` — the original
keys by rid.  Without them (or without a row for the rid written) the
write is refused by name before any page is read or written, on every
store: an in-memory tree, a page file, and a ``MutableTree`` behind
its log.
"""

import os

import numpy as np
import pytest

from repro.bulk import bulk_load
from repro.gist.mutable import MutableTree
from repro.gist.persist import save_tree
from repro.storage.codecs import make_leaf_codec
from repro.storage.diskfile import FilePageFile

from tests.conftest import make_ext

FAMILIES = ("rtree", "sstree", "srtree", "jb", "xjb", "amap")
STORES = ("memory", "file", "wal")
PAGE = {"jb": 4096, "xjb": 2048}
N, DIM = 300, 3


def _keys():
    return np.random.default_rng(12).random((N + 1, DIM))


class _Quantized:
    """A bulk-loaded sq8 tree with no ``exact`` attached (explicit rids
    attach none) on one kind of store, and the bytes that store holds."""

    def __init__(self, family, store, tmp_path):
        keys = _keys()[:N]
        ext = make_ext(family, DIM)
        page = PAGE.get(family, 1024)
        sq8 = make_leaf_codec("sq8", DIM)
        rids = np.arange(N)
        self.files = []
        self.mt = None
        if store == "memory":
            self.tree = bulk_load(ext, keys, rids=rids, page_size=page,
                                  leaf_codec=sq8)
        elif store == "file":
            path = str(tmp_path / f"{family}.pages")
            pages = FilePageFile.for_extension(path, ext, page_size=page,
                                               leaf_codec="sq8")
            self.tree = bulk_load(ext, keys, rids=rids, page_size=page,
                                  store=pages)
            pages.flush()
            self.files = [path]
        else:
            path = str(tmp_path / f"{family}.gist")
            save_tree(bulk_load(ext, keys, page_size=page, leaf_codec=sq8),
                      path)
            self.mt = MutableTree.open(path)
            self.tree = self.mt.tree
            self.files = [path, path + ".wal"]

    def insert(self, key, rid):
        (self.mt or self.tree).insert(key, rid)

    def delete(self, key, rid):
        return (self.mt or self.tree).delete(key, rid)

    def image(self):
        """Every page the store holds, and every file behind it."""
        store = self.tree.store
        pagefile = getattr(store, "pagefile", store)
        pages = {pid: bytes(pagefile._read_raw(pid))
                 for pid in store.page_ids()} if self.mt is None else {}
        files = {path: open(path, "rb").read() if os.path.exists(path)
                 else None for path in self.files}
        return pages, files

    def close(self):
        if self.mt is not None:
            self.mt.close()


@pytest.fixture(params=STORES)
def quantized(request, tmp_path):
    built = {}

    def make(family):
        built[family] = _Quantized(family, request.param, tmp_path)
        return built[family]

    yield make
    for tree in built.values():
        tree.close()


@pytest.mark.parametrize("family", FAMILIES)
def test_writes_without_exact_are_refused_and_write_nothing(quantized,
                                                            family):
    tree = quantized(family)
    keys = _keys()
    assert tree.tree.exact is None
    before = tree.image()
    with pytest.raises(ValueError, match="GiST.exact"):
        tree.insert(keys[N], N)
    with pytest.raises(ValueError, match="GiST.exact"):
        tree.delete(keys[0], 0)
    assert tree.image() == before
    assert tree.tree.size == N


@pytest.mark.parametrize("family", ("rtree", "xjb"))
def test_a_rid_past_exact_is_refused_by_name(quantized, family):
    tree = quantized(family)
    keys = _keys()
    tree.tree.exact = keys[:N]
    before = tree.image()
    for write in (tree.insert, tree.delete):
        with pytest.raises(ValueError, match="GiST.exact.*rid 300"):
            write(keys[N], N)
    assert tree.image() == before
    # with a row for the rid the same writes go through
    tree.tree.exact = keys
    tree.insert(keys[N], N)
    assert tree.delete(keys[N], N)
    assert tree.delete(keys[0], 0)
    assert tree.tree.size == N - 1
