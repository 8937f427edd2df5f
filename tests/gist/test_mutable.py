"""Online mutation: durable insert/delete parity, recovery, caches.

The contract under test: a saved index reopened as a
:class:`~repro.gist.mutable.MutableTree` supports insert/delete whose
query results stay bit-identical to an in-memory GiST applying the same
operations — for every registered AM family, through both the scalar
``knn`` path and the batched Blobworld pipeline with a result cache
attached (mutation must invalidate it, or it serves stale rankings).
"""

import numpy as np
import pytest

from repro.gist.mutable import MutableTree
from repro.gist.persist import load_tree, save_tree
from repro.gist.tree import GiST
from repro.gist.validate import validate_tree
from repro.storage.errors import StorageError
from tests.conftest import make_ext

METHODS = ["rtree", "rstar", "sstree", "srtree", "amap", "jb", "xjb"]
DIM = 3
PAGE = 1024


def _points(n, seed, dim=DIM):
    return np.random.default_rng(seed).uniform(0.0, 100.0, size=(n, dim))


def _saved(tmp_path, method, n=200, seed=11):
    pts = _points(n, seed)
    tree = GiST(make_ext(method, DIM), page_size=PAGE)
    for i, p in enumerate(pts):
        tree.insert(p, i)
    path = str(tmp_path / f"{method}.amdb")
    save_tree(tree, path)
    return path, pts


def _knn(tree, queries, k):
    """Canonical answers: bit-identical whatever the tree's shape."""
    return [tree.knn(q, k) for q in queries]


class TestRoundTripParity:
    @pytest.mark.parametrize("method", METHODS)
    def test_insert_query_delete_query(self, tmp_path, method):
        path, pts = _saved(tmp_path, method)
        shadow = load_tree(path=path)
        rng = np.random.default_rng(29)
        queries = rng.uniform(0.0, 100.0, size=(5, DIM))

        with MutableTree.open(path) as mt:
            extra = rng.uniform(0.0, 100.0, size=(60, DIM))
            for j, p in enumerate(extra):
                mt.insert(p, 200 + j)
                shadow.insert(p, 200 + j)
            assert _knn(mt.tree, queries, 10) == _knn(shadow, queries, 10)

            for i in range(0, 80, 2):
                assert mt.delete(pts[i], i)
                assert shadow.delete(pts[i], i)
            assert mt.tree.size == shadow.size
            assert _knn(mt.tree, queries, 10) == _knn(shadow, queries, 10)
            validate_tree(mt.tree)

        # Durability: a fresh reader sees the same tree.
        reloaded = load_tree(path=path)
        assert reloaded.size == shadow.size
        assert _knn(reloaded, queries, 10) == _knn(shadow, queries, 10)
        validate_tree(reloaded)

    def test_delete_absent_pair_is_false_and_unlogged(self, tmp_path):
        path, _ = _saved(tmp_path, "rtree", n=50)
        with MutableTree.open(path) as mt:
            assert not mt.delete(np.full(DIM, -999.0), 12345)
            assert mt.wal_size == 0          # nothing staged, nothing logged

    def test_create_starts_empty_and_grows(self, tmp_path):
        path = str(tmp_path / "fresh.amdb")
        with MutableTree.create(make_ext("rtree", DIM), path, PAGE) as mt:
            assert mt.tree.size == 0
            for i, p in enumerate(_points(40, 3)):
                mt.insert(p, i)
            assert mt.tree.size == 40
        assert load_tree(path=path).size == 40

    def test_extension_mismatch_rejected(self, tmp_path):
        path, _ = _saved(tmp_path, "rtree", n=30)
        with pytest.raises(ValueError, match="saved by"):
            MutableTree.open(path, extension=make_ext("sstree", DIM))

    def test_checkpoint_trims_the_log(self, tmp_path):
        path, _ = _saved(tmp_path, "rtree", n=50)
        with MutableTree.open(path) as mt:
            for i, p in enumerate(_points(20, 9)):
                mt.insert(p, 100 + i)
            assert mt.wal_size > 0
            mt.checkpoint()
            assert mt.wal_size == 0
            # Still mutable after the checkpoint.
            mt.insert(np.full(DIM, 50.0), 999)
        assert load_tree(path=path).size == 71


class TestStaleLog:
    """A log belongs to the file it was written beside: writing a new
    index over the path must not let the old log replay onto it."""

    def _logged(self, tmp_path):
        from repro.bulk import bulk_load
        path = str(tmp_path / "t.gist")
        save_tree(bulk_load(make_ext("rtree", DIM), _points(3000, 41),
                            page_size=PAGE), path)
        with MutableTree.open(path) as mt:
            for i, p in enumerate(_points(5, 43)):
                mt.insert(p, 3000 + i)
            assert mt.wal_size > 0          # close leaves the log behind
        return path

    def test_save_tree_over_a_logged_path(self, tmp_path):
        from repro.bulk import bulk_load
        path = self._logged(tmp_path)
        other = _points(3000, 47)
        save_tree(bulk_load(make_ext("rtree", DIM), other,
                            page_size=PAGE), path)
        with MutableTree.open(path) as mt:
            assert mt.recovery.transactions_applied == 0
            assert mt.tree.size == 3000
            assert mt.tree.knn(other[0], 1) == [(0.0, 0)]
        assert load_tree(path=path).size == 3000

    def test_create_over_a_logged_path(self, tmp_path):
        path = self._logged(tmp_path)
        with MutableTree.create(make_ext("rtree", DIM), path, PAGE) as mt:
            assert mt.recovery.transactions_applied == 0
            assert mt.tree.size == 0
        assert load_tree(path=path).size == 0


class TestPoisonedAfterCrash:
    def test_crashed_tree_refuses_further_mutation(self, tmp_path):
        from repro.storage.faults import (CrashError, CrashInjector,
                                          CrashPoint)
        path, _ = _saved(tmp_path, "rtree", n=100)
        injector = CrashInjector(CrashPoint(point="mid-apply", after=0,
                                            torn=0.5))
        mt = MutableTree.open(path, injector=injector)
        with pytest.raises(CrashError):
            for i, p in enumerate(_points(50, 41)):
                mt.insert(p, 100 + i)
        with pytest.raises(StorageError, match="reopen"):
            mt.insert(np.zeros(DIM), 7777)
        mt.close()
        # Reopen recovers and the file is whole again.
        with MutableTree.open(path) as mt2:
            assert mt2.recovery.transactions_applied >= 1
            mt2.insert(np.zeros(DIM), 7777)


NON_FINITE = [np.nan, np.inf, -np.inf]


def _bad_key(bad):
    key = np.full(DIM, 50.0)
    key[1] = bad
    return key


class TestNonFiniteKeys:
    """A NaN/inf key is refused at the door: no codec can store it, and
    a committed one made every later read of the page fail to decode."""

    QUERIES = np.random.default_rng(3).uniform(0.0, 100.0, size=(4, DIM))

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("method", METHODS)
    def test_in_memory_tree_refuses(self, tmp_path, method, bad):
        tree = load_tree(path=_saved(tmp_path, method, n=120)[0])
        before = _knn(tree, self.QUERIES, 10)
        with pytest.raises(ValueError, match="finite"):
            tree.insert(_bad_key(bad), 999)
        with pytest.raises(ValueError, match="finite"):
            tree.delete(_bad_key(bad), 5)
        assert tree.size == 120
        assert _knn(tree, self.QUERIES, 10) == before
        validate_tree(tree)

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("method", METHODS)
    def test_durable_tree_refuses_and_stays_usable(self, tmp_path, method,
                                                   bad):
        from repro.analysis import deep_scrub
        path, _ = _saved(tmp_path, method, n=120)
        with MutableTree.open(path) as mt:
            before = _knn(mt.tree, self.QUERIES, 10)
            wal = mt.wal_size
            with pytest.raises(ValueError, match="finite"):
                mt.insert(_bad_key(bad), 999)
            with pytest.raises(ValueError, match="finite"):
                mt.delete(_bad_key(bad), 5)
            assert mt.wal_size == wal
            assert mt.tree.size == 120
            assert _knn(mt.tree, self.QUERIES, 10) == before
            mt.insert(np.full(DIM, 50.0), 999)   # not poisoned
            after = _knn(mt.tree, self.QUERIES, 10)
        report = deep_scrub(path)
        assert report.clean, report.format()
        with MutableTree.open(path) as reopened:
            assert reopened.tree.size == 121
            assert _knn(reopened.tree, self.QUERIES, 10) == after


class TestCacheInvalidation:
    @pytest.fixture(scope="class")
    def corpus(self):
        from repro.blobworld import build_corpus
        return build_corpus(num_blobs=600, num_images=100, seed=7)

    def test_mutation_invalidates_attached_cache(self, tmp_path, corpus):
        """The staleness fix: a cached ranking must not survive an index
        mutation that changes the candidate set."""
        from repro.blobworld import BlobworldEngine, QueryResultCache
        from repro.constants import INDEX_DIMENSIONS

        vectors = corpus.reduced(INDEX_DIMENSIONS)
        tree = GiST(make_ext("rtree", INDEX_DIMENSIONS), page_size=4096)
        for i, v in enumerate(vectors):
            tree.insert(v, i)
        path = str(tmp_path / "corpus.amdb")
        save_tree(tree, path)

        stream = [3, 11, 3, 42, 11, 3]
        with MutableTree.open(path) as mt:
            cache = QueryResultCache(64)
            mt.attach_cache(cache)
            engine = BlobworldEngine(corpus, cache=cache)
            cold = engine.am_query_batch(mt.tree, stream, 40,
                                         INDEX_DIMENSIONS)
            assert cache.stats.hits > 0      # repeats served from cache

            # Remove a sizeable slice of blobs from the index: every
            # candidate set changes.
            for b in range(0, 200):
                mt.delete(vectors[b], b)
            assert len(cache) == 0           # mutation dropped the cache

            fresh = BlobworldEngine(corpus).am_query_batch(
                mt.tree, stream, 40, INDEX_DIMENSIONS)
            cached = engine.am_query_batch(mt.tree, stream, 40,
                                           INDEX_DIMENSIONS)
            assert cached == fresh           # no stale rankings survive
            assert cached != cold            # the mutation really mattered

    def test_detached_cache_is_left_alone(self, tmp_path):
        from repro.blobworld import QueryResultCache
        path, pts = _saved(tmp_path, "rtree", n=60)
        with MutableTree.open(path) as mt:
            cache = QueryResultCache(8)
            cache.put((1, 2, 3, 4), [9])
            mt.attach_cache(cache)
            mt.detach_cache(cache)
            mt.insert(np.full(DIM, 1.0), 1000)
            assert cache.get((1, 2, 3, 4)) == (9,)
