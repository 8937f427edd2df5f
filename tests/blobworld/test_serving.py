"""Serving layer: batched two-stage queries, result cache, kernels.

The serving contract is the same one the batched kNN engine honors:
``am_query_batch`` answers are *bit-identical* to a sequential
``am_query`` loop — same image lists, same tie order, same cache
accounting — with the speed coming entirely from shared traversal,
vectorized re-ranking, and the result cache.
"""

import numpy as np
import pytest

from repro.blobworld import (BlobworldEngine, QueryResultCache,
                             build_corpus)
from repro.blobworld.query import (_top_images_from_blobs,
                                   _top_images_from_blobs_ref)
from repro.bulk import bulk_load
from repro.constants import INDEX_DIMENSIONS
from repro.storage import BufferPool, FilePageFile
from tests.conftest import make_ext
from tests.gist.oracle import traced


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(num_blobs=900, num_images=150, seed=7)


@pytest.fixture(scope="module", params=["rtree", "xjb"])
def tree(request, corpus):
    vectors = corpus.reduced(INDEX_DIMENSIONS)
    return bulk_load(make_ext(request.param, INDEX_DIMENSIONS), vectors,
                     page_size=4096)


@pytest.fixture(scope="module")
def stream(corpus):
    """A repeated-query stream: 48 requests over 12 distinct blobs."""
    rng = np.random.default_rng(3)
    pool = rng.choice(corpus.num_blobs, size=12, replace=False)
    return [int(b) for b in rng.choice(pool, size=48)]


class TestBatchParity:
    @pytest.fixture(scope="class", params=["rtree", "xjb", "rtree-pread",
                                           "xjb-mmap-pool"])
    def tree(self, request, corpus, tmp_path_factory):
        """The module's in-memory trees, plus the two ways a served index
        reads a page file: pread, and mmap behind a buffer pool smaller
        than the index."""
        method, _, mode = request.param.partition("-")
        ext = make_ext(method, INDEX_DIMENSIONS)
        store = None
        if mode:
            path = tmp_path_factory.mktemp("serving") / "tree.pages"
            store = FilePageFile.for_extension(
                str(path), ext, page_size=4096,
                mmap_mode=(mode == "mmap-pool"))
            if mode == "mmap-pool":
                store = BufferPool(store, capacity_pages=4)
        yield bulk_load(ext, corpus.reduced(INDEX_DIMENSIONS),
                        page_size=4096, store=store)
        if store is not None:
            store.close()

    def test_matches_sequential_cold(self, corpus, tree, stream):
        engine = BlobworldEngine(corpus)
        expected = [engine.am_query(tree, q, 60, INDEX_DIMENSIONS)
                    for q in stream]
        got = BlobworldEngine(corpus).am_query_batch(
            tree, stream, 60, INDEX_DIMENSIONS)
        assert got == expected

    def test_matches_sequential_with_shared_cache(self, corpus, tree,
                                                  stream):
        """Batched execution over a cache produces the same answers AND
        the same hit/miss accounting as a sequential loop would."""
        seq_cache = QueryResultCache(64)
        seq_engine = BlobworldEngine(corpus, cache=seq_cache)
        expected = [seq_engine.am_query(tree, q, 60, INDEX_DIMENSIONS)
                    for q in stream]

        bat_cache = QueryResultCache(64)
        bat_engine = BlobworldEngine(corpus, cache=bat_cache)
        got = bat_engine.am_query_batch(tree, stream, 60,
                                        INDEX_DIMENSIONS)
        assert got == expected
        assert bat_cache.stats.hits == seq_cache.stats.hits
        assert bat_cache.stats.misses == seq_cache.stats.misses
        assert len(bat_cache) == len(seq_cache)

    def test_warm_cache_serves_identically(self, corpus, tree, stream):
        cache = QueryResultCache(64)
        engine = BlobworldEngine(corpus, cache=cache)
        cold = engine.am_query_batch(tree, stream, 60, INDEX_DIMENSIONS)
        warm, accesses = traced(tree, lambda: engine.am_query_batch(
            tree, stream, 60, INDEX_DIMENSIONS))
        assert warm == cold
        assert accesses == []  # all cached

    def test_profile_accounts_every_stage(self, corpus, tree, stream):
        stage_seconds = {}

        class Profile:
            def add(self, stage, seconds):
                stage_seconds[stage] = \
                    stage_seconds.get(stage, 0.0) + seconds

        BlobworldEngine(corpus).am_query_batch(
            tree, stream, 60, INDEX_DIMENSIONS, profile=Profile())
        # page reads are part of the traversal stage, not a stage apart
        assert set(stage_seconds) == {"traversal", "rerank", "aggregation"}
        assert all(s >= 0 for s in stage_seconds.values())

    def test_empty_batch(self, corpus, tree):
        assert BlobworldEngine(corpus).am_query_batch(
            tree, [], 60, INDEX_DIMENSIONS) == []


def test_profiled_batch_keeps_instance_wrappers_on_the_store(corpus,
                                                             tmp_path):
    """A profiled tree-route batch leaves the store's methods alone:
    wrappers a caller put on the pool instance (as a tracer does) are
    still there afterwards and saw every read of every block."""
    ext = make_ext("xjb", INDEX_DIMENSIONS)
    pagefile = FilePageFile.for_extension(str(tmp_path / "tree.pages"), ext,
                                          page_size=4096, mmap_mode=True)
    tree = bulk_load(ext, corpus.reduced(INDEX_DIMENSIONS), page_size=4096,
                     store=pagefile)
    pool = tree.store = BufferPool(pagefile, capacity_pages=4)
    calls = []

    def wrap(name):
        method = getattr(pool, name)

        def wrapper(*args):
            calls.append(name)
            return method(*args)
        setattr(pool, name, wrapper)
        return wrapper

    wrappers = {name: wrap(name) for name in ("read", "read_many")}

    class Profile:
        def add(self, stage, seconds):
            pass

    engine = BlobworldEngine(corpus)
    try:
        for block in ([3, 77, 200], [411, 5]):
            before = len(calls)
            engine.am_query_batch(tree, block, 60, INDEX_DIMENSIONS,
                                  profile=Profile())
            assert len(calls) > before
        assert {name: vars(pool).get(name) for name in wrappers} == wrappers
    finally:
        pool.close()


class TestRerankBatch:
    def test_ragged_lists_match_rerank(self, corpus):
        engine = BlobworldEngine(corpus)
        rng = np.random.default_rng(5)
        blobs = [3, 77, 200, 411]
        lists = [np.sort(rng.choice(corpus.num_blobs, size=n,
                                    replace=False)).astype(np.intp)
                 for n in (40, 25, 40, 0)]
        got = engine.rerank_batch(blobs, lists, top_images=10)
        expected = [engine.rerank(b, c, top_images=10)
                    for b, c in zip(blobs, lists)]
        assert got == expected

    def test_uniform_lists_match_rerank(self, corpus):
        engine = BlobworldEngine(corpus)
        rng = np.random.default_rng(6)
        blobs = [int(b) for b in rng.choice(corpus.num_blobs, size=6)]
        lists = [rng.choice(corpus.num_blobs, size=50,
                            replace=False).astype(np.intp)
                 for _ in blobs]
        got = engine.rerank_batch(blobs, lists, top_images=12)
        expected = [engine.rerank(b, c, top_images=12)
                    for b, c in zip(blobs, lists)]
        assert got == expected


class TestAggregationKernel:
    @pytest.mark.parametrize("trial", range(20))
    def test_bit_identical_to_scalar_reference(self, trial):
        """The vectorized image ranking reproduces the dict-loop
        reference exactly, including distance ties resolved by first
        occurrence."""
        rng = np.random.default_rng(trial)
        n_blobs, n_images = 300, 40
        image_ids = rng.integers(0, n_images, size=n_blobs)
        idx = rng.choice(n_blobs, size=120, replace=False)
        # quantized distances force plenty of exact ties
        dists = np.sort(rng.integers(0, 25, size=120).astype(np.float64))
        got = _top_images_from_blobs(idx, dists, image_ids, 15)
        ref = _top_images_from_blobs_ref(idx, dists, image_ids, 15)
        assert got == ref

    def test_empty_input(self):
        assert _top_images_from_blobs(
            np.array([], dtype=np.intp), np.array([]),
            np.arange(10), 5) == []


class TestQueryResultCache:
    def test_lru_eviction_and_stats(self):
        cache = QueryResultCache(2)
        cache.put((1, 5, 60, 40), (7, 8))
        cache.put((2, 5, 60, 40), (9,))
        assert cache.get((1, 5, 60, 40)) == (7, 8)   # 1 now MRU
        cache.put((3, 5, 60, 40), (1,))              # evicts 2
        assert cache.get((2, 5, 60, 40)) is None
        assert cache.get((1, 5, 60, 40)) == (7, 8)
        assert cache.stats.evictions == 1
        assert cache.stats.hits == 2
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(2 / 3)

    def test_invalidate_one_blob(self):
        cache = QueryResultCache(8)
        cache.put((1, 5, 60, 40), (7,))
        cache.put((1, 3, 60, 40), (8,))
        cache.put((2, 5, 60, 40), (9,))
        assert cache.invalidate(query_blob=1) == 2
        assert (1, 5, 60, 40) not in cache
        assert (2, 5, 60, 40) in cache
        assert cache.stats.invalidations == 2

    def test_invalidate_all(self):
        cache = QueryResultCache(8)
        cache.put((1, 5, 60, 40), (7,))
        cache.put((2, 5, 60, 40), (9,))
        assert cache.invalidate() == 2
        assert len(cache) == 0

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            QueryResultCache(0)

    def test_invalidation_forces_recompute(self, corpus, tree):
        cache = QueryResultCache(16)
        engine = BlobworldEngine(corpus, cache=cache)
        first = engine.am_query(tree, 11, 60, INDEX_DIMENSIONS)
        cache.invalidate()
        reads_before = tree.store.stats.reads
        again = engine.am_query(tree, 11, 60, INDEX_DIMENSIONS)
        assert again == first
        assert tree.store.stats.reads > reads_before  # really recomputed
