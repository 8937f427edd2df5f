"""The sharded daemon end to end: parity, degradation, accounting.

Everything here runs against a small corpus so the forked workers are
cheap; the paper-scale numbers come from the measurement spine's
``serve_unique`` and ``serve_repeat`` workloads (``benchmarks/spine``).
Degraded-mode tests query *cold* blob ids on purpose — a cached answer
never scatters, so a warm query cannot observe a dead shard.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.amdb.profiler import ShardServeProfile
from repro.blobworld import BlobworldEngine, build_corpus
from repro.bulk import bulk_load
from repro.constants import INDEX_DIMENSIONS
from repro.serving import ShardedService, ShardServer
from repro.serving import coordinator
from repro.storage.buffer import BufferPool
from repro.storage.diskfile import FilePageFile
from repro.storage.fork import fork_available, store_chain
from tests.conftest import ALL_METHODS, make_ext

CANDIDATES = 40


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(num_blobs=600, num_images=100, seed=7)


@pytest.fixture(scope="module")
def reference(corpus, tmp_path_factory):
    """Unsharded baseline: one rtree over the whole corpus."""
    vectors = corpus.reduced(INDEX_DIMENSIONS)
    path = tmp_path_factory.mktemp("ref") / "ref.pages"
    ext = make_ext("rtree", INDEX_DIMENSIONS)
    store = FilePageFile.for_extension(str(path), ext, page_size=4096)
    return bulk_load(ext, vectors, page_size=4096, store=store)


def build_service(corpus, shards=3, **kwargs):
    kwargs.setdefault("method", "rtree")
    kwargs.setdefault("page_size", 4096)
    return ShardedService.build(corpus, shards, **kwargs)


class TestParity:
    def test_knn_matches_unsharded_canonical(self, corpus, reference):
        vectors = corpus.reduced(INDEX_DIMENSIONS)
        queries = vectors[::37]
        expected = reference.knn_batch(queries, CANDIDATES)
        with build_service(corpus) as svc:
            assert svc.knn_batch(queries, CANDIDATES) == expected

    def test_am_matches_unsharded_engine(self, corpus, reference):
        stream = list(range(0, 600, 23))
        expected = BlobworldEngine(corpus).am_query_batch(
            reference, stream, CANDIDATES, INDEX_DIMENSIONS)
        with build_service(corpus) as svc:
            assert svc.am_query_batch(stream, CANDIDATES) == expected

    def test_sq8_shards_match_unsharded_sq8(self, corpus, tmp_path):
        vectors = corpus.reduced(INDEX_DIMENSIONS)
        ext = make_ext("xjb", INDEX_DIMENSIONS)
        store = FilePageFile.for_extension(
            str(tmp_path / "sq8.pages"), ext, page_size=4096,
            leaf_codec="sq8")
        ref_tree = bulk_load(ext, vectors, page_size=4096, store=store)
        stream = list(range(0, 600, 31))
        expected = BlobworldEngine(corpus).am_query_batch(
            ref_tree, stream, CANDIDATES, INDEX_DIMENSIONS)
        with build_service(corpus, shards=2, method="xjb",
                           codec="sq8") as svc:
            assert svc.am_query_batch(stream, CANDIDATES) == expected

    def test_sq8_shards_knn_matches_whole_f64_canonical(self):
        """Raw k-NN on two sq8 shards: each shard ranks its quantized
        leaves by the reduced matrix its server attached, so the merged
        rows are one float64 tree's canonical rows, bit for bit."""
        rng = np.random.default_rng(9)
        vectors = rng.random((6000, 3))
        corpus = SimpleNamespace(
            reduced=lambda dims: vectors, num_blobs=len(vectors),
            embedded=rng.normal(size=(len(vectors), 4)),
            image_ids=np.arange(len(vectors)) // 10)
        queries = vectors[rng.choice(len(vectors), size=20, replace=False)]
        whole = bulk_load(make_ext("rtree", 3), vectors, page_size=2048)
        expected = whole.knn_batch(queries, 50)
        with build_service(corpus, shards=2, codec="sq8", dims=3,
                           page_size=2048) as svc:
            assert svc.knn_batch(queries, 50) == expected

    @pytest.mark.parametrize("jitter", [1e-5, 0.0],
                             ids=["near-ties", "exact-ties"])
    def test_sq8_shards_on_a_tied_grid(self, jitter):
        """k-th-distance ties across shard boundaries, on sq8 shard
        trees: a 10 x 10 grid holding 40 shuffled copies of each point,
        so every cut at k = 150 falls inside a ring of copies split
        between the shards.  The merged rows the coordinator reranks are
        the whole float64 tree's canonical top-k, and the images those
        rows rank to — with near ties, the unsharded float64 engine's
        own.  (With exact ties that engine keeps whichever tied copies
        its traversal meets first, so only the canonical rows compare.)
        Copies of a point share its descriptor and image."""
        rng = np.random.default_rng(5)
        points = np.array([[x, y] for x in range(10) for y in range(10)],
                          dtype=np.float64)
        owner = rng.permutation(np.repeat(np.arange(100), 40))
        vectors = points[owner] + rng.uniform(-jitter, jitter,
                                              size=(len(owner), 2))
        corpus = SimpleNamespace(
            reduced=lambda dims: vectors, num_blobs=len(owner),
            embedded=rng.normal(size=(100, 8))[owner], image_ids=owner)
        whole = bulk_load(make_ext("rtree", 2), vectors, page_size=2048)
        stream = [int(b) for b in rng.choice(len(owner), size=12,
                                             replace=False)]
        k = 150
        engine = BlobworldEngine(corpus)
        want_rows = [[rid for _, rid in hits] for hits in
                     whole.knn_batch(vectors[stream], k)]
        want_images = engine.rerank_batch(
            stream, [np.array(row) for row in want_rows])
        if jitter:
            assert engine.am_query_batch(whole, stream, k, 2) == want_images
        with build_service(corpus, shards=2, codec="sq8", dims=2,
                           page_size=2048, cache_size=0) as svc:
            rows = []
            rerank_batch = svc.engine.rerank_batch

            def capture(blobs, candidates, *args, **kwargs):
                rows.extend(row.tolist() for row in candidates)
                return rerank_batch(blobs, candidates, *args, **kwargs)

            svc.engine.rerank_batch = capture
            assert svc.am_query_batch(stream, k) == want_images
            assert rows == want_rows

    @pytest.mark.parametrize("family", ALL_METHODS)
    def test_two_forked_shards_match_unsharded_family(self, corpus,
                                                      tmp_path, family):
        """The paper's invariant per AM family: two forked shards merge
        to the unsharded tree's canonical k-NN, bit for bit, and serve
        its image lists."""
        vectors = corpus.reduced(INDEX_DIMENSIONS)
        ext = make_ext(family, INDEX_DIMENSIONS)
        store = FilePageFile.for_extension(
            str(tmp_path / "ref.pages"), ext, page_size=4096)
        ref_tree = bulk_load(ext, vectors, page_size=4096, store=store)
        queries = vectors[::37]
        stream = list(range(0, 600, 23))
        want_knn = ref_tree.knn_batch(queries, CANDIDATES)
        want_images = BlobworldEngine(corpus).am_query_batch(
            ref_tree, stream, CANDIDATES, INDEX_DIMENSIONS)
        store.close()
        with build_service(corpus, shards=2, method=family,
                           cache_size=0) as svc:
            assert svc.inline is not fork_available()
            assert svc.knn_batch(queries, CANDIDATES) == want_knn
            assert svc.am_query_batch(stream, CANDIDATES) == want_images

    def test_single_shard_degenerate_case(self, corpus, reference):
        stream = list(range(0, 600, 41))
        expected = BlobworldEngine(corpus).am_query_batch(
            reference, stream, CANDIDATES, INDEX_DIMENSIONS)
        with build_service(corpus, shards=1) as svc:
            assert svc.am_query_batch(stream, CANDIDATES) == expected

    def test_cache_smaller_than_a_block_with_repeats(self, corpus,
                                                     reference):
        """A repeat rides its first occurrence's answer, not a cache
        entry a later miss of the same block may already have evicted."""
        stream = [5, 9, 5, 9, 5]
        expected = BlobworldEngine(corpus).am_query_batch(
            reference, stream, CANDIDATES, INDEX_DIMENSIONS)
        with build_service(corpus, shards=2, cache_size=1) as svc:
            assert svc.am_query_batch(stream, CANDIDATES) == expected


class TestDegradedMode:
    def test_killed_shard_degrades_instead_of_raising(self, corpus):
        with build_service(corpus) as svc:
            warm = [0, 23, 46]
            svc.am_query_batch(warm, CANDIDATES)
            assert not svc.degradation.is_degraded
            svc.kill_shard(0)
            cold = [301, 302, 303]  # never queried: must scatter
            answers = svc.am_query_batch(cold, CANDIDATES)
            assert len(answers) == len(cold)
            assert all(isinstance(images, list) and images
                       for images in answers)
            assert svc.degradation.is_degraded
            assert svc.degraded_requests >= 1
            assert list(svc.dead) == [0]
            liveness = svc.liveness()
            assert liveness[0]["state"] == "dead"
            assert liveness[0]["cause"] == svc.dead[0]
            assert liveness[1] == {"state": "live", "rid_range": [
                svc.shards[1]["lo"], svc.shards[1]["hi"]]}
            lost = svc.shards[0]["hi"] - svc.shards[0]["lo"]
            assert svc.degradation.estimated_candidates_lost >= lost
            # the probe reaches the live shards only
            assert svc.ping() == {0: False, 1: True, 2: True}

    def test_surviving_shards_answer_their_own_rids_exactly(self, corpus):
        """With shard 0 dead, candidates from the surviving rid ranges
        still merge canonically (the merge just loses shard 0's rows)."""
        vectors = corpus.reduced(INDEX_DIMENSIONS)
        with build_service(corpus) as svc:
            lo = svc.shards[1]["lo"]
            svc.kill_shard(0)
            queries = vectors[[lo, lo + 5]]
            hits = svc.knn_batch(queries, 5)
            assert all(rid >= lo for row in hits for _, rid in row)
            assert hits[0][0] == (0.0, lo)

    def test_cached_answers_survive_a_dead_fleet(self, corpus):
        with build_service(corpus, shards=2) as svc:
            stream = [10, 11, 12]
            before = svc.am_query_batch(stream, CANDIDATES)
            svc.kill_shard(0)
            svc.kill_shard(1)
            # Warm keys never scatter; a fleet-wide outage only shows
            # up for queries that miss the coordinator cache.
            assert svc.am_query_batch(stream, CANDIDATES) == before
            with pytest.raises(RuntimeError):
                svc.am_query_batch([550], CANDIDATES)

    def test_an_idle_fleet_stays_live(self, tmp_path):
        """Only a failed send or receive takes a shard down; silence
        does not.  The service runs in a child interpreter whose
        monotonic clock is pushed an hour ahead between two requests —
        patched before the serving layer is imported, so any clock it
        could hold moves too — and the second request is still answered
        by both shards, not degraded."""
        script = tmp_path / "idle_fleet.py"
        script.write_text(textwrap.dedent("""
            import time
            real = time.monotonic
            skew = [0.0]
            time.monotonic = lambda: real() + skew[0]

            from repro.blobworld import build_corpus
            from repro.serving import ShardedService

            corpus = build_corpus(num_blobs=200, num_images=40, seed=7)
            with ShardedService.build(corpus, 2, page_size=4096) as svc:
                svc.am_query_batch([7], 40)
                skew[0] = 3600.0
                answers = svc.am_query_batch([101, 102], 40)
                assert len(answers) == 2 and all(answers), answers
                assert svc.degraded_requests == 0, svc.degradation.summary()
                assert svc.dead == {}
            print("answered")
        """))
        src = Path(__file__).resolve().parents[2] / "src"
        proc = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(src)), timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "answered"

    def test_worker_application_error_is_a_bug_not_an_outage(self, corpus):
        with build_service(corpus, shards=2) as svc:
            with pytest.raises(RuntimeError, match="shard"):
                svc._gather({"op": "definitely-not-an-op"})
            # The workers answered (with an error), so they stay live.
            assert svc.dead == {}
            assert svc.ping() == {0: True, 1: True}


class TestInlineFallback:
    @pytest.fixture()
    def inline_service(self, corpus, monkeypatch):
        import repro.serving.coordinator as coordinator
        monkeypatch.setattr(coordinator, "fork_available", lambda: False)
        return build_service(corpus, shards=2)

    def test_parity_without_fork(self, corpus, reference, inline_service):
        stream = list(range(0, 600, 29))
        expected = BlobworldEngine(corpus).am_query_batch(
            reference, stream, CANDIDATES, INDEX_DIMENSIONS)
        with inline_service as svc:
            assert svc.inline
            assert svc.am_query_batch(stream, CANDIDATES) == expected

    def test_degraded_mode_without_fork(self, corpus, inline_service):
        with inline_service as svc:
            svc.kill_shard(1)
            answers = svc.am_query_batch([401, 402], CANDIDATES)
            assert len(answers) == 2
            assert svc.degradation.is_degraded
            assert list(svc.dead) == [1]


class TestRestart:
    """A stopped service starts again over the same built trees."""

    def test_inline_restarts_keep_one_pool_over_the_file(
            self, corpus, monkeypatch):
        """Each in-process start pools its shard's page file once, on the
        server's own tree object, and leaves the coordinator's tree over
        the bare file, so restarts never stack pools."""
        monkeypatch.setattr(coordinator, "fork_available", lambda: False)
        svc = build_service(corpus, shards=2)
        files = [shard["tree"].store for shard in svc.shards]
        assert all(isinstance(f, FilePageFile) for f in files)
        try:
            for _ in range(3):
                svc.start()
                assert svc.am_query_batch([7, 8], CANDIDATES)
                for handle, shard, file in zip(svc.handles, svc.shards,
                                               files):
                    chain = store_chain(handle.server.tree.store)
                    assert [type(layer) for layer in chain] \
                        == [BufferPool, FilePageFile]
                    assert chain[1] is file
                    assert shard["tree"].store is file
                svc.stop()
        finally:
            svc.close()

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_forked_start_never_wraps_the_parent_store(self, corpus):
        svc = build_service(corpus, shards=2)
        files = [shard["tree"].store for shard in svc.shards]
        with svc:
            for _ in range(2):
                svc.start()
                assert not svc.inline
                assert svc.am_query_batch([9], CANDIDATES)
                assert [shard["tree"].store for shard in svc.shards] \
                    == files
                svc.stop()


class TestAccounting:
    def test_serve_stream_profile(self, corpus, monkeypatch):
        rng = np.random.default_rng(3)
        pool = rng.choice(600, size=12, replace=False)
        stream = [int(b) for b in rng.choice(pool, size=48)]
        profile = ShardServeProfile(method="rtree", codec="f64",
                                    num_shards=3, request_size=16)
        # A window of 1 is the serial case: the cache-hit arithmetic
        # below assumes each block sees every earlier block's results
        # cached, which pipelined dispatch deliberately gives up.
        monkeypatch.setattr(coordinator, "WINDOW", 1)
        with build_service(corpus) as svc:
            svc.serve_stream(stream, CANDIDATES, request_size=16,
                             profile=profile)
            svc.gather_stats(profile)
        assert profile.requests == 3  # 48 queries / 16 per block
        assert profile.queries == 48
        assert len(profile.request_latencies) == 3
        assert profile.queue_depths[0] == 3  # whole queue at dispatch
        assert profile.queue_depths[-1] == 1
        doc = profile.as_dict()
        assert set(doc["latency_ms"]) == {"p50_ms", "p95_ms", "p99_ms"}
        assert doc["queue_depth"]["max"] == 3
        # One partial-latency entry and one stats blob per live shard.
        assert sorted(profile.shard_partial_seconds) == [0, 1, 2]
        assert sorted(profile.shard_stats) == [0, 1, 2]
        for stats in profile.shard_stats.values():
            assert stats["requests"] > 0
            assert "cache" in stats and "pool" in stats
        assert [(shard["state"], shard["rid_range"])
                for shard in doc["liveness"].values()] == [
            ("live", [shard["lo"], shard["hi"]]) for shard in svc.shards]
        # 12 distinct blobs over 48 requests: the coordinator cache
        # absorbed the repeats.
        assert profile.cache_hits >= 36

    def test_coordinator_cache_dedups_within_a_block(self, corpus):
        with build_service(corpus, shards=2) as svc:
            answers = svc.am_query_batch([5, 5, 5, 9], CANDIDATES)
            assert answers[0] == answers[1] == answers[2]
            assert svc.cache is not None and len(svc.cache) == 2

    def test_gather_stats_reports_worker_caches(self, corpus):
        with build_service(corpus, shards=2) as svc:
            svc.am_query_batch([3, 4, 5], CANDIDATES)
            svc.am_query_batch([3, 4, 5, 6], CANDIDATES)
            stats = svc.gather_stats()
            assert sorted(stats) == [0, 1]
            for blob in stats.values():
                assert blob["requests"] >= 2
                assert blob["cache"]["hits"] + blob["cache"]["misses"] > 0

    def test_build_rejects_zero_shards(self, corpus):
        with pytest.raises(ValueError):
            ShardedService.build(corpus, 0)




def fleets(monkeypatch):
    """Forked (where fork exists) then inline: the request path must not
    care which side of a process boundary the shards live on."""
    for inline in (False, True):
        with monkeypatch.context() as patch:
            if inline:
                patch.setattr(coordinator, "fork_available", lambda: False)
            yield inline


def every_path(svc, stream, monkeypatch, request_size):
    """The same stream down every spelling of the one request path, on a
    fresh service: window 4 first, while nothing is cached yet."""
    pipelined = svc.serve_stream(stream, CANDIDATES,
                                 request_size=request_size)
    with monkeypatch.context() as patch:
        patch.setattr(coordinator, "WINDOW", 1)
        serial = svc.serve_stream(stream, CANDIDATES,
                                  request_size=request_size)
    return [pipelined, serial, svc.am_query_batch(stream, CANDIDATES)]


class TestPipelined:
    """Window 1 == window 4 == one block == the unsharded engine, forked
    and inline."""

    def test_pipelined_matches_serial_and_unsharded(self, corpus,
                                                    reference,
                                                    monkeypatch):
        stream = [int(b) for b in
                  np.random.default_rng(11).integers(0, 600, size=96)]
        expected = BlobworldEngine(corpus).am_query_batch(
            reference, stream, CANDIDATES, INDEX_DIMENSIONS)
        for inline in fleets(monkeypatch):
            with build_service(corpus, cache_size=0) as svc:
                assert svc.inline is (inline or not fork_available())
                assert every_path(svc, stream, monkeypatch, 16) \
                    == [expected] * 3

    def test_cross_block_duplicates_match_unsharded(self, corpus,
                                                    reference,
                                                    monkeypatch):
        # Every block repeats the same 8 blobs, so a window of blocks
        # in flight scatters the same queries several times over —
        # with or without a result cache, the answers must not move.
        stream = [int(b) for b in range(0, 64, 8)] * 8
        expected = BlobworldEngine(corpus).am_query_batch(
            reference, stream, CANDIDATES, INDEX_DIMENSIONS)
        for inline in fleets(monkeypatch):
            for cache_size in (0, 256):
                profile = ShardServeProfile(method="rtree", codec="f64",
                                            num_shards=3, request_size=8)
                with build_service(corpus, cache_size=cache_size) as svc:
                    got = svc.serve_stream(stream, CANDIDATES,
                                           request_size=8, profile=profile)
                    assert got == expected
                    assert every_path(svc, stream, monkeypatch, 8) \
                        == [expected] * 3
                assert profile.as_dict()["coalesced"] == 0

    def test_framed_transport_parity(self, corpus, reference, monkeypatch):
        stream = list(range(0, 600, 19))
        expected = BlobworldEngine(corpus).am_query_batch(
            reference, stream, CANDIDATES, INDEX_DIMENSIONS)
        for inline in fleets(monkeypatch):
            profile = ShardServeProfile(method="rtree", codec="f64",
                                        num_shards=3, request_size=16)
            with build_service(corpus, cache_size=0) as svc:
                assert svc.serve_stream(stream, CANDIDATES,
                                        request_size=16,
                                        profile=profile) == expected
                assert every_path(svc, stream, monkeypatch, 16) \
                    == [expected] * 3
                svc.gather_stats(profile)
            # Every array payload crossed the socket as a pickled frame;
            # in-process shards have no socket to count.
            assert (profile.transport_bytes["pickled"] > 0) \
                is not svc.inline
            assert set(profile.transport_bytes) == {"pickled", "control"}

    def test_restart_serves_identically(self, corpus, reference,
                                        monkeypatch):
        stream = list(range(0, 600, 43))
        expected = BlobworldEngine(corpus).am_query_batch(
            reference, stream, CANDIDATES, INDEX_DIMENSIONS)
        for inline in fleets(monkeypatch):
            svc = build_service(corpus, shards=2, cache_size=0)
            try:
                svc.start()
                first = svc.am_query_batch(stream, CANDIDATES)
                svc.stop()
                svc.start()
                assert every_path(svc, stream, monkeypatch, 8) \
                    == [expected] * 3
            finally:
                svc.close()
            assert first == expected

    def test_kill_mid_pipeline_degrades_and_leaks_nothing(self, corpus):
        stream = [int(b) for b in range(0, 600, 7)]
        svc = build_service(corpus, shards=2)
        try:
            svc.start()
            workers = [getattr(h, "process", None) for h in svc.handles]
            svc.serve_stream(stream[:16], CANDIDATES, request_size=8)
            svc.kill_shard(0)
            answers = svc.serve_stream(stream[16:], CANDIDATES,
                                       request_size=8)
            assert len(answers) == len(stream[16:])
            assert all(isinstance(images, list) and images
                       for images in answers)
            assert svc.degradation.is_degraded
            assert list(svc.dead) == [0]
        finally:
            svc.close()
        # Every worker reaped — the killed one the moment its death was
        # noticed — and no shared-memory segment left behind.
        assert not any(p is not None and p.is_alive() for p in workers)
        assert _leaked_segments() == []


def _leaked_segments():
    import glob

    from repro.serving.shm import segment_prefix
    if not os.path.isdir("/dev/shm"):
        return []
    return glob.glob(os.path.join("/dev/shm", segment_prefix() + "*"))


class TestOneRequestAtATime:
    """A failed request takes every reply it is owed off the sockets, so
    the next request's partials are its own."""

    def test_rejected_request_leaves_later_answers_unchanged(self, corpus):
        vectors = corpus.reduced(INDEX_DIMENSIONS)
        queries = vectors[[17, 301]]
        with build_service(corpus, shards=2, cache_size=0) as svc:
            before_am = svc.am_query_batch([17, 301], CANDIDATES)
            before_knn = svc.knn_batch(queries, CANDIDATES)
            with pytest.raises((ValueError, RuntimeError)):
                svc.am_query_batch([600], CANDIDATES)
            poisoned = queries.copy()
            poisoned[0, 0] = np.nan
            with pytest.raises((ValueError, RuntimeError)):
                svc.knn_batch(poisoned, CANDIDATES)
            assert svc.am_query_batch([17, 301], CANDIDATES) == before_am
            assert svc.knn_batch(queries, CANDIDATES) == before_knn

    def test_worker_error_drains_every_reply(self, corpus, monkeypatch):
        """Shard 0 fails any request naming blob 13; shard 1 answers it.
        The coordinator must read shard 1's reply, and every younger
        in-flight block's, before it raises."""
        answer = ShardServer._handle_am

        def poisoned(server, msg):
            if server.shard_id == 0 and 13 in msg["blobs"]:
                raise RuntimeError("poisoned block")
            return answer(server, msg)

        # Patched before start(), so forked workers inherit it.
        monkeypatch.setattr(ShardServer, "_handle_am", poisoned)
        stream = list(range(0, 600, 7))
        for inline in fleets(monkeypatch):
            with build_service(corpus, shards=2, cache_size=0) as svc:
                before = svc.serve_stream(stream, CANDIDATES,
                                          request_size=8)
                with pytest.raises(RuntimeError, match="poisoned"):
                    svc.serve_stream(stream[:16] + [13] + stream[16:],
                                     CANDIDATES, request_size=8)
                with pytest.raises(RuntimeError, match="poisoned"):
                    svc.am_query_batch([13, 17], CANDIDATES)
                assert svc.serve_stream(stream, CANDIDATES,
                                        request_size=8) == before
                # A worker that answers with an error is alive.
                assert svc.dead == {}


BAD_BLOBS = [-1, 600, 2.7, "7"]
BAD_BLOB_IDS = ["negative", "past-the-end", "float", "string"]


class TestIngress:
    """External input is rejected at the coordinator, before anything
    is scattered to a worker."""

    @pytest.fixture(scope="class")
    def svc(self, corpus):
        with build_service(corpus, shards=2, cache_size=0) as svc:
            yield svc

    @staticmethod
    def rejected_before_scatter(svc, call):
        sent = svc.transport_counters()
        with pytest.raises(ValueError):
            call()
        assert svc.transport_counters() == sent

    @pytest.mark.parametrize("bad", BAD_BLOBS, ids=BAD_BLOB_IDS)
    def test_am_query_batch_rejects_bad_blob_ids(self, svc, bad):
        self.rejected_before_scatter(
            svc, lambda: svc.am_query_batch([3, bad], CANDIDATES))

    @pytest.mark.parametrize("bad", BAD_BLOBS, ids=BAD_BLOB_IDS)
    def test_serve_stream_rejects_bad_blob_ids(self, svc, bad):
        self.rejected_before_scatter(
            svc, lambda: svc.serve_stream([3, 4, bad, 5], CANDIDATES,
                                          request_size=2))

    @pytest.mark.parametrize("bad", ["nan", "inf", "narrow", "wide"])
    def test_knn_batch_rejects_bad_queries(self, svc, corpus, bad):
        queries = corpus.reduced(INDEX_DIMENSIONS)[[3, 4]].copy()
        if bad == "nan":
            queries[1, 0] = np.nan
        elif bad == "inf":
            queries[0, 2] = np.inf
        elif bad == "narrow":
            queries = queries[:, :-1]
        else:
            queries = np.hstack([queries, queries[:, :1]])
        self.rejected_before_scatter(
            svc, lambda: svc.knn_batch(queries, CANDIDATES))

    def test_good_input_still_answers(self, svc, corpus):
        assert len(svc.am_query_batch(np.array([3, 599]), CANDIDATES)) == 2
        assert svc.am_query_batch([], CANDIDATES) == []
        queries = corpus.reduced(INDEX_DIMENSIONS)[[3]]
        assert svc.knn_batch(queries, 5)[0][0] == (0.0, 3)
        assert svc.knn_batch(queries[:0], 5) == []
