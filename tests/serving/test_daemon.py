"""The sharded daemon end to end: parity, degradation, accounting.

Everything here runs against a small corpus so the forked workers are
cheap; the paper-scale numbers come from the measurement spine's
``serve_unique`` and ``serve_repeat`` workloads (``benchmarks/spine``).
Degraded-mode tests query *cold* blob ids on purpose — a cached answer
never scatters, so a warm query cannot observe a dead shard.
"""

import os

import numpy as np
import pytest

from repro.amdb.profiler import ShardServeProfile
from repro.blobworld import BlobworldEngine, build_corpus
from repro.bulk import bulk_load
from repro.constants import INDEX_DIMENSIONS
from repro.serving import ShardedService, canonical_knn_batch
from repro.serving.registry import DEAD, LIVE
from repro.storage.diskfile import FilePageFile
from repro.storage.fork import fork_available
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
        expected = canonical_knn_batch(reference, queries, CANDIDATES)
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
        want_knn = canonical_knn_batch(ref_tree, queries, CANDIDATES)
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
            assert svc.registry.state(0) == DEAD
            assert svc.registry.state(1) == LIVE
            lost = svc.shards[0]["hi"] - svc.shards[0]["lo"]
            assert svc.degradation.estimated_candidates_lost >= lost

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

    def test_expired_shards_revive_on_ping(self, corpus):
        clock = [0.0]
        with build_service(corpus, shards=2, heartbeat_ttl=5.0,
                           clock=lambda: clock[0]) as svc:
            svc.am_query_batch([7], CANDIDATES)
            clock[0] = 100.0  # silence past the ttl: everyone expires
            assert svc.registry.live() == []
            with pytest.raises(RuntimeError):
                svc.am_query_batch([501], CANDIDATES)
            assert svc.ping() == {0: True, 1: True}
            assert svc.registry.live() == [0, 1]
            assert svc.am_query_batch([502], CANDIDATES)

    def test_worker_application_error_is_a_bug_not_an_outage(self, corpus):
        with build_service(corpus, shards=2) as svc:
            with pytest.raises(RuntimeError, match="shard"):
                svc._scatter_gather({"op": "definitely-not-an-op"})
            # The workers answered (with an error), so they stay live.
            assert svc.registry.live() == [0, 1]


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
            assert svc.registry.state(1) == DEAD


class TestAccounting:
    def test_serve_stream_profile(self, corpus):
        rng = np.random.default_rng(3)
        pool = rng.choice(600, size=12, replace=False)
        stream = [int(b) for b in rng.choice(pool, size=48)]
        profile = ShardServeProfile(method="rtree", codec="f64",
                                    num_shards=3, request_size=16)
        # window=1 pins the serial path: the cache-hit arithmetic below
        # assumes each block sees every earlier block's results cached,
        # which pipelined dispatch deliberately gives up.
        with build_service(corpus) as svc:
            svc.serve_stream(stream, CANDIDATES, request_size=16,
                             profile=profile, window=1)
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
            assert "cache" in stats and "plans" in stats
        assert {beat["state"] for beat in profile.heartbeats.values()} \
            == {LIVE}
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


def _leaked_segments():
    import glob

    from repro.serving.shm import segment_prefix
    if not os.path.isdir("/dev/shm"):
        return []
    return glob.glob(os.path.join("/dev/shm", segment_prefix() + "*"))


class TestPipelined:
    """The windowed event loop: parity, zero-copy, hygiene."""

    def test_pipelined_matches_serial_and_unsharded(self, corpus,
                                                    reference):
        stream = [int(b) for b in
                  np.random.default_rng(11).integers(0, 600, size=96)]
        expected = BlobworldEngine(corpus).am_query_batch(
            reference, stream, CANDIDATES, INDEX_DIMENSIONS)
        with build_service(corpus, cache_size=0) as svc:
            serial = svc.serve_stream(stream, CANDIDATES,
                                      request_size=16, window=1)
            pipelined = svc.serve_stream(stream, CANDIDATES,
                                         request_size=16, window=4)
        assert serial == expected
        assert pipelined == expected

    def test_inflight_duplicates_coalesce(self, corpus, reference):
        # Every block repeats the same 8 blobs: once the first block is
        # in flight, every younger in-flight block coalesces onto it
        # instead of re-scattering — with or without a result cache.
        stream = [int(b) for b in range(0, 64, 8)] * 8
        expected = BlobworldEngine(corpus).am_query_batch(
            reference, stream, CANDIDATES, INDEX_DIMENSIONS)
        for cache_size in (0, 256):
            profile = ShardServeProfile(method="rtree", codec="f64",
                                        num_shards=3, request_size=8)
            with build_service(corpus, cache_size=cache_size) as svc:
                got = svc.serve_stream(stream, CANDIDATES,
                                       request_size=8, profile=profile,
                                       window=4)
            assert got == expected
            assert profile.coalesced > 0
            assert profile.as_dict()["coalesced"] == profile.coalesced

    def test_framed_transport_parity(self, corpus, reference):
        stream = list(range(0, 600, 19))
        expected = BlobworldEngine(corpus).am_query_batch(
            reference, stream, CANDIDATES, INDEX_DIMENSIONS)
        with build_service(corpus, transport="framed") as svc:
            assert svc.transport_used == "framed"
            assert svc.serve_stream(stream, CANDIDATES, request_size=16,
                                    window=4) == expected

    def test_shm_mode_pickles_no_hot_path_bytes(self, corpus):
        from repro.serving.shm import shm_available
        if not shm_available():
            pytest.skip("platform has no shared memory")
        stream = [int(b) for b in
                  np.random.default_rng(5).integers(0, 600, size=64)]
        profile = ShardServeProfile(method="rtree", codec="f64",
                                    num_shards=3, request_size=16)
        with build_service(corpus, transport="shm") as svc:
            svc.serve_stream(stream, CANDIDATES, request_size=16,
                             profile=profile, window=4)
            svc.gather_stats(profile)
        assert profile.transport == "shm"
        assert profile.window == 4
        assert profile.transport_bytes["pickled"] == 0
        assert profile.transport_bytes["shm"] > 0
        assert profile.transport_bytes["control"] > 0

    def test_restart_switches_transport(self, corpus, reference):
        stream = list(range(0, 600, 43))
        expected = BlobworldEngine(corpus).am_query_batch(
            reference, stream, CANDIDATES, INDEX_DIMENSIONS)
        svc = build_service(corpus, shards=2, cache_size=0)
        try:
            svc.start(transport="framed", window=1)
            first = svc.am_query_batch(stream, CANDIDATES)
            svc.stop()
            svc.start(transport="auto", window=4)
            second = svc.serve_stream(stream, CANDIDATES,
                                      request_size=8, window=4)
        finally:
            svc.close()
        assert first == expected
        assert second == expected

    def test_kill_mid_pipeline_degrades_and_leaks_nothing(self, corpus):
        stream = [int(b) for b in range(0, 600, 7)]
        svc = build_service(corpus, shards=2)
        try:
            svc.start()
            svc.serve_stream(stream[:16], CANDIDATES, request_size=8,
                             window=4)
            svc.kill_shard(0)
            answers = svc.serve_stream(stream[16:], CANDIDATES,
                                       request_size=8, window=4)
            assert len(answers) == len(stream[16:])
            assert all(isinstance(images, list) and images
                       for images in answers)
            assert svc.degradation.is_degraded
            assert svc.registry.state(0) == DEAD
        finally:
            svc.close()
        # Segment hygiene: every shm ring this process created must be
        # unlinked once the fleet is down — including the killed
        # worker's, which is retired the moment its death is noticed.
        assert _leaked_segments() == []

    def test_close_unlinks_all_segments(self, corpus):
        with build_service(corpus, shards=3) as svc:
            svc.am_query_batch([1, 2, 3], CANDIDATES)
        assert _leaked_segments() == []

    def test_hints_flow_to_workers_without_breaking_answers(self, corpus):
        """The serial path attaches read-ahead hints; workers must
        consume them (prefetch or planner-gate them) transparently."""
        stream = [int(b) for b in
                  np.random.default_rng(9).integers(0, 600, size=64)]
        with build_service(corpus, shards=2, cache_size=0) as svc:
            expected = svc.am_query_batch(stream, CANDIDATES)
            svc.cache = None
            got = svc.serve_stream(stream, CANDIDATES, request_size=8,
                                   window=1)
            stats = svc.gather_stats()
        assert got == expected
        assert all("prefetch" in blob for blob in stats.values())

    def test_prefetch_descends_for_tree_routed_blocks(self, corpus):
        """Forced onto the tree route, a hint warms real leaf pages;
        under the scan route the descent is planner-gated to zero."""
        from repro.serving.worker import ShardServer

        svc = build_service(corpus, shards=2, cache_size=0)
        try:
            shard = svc.shards[0]
            server = ShardServer(0, shard["tree"], svc.reduced,
                                 lo=shard["lo"], hi=shard["hi"])
            blobs = np.arange(0, 64, dtype=np.int64)
            server.handle({"op": "am", "blobs": blobs,
                           "fetch": CANDIDATES,
                           "dims": INDEX_DIMENSIONS})
            hint = list(range(100, 140))
            # Tiny shards scan-route, so the gate suppresses the
            # descent entirely...
            assert server.prefetch_hint(hint) == 0
            assert server.prefetch_calls == 0
            # ...and a tree-routed plan descends and warms the pool.
            import dataclasses
            plan = dataclasses.replace(
                server.planner.plan_batch(8, CANDIDATES),
                choice="tree")
            server.planner.plan_batch = lambda *a, **kw: plan
            fetched = server.prefetch_hint(hint)
            assert server.prefetch_calls == 1
            assert fetched > 0
            assert server.tree.store.stats.prefetched == fetched
        finally:
            svc.close()
