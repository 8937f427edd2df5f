"""Workload generation, execution and recall curves."""

import numpy as np
import pytest

from repro.blobworld import build_corpus
from repro.bulk import bulk_load
from repro.storage import BufferPool, FilePageFile
from repro.workload import make_workload, recall_curve, run_workload

from tests.conftest import make_ext


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(num_blobs=2000, num_images=320, seed=0)


class TestGenerator:
    def test_foci_are_data_points(self, corpus):
        vecs = corpus.reduced(3)
        wl = make_workload(vecs, 25, k=50, seed=1)
        assert wl.num_queries == 25
        for q, rid in zip(wl.queries, wl.focus_rids):
            assert np.allclose(q, vecs[rid])

    def test_coverage_statistic(self, corpus):
        vecs = corpus.reduced(3)
        wl = make_workload(vecs, 100, k=100, seed=0)
        # 100 queries x 100 results over 2000 items: every item
        # retrieved ~5 times on average (the paper's coverage premise).
        assert wl.expected_retrievals_per_item(2000) == pytest.approx(5.0)

    def test_num_queries_capped_at_n(self, corpus):
        vecs = corpus.reduced(2)[:10]
        wl = make_workload(vecs, 100, k=5)
        assert wl.num_queries == 10


class TestRunner:
    def test_run_workload_produces_report(self, corpus):
        vecs = corpus.reduced(3)
        tree = bulk_load(make_ext("rtree", 3), vecs, page_size=2048)
        wl = make_workload(vecs, 12, k=60, seed=2)
        result = run_workload(tree, wl, vecs)
        assert result.report.num_queries == 12
        assert result.leaf_ios_per_query > 0
        assert result.total_ios_per_query >= result.leaf_ios_per_query
        assert 0.0 < result.pages_touched_fraction <= 1.0

    def test_pages_touched_fraction_grows_with_queries(self, corpus):
        vecs = corpus.reduced(3)
        tree = bulk_load(make_ext("rtree", 3), vecs, page_size=2048)
        small = run_workload(tree, make_workload(vecs, 2, k=40, seed=3),
                             vecs)
        tree.stats.reset()
        large = run_workload(tree, make_workload(vecs, 40, k=40, seed=3),
                             vecs)
        assert large.pages_touched_fraction \
            >= small.pages_touched_fraction

    def test_profile_traces_every_visit_behind_a_pool(self, corpus,
                                                      tmp_path):
        """The tree books its reads above the pool: a pooled tree traces
        every node visit, as a bare one does, and the pool splits them
        into hits and the misses that reached its page file."""
        vecs = corpus.reduced(3)
        wl = make_workload(vecs, 8, k=20, seed=1)
        plain = run_workload(
            bulk_load(make_ext("rtree", 3), vecs, page_size=2048), wl, vecs)
        ext = make_ext("rtree", 3)
        pool = BufferPool(FilePageFile.for_extension(
            str(tmp_path / "t.pages"), ext, page_size=2048),
            capacity_pages=8)
        buffered = run_workload(
            bulk_load(ext, vecs, page_size=2048, store=pool), wl, vecs)
        pool.close()
        assert [t.results for t in buffered.profile.traces] \
            == [t.results for t in plain.profile.traces]
        assert pool.stats.hits > 0
        assert buffered.profile.total_ios == plain.profile.total_ios \
            == pool.stats.hits + pool.stats.misses
        assert pool.pagefile.stats.reads == pool.stats.misses


class TestRecallCurve:
    def test_curve_shape(self, corpus):
        qs = corpus.sample_query_blobs(8, seed=4).tolist()
        points = recall_curve(corpus, qs, dims_list=[2, 5],
                              retrieved_list=[50, 200])
        assert len(points) == 4
        by_key = {(p.dims, p.retrieved): p.mean_recall for p in points}
        # Figure 6's monotonicities: more dims and more retrieved help.
        assert by_key[(5, 200)] >= by_key[(2, 200)] - 0.05
        assert by_key[(5, 200)] >= by_key[(5, 50)] - 0.05
        for p in points:
            assert 0.0 <= p.mean_recall <= 1.0
            assert p.num_queries == 8


class TestWelcomeWorkload:
    def test_foci_limited(self, corpus):
        from repro.workload.generator import make_welcome_workload
        vecs = corpus.reduced(3)
        wl = make_welcome_workload(vecs, 60, num_foci=8, k=20, seed=0)
        assert wl.num_queries == 60
        assert len(set(wl.focus_rids.tolist())) <= 8

    def test_queries_cluster_around_foci(self, corpus):
        from repro.workload.generator import make_welcome_workload
        vecs = corpus.reduced(3)
        wl = make_welcome_workload(vecs, 40, num_foci=4, k=20, seed=1)
        for q, rid in zip(wl.queries, wl.focus_rids):
            gap = np.linalg.norm(q - vecs[rid])
            assert gap < 0.5 * np.linalg.norm(vecs.std(axis=0))

    def test_covers_less_than_broad(self, corpus):
        from repro.workload.generator import make_welcome_workload
        from repro.bulk import bulk_load
        from repro.amdb import profile_workload
        from tests.conftest import make_ext
        vecs = corpus.reduced(3)
        tree = bulk_load(make_ext("rtree", 3), vecs, page_size=2048)

        def coverage(wl):
            prof = profile_workload(tree, wl.queries, wl.k)
            touched = set()
            for t in prof.traces:
                touched.update(t.result_rids)
            tree.stats.reset()
            return len(touched)

        broad = make_workload(vecs, 50, k=40, seed=2)
        narrow = make_welcome_workload(vecs, 50, num_foci=5, k=40,
                                       seed=2)
        assert coverage(broad) > 2 * coverage(narrow)
