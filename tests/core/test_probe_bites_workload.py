"""The probe-cover construction's workload-level effect (EXPERIMENTS A4).

The probe bites are the one construction that measurably reduces leaf
I/Os on the Blobworld corpus; these tests pin that finding and the
construction's cost/benefit relationships at small scale.
"""

import numpy as np
import pytest

from repro.amdb import profile_workload
from repro.bulk import bulk_load
from repro.core.jbtree import JBExtension

from tests.gist.oracle import pred_object, row_for_keys


def _pred(method, group):
    ext = JBExtension(5, bite_method=method)
    return pred_object(ext, row_for_keys(ext, group))


@pytest.fixture(scope="module")
def corpus_vectors():
    from repro.blobworld import build_corpus
    corpus = build_corpus(6000, 960, seed=0)
    return corpus.reduced(5), corpus.sample_query_blobs(15, seed=1)


class TestProbeVsSweep:
    def test_probe_carves_more_volume(self, corpus_vectors):
        vectors, _ = corpus_vectors
        rng = np.random.default_rng(0)
        group = vectors[rng.choice(len(vectors), 150, replace=False)]
        sweep = _pred("sweep", group)
        probe = _pred("probe", group)
        assert probe.coverage_fraction(1000) \
            <= sweep.coverage_fraction(1000) + 0.05

    def test_probe_never_increases_leaf_ios(self, corpus_vectors):
        vectors, qidx = corpus_vectors
        queries = vectors[qidx]
        ios = {}
        for method in ("sweep", "probe"):
            tree = bulk_load(JBExtension(5, bite_method=method),
                             vectors, page_size=8192)
            prof = profile_workload(tree, queries, 200)
            ios[method] = prof.total_leaf_ios
        assert ios["probe"] <= ios["sweep"] * 1.02

    def test_probe_remains_exact(self, corpus_vectors):
        vectors, qidx = corpus_vectors
        tree = bulk_load(JBExtension(5, bite_method="probe"), vectors,
                         page_size=8192)
        q = vectors[qidx[0]]
        got = set(r for _, r in tree.knn(q, 50))
        d = np.sqrt(((vectors - q) ** 2).sum(axis=1))
        want = set(np.argsort(d, kind="stable")[:50].tolist())
        dk = np.sort(d)[49]
        for rid in got ^ want:
            assert d[rid] == pytest.approx(dk)

    def test_probe_build_costs_more_than_sweep(self, corpus_vectors):
        import time
        vectors, _ = corpus_vectors
        rng = np.random.default_rng(1)
        group = vectors[rng.choice(len(vectors), 150, replace=False)]

        def build_time(method):
            ext = JBExtension(5, bite_method=method)
            t0 = time.time()
            for _ in range(3):
                row_for_keys(ext, group)
            return time.time() - t0

        # The set-cover construction pays for its quality; this pins
        # the documented cost relationship (probe slower than sweep).
        assert build_time("probe") > build_time("sweep")
