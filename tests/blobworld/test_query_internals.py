"""Query engine internals: image ranking, candidate handling."""

import numpy as np
import pytest

from repro.blobworld import BlobworldEngine, build_corpus
from repro.blobworld.query import _top_images, recall


class TestTopImagesFromBlobs:
    def test_images_ranked_by_best_blob(self):
        image_ids = np.array([0, 0, 1, 1, 2])
        blobs = np.array([0, 1, 2, 3, 4])
        dists = np.array([0.5, 0.1, 0.3, 0.9, 0.2])
        # best per image: 0 -> 0.1, 1 -> 0.3, 2 -> 0.2
        order = np.argsort(dists, kind="stable")
        out = _top_images(blobs[order][None, :], image_ids, 3)
        assert out == [[0, 2, 1]]

    def test_duplicate_image_kept_once(self):
        image_ids = np.array([7, 7, 7])
        out = _top_images(np.array([[0, 1, 2]]), image_ids, 5)
        assert out == [[7]]

    def test_top_limit_respected(self):
        image_ids = np.arange(10)
        out = _top_images(np.arange(10)[None, :], image_ids, 4)
        assert out == [[0, 1, 2, 3]]


class TestEngineBehaviour:
    @pytest.fixture(scope="class")
    def engine(self):
        return BlobworldEngine(build_corpus(1500, 240, seed=0))

    def test_full_query_deterministic(self, engine):
        assert engine.full_query(3, 20) == engine.full_query(3, 20)

    def test_more_candidates_never_reduce_recall(self, engine):
        full = engine.full_query(9, 30)
        small = engine.reduced_query(9, 5, 50, 30)
        large = engine.reduced_query(9, 5, 800, 30)
        assert recall(full, large) >= recall(full, small) - 0.05

    def test_rerank_of_all_blobs_equals_full(self, engine):
        n = engine.corpus.num_blobs
        via_rerank = engine.rerank(11, np.arange(n), 25)
        assert via_rerank == engine.full_query(11, 25)

    def test_rerank_of_subset_only_returns_subset_images(self, engine):
        candidates = np.arange(50)
        out = engine.rerank(0, candidates, 40)
        allowed = {int(engine.corpus.image_ids[b]) for b in candidates}
        assert set(out) <= allowed

    def test_query_blob_always_among_candidates_of_itself(self, engine):
        out = engine.reduced_query(77, 5, 10, 5)
        assert int(engine.corpus.image_ids[77]) in out


class TestRecallFunction:
    def test_partial_overlap(self):
        assert recall([1, 2, 3, 4], [2, 4, 9]) == 0.5

    def test_retrieved_order_irrelevant(self):
        assert recall([1, 2], [2, 1]) == 1.0

    def test_duplicates_in_retrieved(self):
        assert recall([1, 2], [1, 1, 1]) == 0.5
