"""Incremental NN cursors: the k-NN kernel with ``k`` unbounded."""

from itertools import islice

import numpy as np
import pytest

from repro.bulk import bulk_load

from tests.conftest import make_ext
from tests.gist.oracle import paged_tree


class TestCursorOrder:
    def test_yields_in_distance_order(self, any_method, clustered_points):
        pts = clustered_points
        tree = bulk_load(make_ext(any_method, 3), pts, page_size=4096)
        q = pts[42]
        dists = []
        cursor = tree.nn_cursor(q)
        for _ in range(60):
            d, _ = next(cursor)
            dists.append(d)
        assert dists == sorted(dists)

    def test_prefix_equals_knn(self, any_method, clustered_points):
        pts = clustered_points
        tree = bulk_load(make_ext(any_method, 3), pts, page_size=4096)
        q = pts[0] + 0.1
        from_cursor = []
        cursor = tree.nn_cursor(q)
        for _ in range(25):
            from_cursor.append(next(cursor))
        from_knn = tree.knn(q, 25)
        assert [r for _, r in from_cursor] == [r for _, r in from_knn]

    def test_exhausts_whole_tree(self, clustered_points):
        pts = clustered_points[:200]
        tree = bulk_load(make_ext("rtree", 3), pts, page_size=2048)
        all_hits = list(tree.nn_cursor(np.zeros(3)))
        assert len(all_hits) == 200
        assert {r for _, r in all_hits} == set(range(200))

    def test_empty_tree_yields_nothing(self):
        tree = bulk_load(make_ext("rtree", 2), np.empty((0, 2)))
        assert list(tree.nn_cursor(np.zeros(2))) == []

    def test_lazy_io(self, clustered_points):
        """A barely-advanced cursor must not read the whole tree."""
        pts = clustered_points
        tree = bulk_load(make_ext("rtree", 3), pts, page_size=4096)
        tree.stats.reset()
        cursor = tree.nn_cursor(pts[3])
        next(cursor)
        shallow = tree.stats.reads
        for _ in range(500):
            next(cursor)
        deep = tree.stats.reads
        assert shallow < deep
        assert shallow <= tree.height + 2


class TestCursorIsKnn:
    @pytest.mark.parametrize("codec", ["f64", "sq8"])
    def test_any_prefix_is_the_knn_of_that_length(
            self, any_method, codec, clustered_points, tmp_path):
        """Distances, rids and tie order — on quantized leaves too,
        where both rank by the cell lower bound, not the cell center."""
        tree = paged_tree(make_ext(any_method, 3), clustered_points,
                          str(tmp_path / "t.pages"), 4096, codec)
        rng = np.random.default_rng(5)
        for q in np.concatenate([clustered_points[::450],
                                 rng.normal(size=(2, 3)) * 5.0]):
            for k in (1, 25, 300):
                assert list(islice(tree.nn_cursor(q), k)) == tree.knn(q, k)
        tree.store.close()


class TestImageCountQueries:
    def test_am_query_images_returns_requested_coverage(self):
        from repro.blobworld import BlobworldEngine, build_corpus
        from repro.core import build_index
        corpus = build_corpus(2000, 320, seed=0)
        engine = BlobworldEngine(corpus)
        tree = build_index(corpus.reduced(5), "xjb", page_size=4096)
        images = engine.am_query_images(tree, 7, num_images=30, dims=5,
                                        top_images=30)
        assert len(images) == 30
        assert int(corpus.image_ids[7]) in images

    def test_image_count_contract_vs_blob_count(self):
        """Retrieving n images needs >= n blobs (duplicates collapse)."""
        from repro.blobworld import BlobworldEngine, build_corpus
        from repro.core import build_index
        corpus = build_corpus(2000, 320, seed=1)
        engine = BlobworldEngine(corpus)
        tree = build_index(corpus.reduced(5), "rtree", page_size=4096)
        q = 100
        by_images = engine.am_query_images(tree, q, num_images=25,
                                           dims=5, top_images=25)
        by_blobs = engine.am_query(tree, q, num_blobs=25, dims=5,
                                   top_images=25)
        # The image-contract query covers at least as many images.
        assert len(by_images) >= len(by_blobs)

    def test_am_query_images_on_quantized_tree(self, tmp_path):
        """The cursor pulls blobs in exact ``knn`` order on sq8 leaves
        as well (the engine attaches its reduced vectors), so the image
        contract sees the candidates a float64 tree ranks first."""
        from repro.blobworld import BlobworldEngine, build_corpus
        from repro.core.api import make_extension
        corpus = build_corpus(2000, 320, seed=0)
        engine = BlobworldEngine(corpus)
        reduced = corpus.reduced(5)
        tree = paged_tree(make_extension("rtree", 5), reduced,
                          str(tmp_path / "sq8.pages"), 4096, "sq8")
        f64 = bulk_load(make_extension("rtree", 5), reduced, page_size=4096)
        images = engine.am_query_images(tree, 7, num_images=30, dims=5,
                                        top_images=30)
        assert images == engine.am_query_images(f64, 7, num_images=30,
                                                dims=5, top_images=30)
        seen, candidates = set(), []
        for _, rid in tree.knn(reduced[7], tree.size):
            candidates.append(rid)
            seen.add(int(corpus.image_ids[rid]))
            if len(seen) >= 30:
                break
        assert images == engine.rerank(
            7, np.array(candidates, dtype=np.intp), 30)
        assert len(images) == 30
        tree.store.close()
