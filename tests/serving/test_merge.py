"""Merge determinism: equal-distance partials across shards.

The serving contract (see :mod:`repro.serving.partials`) is that every
partial is the shard's canonical top-k under ``(distance, rid)``, and
the merged result is bit-identical to a single tree over the whole
corpus answering under the same order.  These tests attack exactly the
case that breaks naive merges: *adversarial exact ties* — integer-grid
coordinates (the same trick the aggregation-kernel tests in
``tests/blobworld/test_serving.py`` use) force many queries to see
equal distances straddling every cut.  Quantized (sq8) leaves change
nothing here: a tree ranks them by its ``exact`` keys, so their
distances are the float64 tree's.
"""

import numpy as np
import pytest

from repro.bulk import bulk_load
from repro.serving.partials import merge_topk, pack_partials, unpack_hits
from tests.conftest import make_ext
from tests.gist.oracle import brute_canonical, paged_tree


def packed(rows, width):
    return pack_partials(rows, width)


class TestMergeKernel:
    def test_orders_by_distance_then_rid(self):
        # Equal distances on both shards: ascending rid must win,
        # regardless of which shard a hit came from.
        a = packed([[(1.0, 7), (2.0, 3)]], 2)
        b = packed([[(1.0, 2), (1.0, 9)]], 2)
        dists, rids = merge_topk([a, b], 3)
        assert rids.tolist() == [[2, 7, 9]]
        assert dists.tolist() == [[1.0, 1.0, 1.0]]

    def test_padding_sorts_after_every_real_hit(self):
        a = packed([[(5.0, 1)]], 3)  # one real hit, two padded cells
        b = packed([[(6.0, 2), (7.0, 4)]], 3)
        dists, rids = merge_topk([a, b], 4)
        assert rids.tolist() == [[1, 2, 4, -1]]
        assert np.isinf(dists[0, 3])

    def test_short_rows_keep_padding_through_unpack(self):
        a = packed([[(5.0, 1)], []], 2)
        b = packed([[(6.0, 2)], [(1.0, 8)]], 2)
        hits = unpack_hits(*merge_topk([a, b], 4))
        assert hits == [[(5.0, 1), (6.0, 2)], [(1.0, 8)]]

    def test_empty_parts_rejected(self):
        with pytest.raises(ValueError):
            merge_topk([], 3)

    def test_pack_overflow_rejected(self):
        with pytest.raises(ValueError):
            pack_partials([[(1.0, 1), (2.0, 2)]], 1)

    def test_merge_of_one_part_truncates(self):
        a = packed([[(1.0, 5), (1.0, 6), (2.0, 1)]], 3)
        dists, rids = merge_topk([a], 2)
        assert rids.tolist() == [[5, 6]]


@pytest.fixture(scope="module")
def tied_vectors():
    """Integer-grid coordinates: exact distance ties everywhere."""
    rng = np.random.default_rng(11)
    return rng.integers(0, 5, size=(240, 2)).astype(np.float64)


@pytest.fixture(scope="module")
def tied_queries(tied_vectors):
    rng = np.random.default_rng(12)
    # Integer query points too — squared distances are small integers,
    # so every query sees massive tie rings at every radius.
    return rng.integers(0, 5, size=(24, 2)).astype(np.float64)


class TestCanonicalAnswers:
    @pytest.mark.parametrize("method", ["rtree", "sstree", "xjb"])
    @pytest.mark.parametrize("k", [1, 7, 16])
    def test_canonical_matches_brute_force(self, tied_vectors,
                                           tied_queries, method, k):
        """knn_batch answers the (distance, rid) truth, tie order and
        boundary-tie membership included."""
        tree = bulk_load(make_ext(method, 2), tied_vectors,
                         page_size=4096)
        rids = np.arange(len(tied_vectors))
        got = tree.knn_batch(tied_queries, k)
        for q, hits in zip(tied_queries, got):
            assert hits == brute_canonical(tied_vectors, rids, q, k)

    def test_k_at_least_corpus_returns_everything_sorted(self,
                                                         tied_vectors):
        tree = bulk_load(make_ext("rtree", 2), tied_vectors,
                         page_size=4096)
        query = tied_vectors[:1]
        (hits,) = tree.knn_batch(query, len(tied_vectors))
        assert len(hits) == len(tied_vectors)
        assert hits == sorted(hits)


    @pytest.mark.parametrize("codec", ["f64", "sq8"])
    def test_boundary_tie_ring_uses_the_knn_distances(self, codec,
                                                      tmp_path):
        """A tie straddling the cut goes to the lowest rids, on
        quantized leaves too, which rank by the tree's ``exact`` keys.

        A 3 x 3 grid holding ~165 copies of each point: every query sits
        on more copies of itself than ``k``, spread over several leaves,
        so each cut falls inside the ring at distance zero."""
        rng = np.random.default_rng(13)
        coarse = rng.integers(0, 3, size=(1500, 2)).astype(np.float64)
        queries = np.array([[x, y] for x in range(3) for y in range(3)],
                           dtype=np.float64)
        tree = paged_tree(make_ext("rtree", 2), coarse,
                          str(tmp_path / "coarse.pages"), 1024, codec)
        assert len(list(tree.leaf_nodes())) > 4
        for k in (3, 16, 40):
            for hits in tree.knn_batch(queries, k + 1):
                assert hits[k][0] == hits[k - 1][0] == 0.0
            assert tree.knn_batch(queries, k) == [
                sorted(tree.knn(q, len(coarse)))[:k] for q in queries]
        tree.store.close()


class TestShardedMergeParity:
    """Satellite: adversarial equal-distance partials across shards
    must merge to the exact single-tree canonical sequence."""

    @pytest.mark.parametrize("method", ["rtree", "rstar", "sstree",
                                        "srtree", "amap", "jb", "xjb"])
    def test_two_shard_merge_is_bit_identical(self, tied_vectors,
                                              tied_queries, method):
        k = 12
        whole = bulk_load(make_ext(method, 2), tied_vectors,
                          page_size=4096)
        expected = whole.knn_batch(tied_queries, k)

        mid = len(tied_vectors) // 2
        parts = []
        for lo, hi in [(0, mid), (mid, len(tied_vectors))]:
            shard = bulk_load(make_ext(method, 2), tied_vectors[lo:hi],
                              rids=list(range(lo, hi)), page_size=4096)
            parts.append(pack_partials(
                shard.knn_batch(tied_queries, k), k))
        merged = unpack_hits(*merge_topk(parts, k))
        assert merged == expected

    def test_uneven_shard_split_still_merges_exactly(self, tied_vectors,
                                                     tied_queries):
        k = 9
        whole = bulk_load(make_ext("rtree", 2), tied_vectors,
                          page_size=4096)
        expected = whole.knn_batch(tied_queries, k)
        bounds = [(0, 30), (30, 200), (200, len(tied_vectors))]
        parts = []
        for lo, hi in bounds:
            shard = bulk_load(make_ext("rtree", 2), tied_vectors[lo:hi],
                              rids=list(range(lo, hi)), page_size=4096)
            parts.append(pack_partials(
                shard.knn_batch(tied_queries, k), k))
        assert unpack_hits(*merge_topk(parts, k)) == expected

    def test_tiny_shard_pads_into_the_merge(self, tied_vectors,
                                            tied_queries):
        # A shard smaller than k returns short rows; padding must not
        # leak into the merged answer.
        k = 10
        whole = bulk_load(make_ext("rtree", 2), tied_vectors,
                          page_size=4096)
        expected = whole.knn_batch(tied_queries, k)
        bounds = [(0, 4), (4, len(tied_vectors))]
        parts = []
        for lo, hi in bounds:
            shard = bulk_load(make_ext("rtree", 2), tied_vectors[lo:hi],
                              rids=list(range(lo, hi)), page_size=4096)
            parts.append(pack_partials(
                shard.knn_batch(tied_queries, k), k))
        assert unpack_hits(*merge_topk(parts, k)) == expected
