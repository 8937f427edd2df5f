"""Batched kNN engine: bit-identical to the sequential search.

The contract of :func:`repro.gist.batch.knn_search_batch` is exactness,
not approximation — same result lists (distances, rids, tie order) and
same per-query counted accesses in the same order as ``tree.knn``, for
every access method and any block size.  These tests hold it to that
across the five AMs the paper compares, including the lazily refined
JB/XJB family whose bite-aware bounds take a separate vectorized path.
"""

import numpy as np
import pytest

from repro.amdb import profile_workload, profile_workload_batched
from repro.bulk import bulk_load
from repro.gist import GiST, knn_search_batch
from repro.storage import FilePageFile
from repro.storage.faults import FaultyPageFile

from tests.conftest import make_ext

METHODS = ["rtree", "rstar", "amap", "jb", "xjb"]
#: JB-family predicates are large (an MBR plus per-bite boxes), so they
#: need roomier pages before fanout-2 is reachable.
PAGE_SIZES = {"jb": 8192, "xjb": 4096}


def _page_size(method):
    return PAGE_SIZES.get(method, 2048)


@pytest.fixture(params=METHODS, scope="module")
def method(request):
    return request.param


@pytest.fixture(scope="module")
def tree(method, clustered_points):
    ext = make_ext(method, 3)
    return bulk_load(ext, clustered_points,
                     page_size=_page_size(method))


@pytest.fixture(scope="module")
def queries(clustered_points):
    rng = np.random.default_rng(11)
    foci = clustered_points[rng.choice(len(clustered_points), size=24,
                                       replace=False)]
    strays = rng.normal(size=(8, 3)) * 6.0
    return np.concatenate([foci, strays])


class TestResultParity:
    @pytest.mark.parametrize("block_size", [1, 7, None])
    def test_bit_identical_results(self, tree, queries, block_size):
        expected = [tree.knn(q, 10) for q in queries]
        got = knn_search_batch(tree, queries, 10, block_size=block_size)
        assert got == expected  # floats, rids, and tie order, exactly

    def test_matches_brute_force_distances(self, tree, queries,
                                           clustered_points):
        k = 12
        for q, result in zip(queries,
                             knn_search_batch(tree, queries, k)):
            brute = np.sort(np.sqrt(
                ((clustered_points - q) ** 2).sum(axis=1)))[:k]
            assert np.array_equal([d for d, _ in result], brute)

    def test_k_larger_than_tree(self, tree, queries, clustered_points):
        n = len(clustered_points)
        got = knn_search_batch(tree, queries[:5], n + 10)
        assert [len(r) for r in got] == [n] * 5
        assert got == [tree.knn(q, n + 10) for q in queries[:5]]

    def test_empty_tree(self, method):
        tree = GiST(make_ext(method, 3), page_size=_page_size(method))
        assert knn_search_batch(tree, np.zeros((3, 3)), 5) == [[], [], []]

    def test_rejects_bad_arguments(self, tree):
        with pytest.raises(ValueError):
            knn_search_batch(tree, np.zeros((2, 3)), 0)
        with pytest.raises(ValueError):
            knn_search_batch(tree, np.zeros(3), 5)
        with pytest.raises(ValueError):
            knn_search_batch(tree, np.zeros((2, 3)), 5, block_size=0)


class TestAccessParity:
    @pytest.mark.parametrize("block_size", [1, 7, None])
    def test_per_query_access_lists_match(self, tree, queries,
                                          block_size):
        """Every query books the same counted reads, in the same order,
        as its solo run — the amdb loss metrics depend on this."""
        seq = profile_workload(tree, queries, 10)
        bat = profile_workload_batched(tree, queries, 10,
                                       block_size=block_size)
        for ts, tb in zip(seq.traces, bat.traces):
            assert tb.qid == ts.qid
            assert tb.results == ts.results
            assert tb.leaf_accesses == ts.leaf_accesses
            assert tb.inner_accesses == ts.inner_accesses

    def test_store_counters_match_sequential_totals(self, method,
                                                    clustered_points,
                                                    queries):
        seq_tree = bulk_load(make_ext(method, 3), clustered_points,
                             page_size=_page_size(method))
        bat_tree = bulk_load(make_ext(method, 3), clustered_points,
                             page_size=_page_size(method))
        for q in queries:
            seq_tree.knn(q, 10)
        knn_search_batch(bat_tree, queries, 10)
        assert (bat_tree.store.stats.reads_by_level
                == seq_tree.store.stats.reads_by_level)


class TestQuarantineParity:
    def _disk_tree(self, tmp_path, name, points):
        ext = make_ext("rtree", 3)
        store = FilePageFile.for_extension(str(tmp_path / name), ext,
                                           page_size=2048)
        return bulk_load(ext, points, page_size=2048, store=store)

    def test_degraded_results_match_sequential(self, tmp_path,
                                               clustered_points,
                                               queries):
        """Same page corrupted in two identical trees: the batched
        engine prunes the same subtree and returns the same degraded
        answers, with the same uncounted skip for repeat visitors."""
        seq_tree = self._disk_tree(tmp_path, "seq.pages",
                                   clustered_points)
        bat_tree = self._disk_tree(tmp_path, "bat.pages",
                                   clustered_points)
        victim = [n.page_id for n in seq_tree.iter_nodes()
                  if n.is_leaf][3]
        for t in (seq_tree, bat_tree):
            FaultyPageFile(t.store).corrupt_page(victim, bit=500 * 8)
            t.enable_quarantine()

        expected = [seq_tree.knn(q, 10) for q in queries]
        got = knn_search_batch(bat_tree, queries, 10, block_size=7)

        assert got == expected
        assert bat_tree._quarantined == seq_tree._quarantined == {victim}
        assert (bat_tree.store.stats.reads_by_level
                == seq_tree.store.stats.reads_by_level)


class TestNodeFormParity:
    """One index, three kinds of node object — eagerly built in memory,
    eagerly decoded by ``load_tree``, lazily block-decoded off a page
    file (pread and mmap) — and nothing a query or treecheck can observe
    tells them apart, for every family."""

    K = 10

    @staticmethod
    def _observe(tree, queries, k):
        """(sequential traces, batched traces, treecheck verdict)."""
        from repro.analysis.treecheck import check_tree

        def flat(profile):
            return [(t.results, t.leaf_accesses, t.inner_accesses)
                    for t in profile.traces]
        report = check_tree(tree)
        return (flat(profile_workload(tree, queries, k)),
                flat(profile_workload_batched(tree, queries, k,
                                              block_size=7)),
                (report.clean, [v.code for v in report.violations]))

    @staticmethod
    def _paged(path, method, mmap_mode, root_id, height, size):
        store = FilePageFile.for_extension(
            path, make_ext(method, 3), page_size=_page_size(method),
            mmap_mode=mmap_mode)
        tree = GiST(make_ext(method, 3), store=store,
                    page_size=_page_size(method))
        tree.adopt(store.peek(root_id), height, size)
        return tree

    def test_same_traces_results_and_verdict(self, tmp_path, any_method,
                                             clustered_points, queries):
        from repro.gist.persist import load_tree, save_tree
        method = any_method
        eager = bulk_load(make_ext(method, 3), clustered_points,
                          page_size=_page_size(method))
        built = str(tmp_path / "built.pages")
        with FilePageFile.for_extension(
                built, make_ext(method, 3),
                page_size=_page_size(method)) as store:
            on_file = bulk_load(make_ext(method, 3), clustered_points,
                                page_size=_page_size(method), store=store)
            facts = (on_file.root_id, on_file.height, on_file.size)
        # The file build allocates page ids in the memory build's
        # order, so even the page ids in the traces must agree.
        want = self._observe(eager, queries, self.K)
        assert want[2] == (True, [])
        assert want[0] == want[1]
        for mmap_mode in (False, True):
            lazy = self._paged(built, method, mmap_mode, *facts)
            assert lazy._peek(lazy.root_id)._entries is None
            assert self._observe(lazy, queries, self.K) == want
            lazy.store.close()

        # save_tree renumbers pages into slots: load_tree'd and lazy
        # trees over the *saved* file share ids with each other ...
        saved = str(tmp_path / "saved.gist")
        save_tree(eager, saved)
        loaded = load_tree(path=saved)
        slots = self._observe(loaded, queries, self.K)
        for mmap_mode in (False, True):
            lazy = self._paged(saved, method, mmap_mode, loaded.root_id,
                               loaded.height, loaded.size)
            assert self._observe(lazy, queries, self.K) == slots
            lazy.store.close()
        # ... and with the memory build everything but the numbering.
        assert slots[2] == want[2]
        for (res, leaves, inners), (res0, leaves0, inners0) \
                in zip(slots[0], want[0]):
            assert res == res0
            assert (len(leaves), len(inners)) \
                == (len(leaves0), len(inners0))
