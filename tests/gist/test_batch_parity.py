"""The one k-NN kernel against the reference loop, bit for bit.

``tests/gist/oracle.py`` holds the point-in-heap best-first search the
package used to ship.  Every spelling of the kernel in
:mod:`repro.gist.nn` — ``tree.knn``, ``knn_search_batch`` on a bare
store or behind a pool of any size, and a prefix of ``tree.nn_cursor``
— must return its result lists (distances, rids, tie order) and book
its counted accesses in the same per-query order: the amdb loss
metrics consume the traces, so "approximately the same" would
silently change every downstream number.  These tests hold it to that
across the AMs the paper compares, including the lazily refined JB/XJB
family whose bite-aware bounds go through the vectorized screen, in
strict and quarantine mode, on eager and block-decoded nodes, on exact
and quantized leaves.
"""

from itertools import islice

import numpy as np
import pytest

from repro.bulk import bulk_load
from repro.gist import GiST, knn_search_batch
from repro.storage import BufferPool, FilePageFile
from repro.storage.faults import FaultyPageFile

from tests.conftest import make_ext
from tests.gist.oracle import knn_search as oracle_knn
from tests.gist.oracle import paged_tree, traced

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


def _cold(tree):
    """Empty a pooled tree's frames, so that every spelling meets the
    same pool states and causes the same misses."""
    if isinstance(tree.store, BufferPool):
        tree.store.clear()


def _traces(tree, queries, search):
    """Per query: ``search(q)``'s results and its counted ``(page_id,
    level)`` accesses in order (every visit, pooled or not)."""
    _cold(tree)
    return [traced(tree, lambda: search(q)) for q in queries]


def _pool_misses(tree, run):
    """The misses by level ``run()`` causes from cold frames: the pages
    that reach the page file behind the tree's pool."""
    _cold(tree)
    before = dict(tree.store.stats.misses_by_level)
    run()
    return {level: n - before.get(level, 0)
            for level, n in tree.store.stats.misses_by_level.items()}


def oracle_traces(tree, queries, k):
    return _traces(tree, queries, lambda q: oracle_knn(tree, q, k))


def kernel_traces(tree, queries, k):
    """The oracle's pairs from the per-query spellings of the kernel."""
    return {
        "knn": _traces(tree, queries, lambda q: tree.knn(q, k)),
        "nn_cursor": _traces(
            tree, queries, lambda q: list(islice(tree.nn_cursor(q), k))),
    }


def assert_batch_matches(tree, queries, k, want):
    """``knn_search_batch`` returns the oracle's result lists, and the
    tree's listeners hear the oracle's per-query access lists
    concatenated in query order (a listener has no query id to split
    them by)."""
    _cold(tree)
    results, seen = traced(
        tree, lambda: knn_search_batch(tree, queries, k))
    assert results == [res for res, _ in want]
    assert seen == [access for _, accesses in want for access in accesses]


@pytest.fixture(params=[1, 7, None])
def frames(request, tree):
    """The one cache a block's queries share: a BufferPool of 1 or 7
    frames in front of the tree's store, or none (the bare store)."""
    if request.param is None:
        yield None
        return
    bare = tree.store
    tree.store = BufferPool(bare, request.param)
    yield request.param
    tree.store = bare


class TestResultParity:
    def test_bit_identical_results(self, tree, queries, frames):
        expected = [oracle_knn(tree, q, 10) for q in queries]
        # floats, rids, and tie order, exactly
        assert knn_search_batch(tree, queries, 10) == expected
        assert [tree.knn(q, 10) for q in queries] == expected
        assert [list(islice(tree.nn_cursor(q), 10))
                for q in queries] == expected

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
        expected = [oracle_knn(tree, q, n + 10) for q in queries[:5]]
        assert [len(r) for r in expected] == [n] * 5
        assert knn_search_batch(tree, queries[:5], n + 10) == expected
        assert [tree.knn(q, n + 10) for q in queries[:5]] == expected
        assert [list(tree.nn_cursor(q)) for q in queries[:5]] == expected

    def test_empty_tree(self, method):
        tree = GiST(make_ext(method, 3), page_size=_page_size(method))
        assert knn_search_batch(tree, np.zeros((3, 3)), 5) == [[], [], []]

    def test_rejects_bad_arguments(self, tree):
        with pytest.raises(ValueError):
            knn_search_batch(tree, np.zeros((2, 3)), 0)
        with pytest.raises(ValueError):
            knn_search_batch(tree, np.zeros(3), 5)


class TestAccessParity:
    def test_per_query_access_lists_match(self, tree, queries, frames):
        """Every query books the oracle's counted reads, in the oracle's
        order — the amdb loss metrics depend on this — and behind a
        pool of ``frames`` misses the pages the oracle misses."""
        want = oracle_traces(tree, queries, 10)
        for spelling, got in kernel_traces(tree, queries, 10).items():
            assert got == want, spelling
        assert_batch_matches(tree, queries, 10, want)
        if frames is None:
            return
        runs = {
            "oracle": lambda: [oracle_knn(tree, q, 10) for q in queries],
            "knn": lambda: [tree.knn(q, 10) for q in queries],
            "nn_cursor": lambda: [list(islice(tree.nn_cursor(q), 10))
                                  for q in queries],
            "batch": lambda: knn_search_batch(tree, queries, 10),
        }
        misses = {name: _pool_misses(tree, run) for name, run in runs.items()}
        assert misses["oracle"]
        for name, got in misses.items():
            assert got == misses["oracle"], name

    def test_store_counters_match_sequential_totals(self, method,
                                                    clustered_points,
                                                    queries):
        def fresh():
            return bulk_load(make_ext(method, 3), clustered_points,
                             page_size=_page_size(method))
        oracle_tree, knn_tree, batch_tree, cursor_tree = (
            fresh() for _ in range(4))
        for q in queries:
            oracle_knn(oracle_tree, q, 10)
            knn_tree.knn(q, 10)
            list(islice(cursor_tree.nn_cursor(q), 10))
        knn_search_batch(batch_tree, queries, 10)
        want = oracle_tree.stats.reads_by_level
        assert want
        for t in (knn_tree, batch_tree, cursor_tree):
            assert t.stats.reads_by_level == want


class TestQuarantineParity:
    def test_degraded_results_match_sequential(self, tmp_path,
                                               clustered_points,
                                               queries):
        """Same page corrupted in identical trees: the kernel prunes the
        subtree the oracle prunes and returns the same degraded answers,
        with the same uncounted skip for repeat visitors."""
        for codec in ("f64", "sq8"):
            ref, knn_tree, batch_tree, cursor_tree = trees = [
                paged_tree(make_ext("rtree", 3), clustered_points,
                           str(tmp_path / f"{name}-{codec}.pages"), 2048,
                           codec)
                for name in ("oracle", "knn", "batch", "cursor")]
            victim = [n.page_id for n in ref.iter_nodes()
                      if n.is_leaf][3]
            for t in trees:
                FaultyPageFile(t.store).corrupt_page(victim, bit=500 * 8)
                t.enable_quarantine()

            expected = [oracle_knn(ref, q, 10) for q in queries]
            assert [knn_tree.knn(q, 10) for q in queries] == expected
            assert knn_search_batch(batch_tree, queries, 10) == expected
            assert [list(islice(cursor_tree.nn_cursor(q), 10))
                    for q in queries] == expected
            for t in trees:
                assert t._quarantined == {victim}
                assert t.stats.reads_by_level == ref.stats.reads_by_level
                t.store.close()


class TestNodeFormParity:
    """One index, one node representation — a node's page arrays —
    reached three ways: built in memory by the bulk loader, decoded by
    ``load_tree``, decoded off a page file (pread and mmap); nothing a
    query or treecheck can observe tells them apart, for every
    family."""

    K = 10

    @staticmethod
    def _observe(tree, queries, k):
        """(oracle traces, treecheck verdict), once every spelling of
        the kernel has reproduced those traces on this tree."""
        from repro.analysis.treecheck import check_tree

        report = check_tree(tree)
        want = oracle_traces(tree, queries, k)
        for spelling, got in kernel_traces(tree, queries, k).items():
            assert got == want, spelling
        assert_batch_matches(tree, queries, k, want)
        return want, (report.clean, [v.code for v in report.violations])

    @staticmethod
    def _paged(path, method, mmap_mode, root_id, height, size,
               codec="f64"):
        store = FilePageFile.for_extension(
            path, make_ext(method, 3), page_size=_page_size(method),
            leaf_codec=codec, mmap_mode=mmap_mode)
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
        on_file = paged_tree(make_ext(method, 3), clustered_points,
                             built, _page_size(method))
        facts = (on_file.root_id, on_file.height, on_file.size)
        on_file.store.close()
        # The file build allocates page ids in the memory build's
        # order, so even the page ids in the traces must agree.
        want = self._observe(eager, queries, self.K)
        assert want[1] == (True, [])
        for mmap_mode in (False, True):
            lazy = self._paged(built, method, mmap_mode, *facts)
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
        assert slots[1] == want[1]
        for (res, seen), (res0, seen0) in zip(slots[0], want[0]):
            assert res == res0
            assert [lvl for _, lvl in seen] == [lvl for _, lvl in seen0]

        # Quantized leaves are ranked by the keys attached as
        # ``exact``: a different tree shape, the float64 build's
        # results, on every node form.
        quantized = str(tmp_path / "sq8.pages")
        on_file = paged_tree(make_ext(method, 3), clustered_points,
                             quantized, _page_size(method), "sq8")
        facts = (on_file.root_id, on_file.height, on_file.size)
        lossy = self._observe(on_file, queries, self.K)
        on_file.store.close()
        assert [res for res, _ in lossy[0]] == [res for res, _ in want[0]]
        lazy = self._paged(quantized, method, True, *facts, codec="sq8")
        lazy.exact = clustered_points
        assert self._observe(lazy, queries, self.K) == lossy
        lazy.store.close()
