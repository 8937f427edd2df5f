"""Flat-file scan baseline (paper section 3.2)."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ams import FlatFile, flatfile
from repro.storage.iomodel import DiskModel


@pytest.fixture
def data():
    return np.random.default_rng(0).normal(size=(3000, 5))


def full_matrix_knn(vectors, queries, k, rids=None):
    """The oracle: every distance, then a stable argsort per row.

    This is the expression ``FlatFile`` itself shipped before its
    blocked kernel — a ``(Q, n, dim)`` temporary reduced to the full
    ``(Q, n)`` matrix — kept here as the definition of the answer:
    float64 distances as ``sqrt(((v - q) ** 2).sum(-1))`` rounds them,
    ties in position order.
    """
    v = np.ascontiguousarray(vectors, dtype=np.float64)
    q = np.asarray(queries, dtype=np.float64)
    rids = np.arange(len(v)) if rids is None else np.asarray(rids)
    d = np.sqrt(((v[None, :, :] - q[:, None, :]) ** 2).sum(axis=-1))
    order = np.argsort(d, axis=-1, kind="stable")[:, :k]
    return [[(float(d[qi, i]), int(rids[i])) for i in row]
            for qi, row in enumerate(order)]


def assert_all_spellings_match(flat, queries, k, expected):
    """knn, knn_batch and knn_batch_arrays all give ``expected``."""
    assert flat.knn_batch(queries, k) == expected
    assert [flat.knn(q, k) for q in queries] == expected
    dists, rids = flat.knn_batch_arrays(queries, k)
    assert dists.shape == rids.shape == (len(queries), k)
    assert dists.dtype == np.float64 and rids.dtype == np.int64
    for qi, row in enumerate(expected):
        assert list(zip(dists[qi].tolist(), rids[qi].tolist())) == \
            row + [(np.inf, -1)] * (k - len(row))


class TestKnn:
    def test_matches_brute_force(self, data):
        f = FlatFile(data)
        q = data[5]
        res = f.knn(q, 10)
        d = np.sqrt(((data - q) ** 2).sum(axis=1))
        assert [r for _, r in res] == np.argsort(d, kind="stable")[:10].tolist()

    def test_custom_rids(self, data):
        f = FlatFile(data[:100], rids=list(range(500, 600)))
        ((_, rid),) = f.knn(data[0], 1)
        assert rid == 500

    def test_rid_mismatch(self, data):
        with pytest.raises(ValueError):
            FlatFile(data, rids=[1, 2])

    def test_invalid_k(self, data):
        with pytest.raises(ValueError):
            FlatFile(data).knn(np.zeros(5), 0)

    def test_empty_file(self):
        f = FlatFile(np.empty((0, 3)))
        assert f.knn(np.zeros(3), 5) == []


class TestKnnBatch:
    def test_rows_match_scalar_knn(self, data):
        f = FlatFile(data)
        queries = data[[5, 17, 2999]]
        batch = f.knn_batch(queries, 10)
        assert batch == [f.knn(q, 10) for q in queries]

    def test_one_shared_scan_per_batch(self, data):
        f = FlatFile(data)
        f.knn_batch(data[:40], 5)
        assert f.pages_read == f.num_pages  # not 40 passes

    def test_large_block_is_served_in_runs(self, data):
        f = FlatFile(data)
        queries = data[::37][:flatfile.QUERIES_PER_PASS * 2 + 5]
        with mock.patch.object(FlatFile, "_scan_run",
                               side_effect=f._scan_run) as run:
            got = f.knn_batch(queries, 7)
        assert [len(c.args[0]) for c in run.call_args_list] == [
            flatfile.QUERIES_PER_PASS, flatfile.QUERIES_PER_PASS, 5]
        assert got == full_matrix_knn(data, queries, 7)

    def test_custom_rids_flow_through(self, data):
        f = FlatFile(data[:100], rids=list(range(500, 600)))
        [(_, rid), *_] = f.knn_batch(data[:1], 3)[0]
        assert rid == 500

    def test_invalid_inputs(self, data):
        f = FlatFile(data)
        with pytest.raises(ValueError):
            f.knn_batch(data[:2], 0)
        with pytest.raises(ValueError):
            f.knn_batch(np.zeros(5), 3)  # 1-D: not a batch

    def test_empty_batch_and_empty_file(self, data):
        assert FlatFile(data).knn_batch(np.empty((0, 5)), 3) == []
        f = FlatFile(np.empty((0, 3)))
        assert f.knn_batch(np.zeros((2, 3)), 3) == [[], []]


def make_points(rng, flavor, n, dim):
    if flavor == "normal":
        return rng.normal(size=(n, dim))
    if flavor == "grid":        # massive ties at every distance
        return rng.integers(0, 3, size=(n, dim)).astype(np.float64)
    if flavor == "duplicates":  # a handful of distinct rows
        return rng.normal(size=(4, dim))[rng.integers(0, 4, size=n)]
    return np.full((n, dim), 0.25)  # "equal"


class TestKernelMatchesOracle:
    """The blocked kernel against the full-matrix expression, bit for
    bit: distances, rids, tie order and padding."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           flavor=st.sampled_from(["normal", "grid", "duplicates", "equal"]),
           chunk=st.integers(1, 9), chunks=st.integers(0, 4),
           edge=st.integers(-1, 1), dim=st.integers(1, 8),
           num_q=st.integers(0, 5), k_small=st.integers(1, 4),
           k_near_n=st.one_of(st.none(), st.integers(-3, 3)),
           custom_rids=st.booleans(),
           per_pass=st.sampled_from([1, 3, flatfile.QUERIES_PER_PASS]))
    def test_differential(self, seed, flavor, chunk, chunks, edge, dim,
                          num_q, k_small, k_near_n, custom_rids, per_pass):
        rng = np.random.default_rng(seed)
        n = max(0, chunk * chunks + edge)
        points = make_points(rng, flavor, n, dim)
        rids = (rng.permutation(n) * 3 + 7).tolist() if custom_rids else None
        flat = FlatFile(points, rids=rids)
        queries = make_points(rng, flavor, num_q, dim)
        if n:  # every other query is a corpus point
            queries[::2] = points[rng.integers(0, n, size=len(queries[::2]))]
        k = k_small if k_near_n is None else max(1, n + k_near_n)
        # shrink the work buffers so a few rows span several chunks
        # and the survivor pool compacts many times; a small run size
        # cuts the block into several passes
        run = max(min(num_q, per_pass), 1)
        work = 8 * flat._registers * run * chunk
        with mock.patch.object(flatfile, "_WORK_BYTES", work), \
                mock.patch.object(flatfile, "QUERIES_PER_PASS", per_pass):
            assert_all_spellings_match(
                flat, queries, k, full_matrix_knn(points, queries, k, rids))

    @pytest.mark.parametrize("n", [4095, 4096, 4097, 3 * 4096 + 5])
    @pytest.mark.parametrize("flavor", ["normal", "grid"])
    def test_real_chunk_boundaries(self, n, flavor):
        # 32 queries put the chunk at 4096 columns
        rng = np.random.default_rng(n)
        points = make_points(rng, flavor, n, 5)
        queries = points[rng.choice(n, 32, replace=False)]
        assert FlatFile(points).knn_batch(queries, 200) == \
            full_matrix_knn(points, queries, 200)

    @pytest.mark.parametrize("dim", [8, 9, 16, 17, 128, 129, 218, 300])
    def test_wide_vectors_sum_in_numpy_order(self, dim):
        # from 8 terms up .sum(axis=-1) adds pairwise, not left to right
        rng = np.random.default_rng(dim)
        points = rng.normal(size=(400, dim)) \
            * 10.0 ** rng.integers(-3, 4, size=(400, dim))
        queries = points[:3] + rng.normal(size=(3, dim))
        assert_all_spellings_match(
            FlatFile(points), queries, 50,
            full_matrix_knn(points, queries, 50))

    def test_vector_layouts(self, data, tmp_path):
        queries, expected = data[:4], full_matrix_knn(data, data[:4], 25)
        wide = np.zeros((len(data), 12))
        wide[:, 3:8] = data
        read_only = data.copy()
        read_only.setflags(write=False)
        np.save(tmp_path / "vectors.npy", data)
        mapped = np.load(tmp_path / "vectors.npy", mmap_mode="r")
        for vectors in (wide[:, 3:8], np.asfortranarray(data),
                        np.repeat(data, 2, axis=0)[::2], read_only, mapped):
            assert FlatFile(vectors).knn_batch(queries, 25) == expected

    def test_two_squared_distances_share_a_sqrt_at_rank_k(self):
        # From the origin, (1.25, 0) is 1.5625 away squared and
        # (1.25, 2**-26) one ulp more, yet both distances round to
        # 1.25: the farther row ties the nearer one and, standing
        # first in the file, must take rank k from it.
        points = np.full((12, 2), 9.0)
        points[0] = (1.25, 2.0 ** -26)
        points[1] = (1.25, 0.0)
        points[5] = (0.0, 0.0)
        squared = (points ** 2).sum(axis=1)
        assert squared[0] > squared[1]
        assert np.sqrt(squared[0]) == np.sqrt(squared[1]) == 1.25
        expected = [(0.0, 5), (1.25, 0)]
        assert full_matrix_knn(points, np.zeros((1, 2)), 2) == [expected]
        assert_all_spellings_match(
            FlatFile(points), np.zeros((1, 2)), 2, [expected])

    def test_scan_allocates_no_full_matrix(self):
        # (32, 50000, 5) float64 is 64 MB and (32, 50000) 12.8 MB; the
        # blocked kernel needs its 2 MB of work buffers plus survivors.
        rng = np.random.default_rng(3)
        flat = FlatFile(rng.normal(size=(50_000, 5)))
        queries = rng.normal(size=(32, 5))
        tracemalloc.start()
        try:
            flat.knn_batch_arrays(queries, 200)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20


class TestIngress:
    """One check in front of all three entry points."""

    CALLS = [
        pytest.param(lambda f, q, k: f.knn_batch(q, k), id="knn_batch"),
        pytest.param(lambda f, q, k: f.knn_batch_arrays(q, k),
                     id="knn_batch_arrays"),
        pytest.param(lambda f, q, k: f.knn(q[0], k), id="knn")]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vectors_rejected(self, data, bad):
        data[17, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            FlatFile(data)

    @pytest.mark.parametrize("call", CALLS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_queries_rejected(self, data, call, bad):
        f = FlatFile(data)
        queries = data[:2].copy()
        queries[0, 4] = bad
        with pytest.raises(ValueError, match="finite"):
            call(f, queries, 3)
        assert f.pages_read == 0  # a refused call scans nothing

    @pytest.mark.parametrize("call", CALLS)
    def test_wrong_width_and_bad_k_rejected(self, data, call):
        f = FlatFile(data)
        for queries in (data[:2, :4], np.zeros((2, 6)), np.zeros((2, 1))):
            with pytest.raises(ValueError, match="dimensions"):
                call(f, queries, 3)
        for k in (0, -1):
            with pytest.raises(ValueError, match="positive"):
                call(f, data[:2], k)

    def test_rank_is_not_promoted(self, data):
        f = FlatFile(data)
        for batch in (f.knn_batch, f.knn_batch_arrays):
            with pytest.raises(ValueError, match="2-D"):
                batch(data[0], 3)
            with pytest.raises(ValueError, match="2-D"):
                batch(data[None, :2], 3)
        with pytest.raises(ValueError, match="1-D"):
            f.knn(data[:1], 3)


class TestIOAccounting:
    def test_pages_match_packing(self, data):
        f = FlatFile(data, page_size=8192)
        # 48-byte entries in an 8 KB page: 170 per page.
        assert f.entries_per_page == 170
        assert f.num_pages == int(np.ceil(3000 / 170))

    def test_every_query_scans_everything(self, data):
        f = FlatFile(data)
        f.knn(data[0], 5)
        f.knn(data[1], 5)
        assert f.pages_read == 2 * f.num_pages

    def test_scan_time_uses_sequential_cost(self, data):
        f = FlatFile(data, page_size=8192)
        model = DiskModel(page_size=8192)
        assert f.scan_time_ms(model) == pytest.approx(
            model.scan_ms(f.num_pages))

    def test_breakeven_reads_about_pages_over_ratio(self, data):
        f = FlatFile(data, page_size=8192)
        model = DiskModel(page_size=8192)
        budget = f.breakeven_random_reads(model)
        # Budget ~ pages / ratio (plus the scan's initial seek).
        expected = f.num_pages / model.random_to_sequential_ratio
        assert abs(budget - expected) <= 2

    def test_index_must_beat_the_budget(self, data):
        """The paper's actual decision rule, end to end."""
        from repro.core import build_index
        f = FlatFile(data, page_size=8192)
        tree = build_index(data, "rtree", page_size=8192)
        tree.store.stats.reset()
        tree.knn(data[0], 50)
        # At this scale the budget is tiny; just check both sides of
        # the comparison are computable and consistent.
        assert tree.store.stats.leaf_reads > 0
        assert f.breakeven_random_reads() >= 1
