"""Hypothesis differential: the k-NN kernel against the reference loop.

Grid-valued points with many duplicates are where tie order and the
refinement re-queue bite, so that is what gets generated: every
family, both leaf codecs (quantized leaves ranked by ``tree.exact``),
dimensions 1-8, ``k`` at the edges (1, everything, more than
everything).  Each example compares the result lists and the counted
access traces of ``knn``, ``knn_batch`` and a cursor prefix with
``tests/gist/oracle.py``, and the results with the brute-force
canonical top k.
"""

import tempfile
from itertools import islice
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bulk import bulk_load
from repro.gist import batch as batch_mod
from repro.gist import knn_search_batch
from repro.storage.codecs import IndexEntryCodec
from repro.storage.page import page_payload

from tests.conftest import ALL_METHODS, make_ext
from tests.gist.oracle import brute_canonical
from tests.gist.oracle import knn_search as oracle_knn
from tests.gist.oracle import paged_tree, traced


def _page_size(ext) -> int:
    """The smallest page an inner node of ``ext`` fits three entries in,
    so that a hundred points already make a tree several levels deep."""
    entry = IndexEntryCodec(ext.pred_codec()).size
    size = 256
    while page_payload(size) < 3 * entry:
        size *= 2
    return size


@st.composite
def cases(draw):
    dim = draw(st.integers(1, 8))
    n = draw(st.integers(1, 90))
    cells = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    points = rng.integers(0, cells, size=(n, dim)).astype(np.float64)
    # queries on grid points (exact ties), between them, and outside
    queries = np.concatenate([
        points[rng.integers(0, n, size=3)],
        rng.integers(0, 2 * cells, size=(3, dim)) / 2.0,
        rng.normal(size=(2, dim)) * cells])
    return (draw(st.sampled_from(ALL_METHODS)),
            draw(st.sampled_from(["f64", "sq8"])),
            points, queries, draw(st.sampled_from([1, n, n + 5])))


@given(cases())
@settings(max_examples=120, deadline=None)
def test_kernel_matches_oracle(case):
    method, codec, points, queries, k = case
    ext = make_ext(method, points.shape[1])
    with tempfile.TemporaryDirectory() as scratch:
        if codec == "f64":
            tree = bulk_load(ext, points, page_size=_page_size(ext))
        else:       # only a decoded sq8 page has half widths
            tree = paged_tree(ext, points, str(Path(scratch) / "t.pages"),
                              _page_size(ext), codec)
        want = [traced(tree, lambda: oracle_knn(tree, q, k))
                for q in queries]
        rids = np.arange(len(points))
        assert [hits for hits, _ in want] == [
            brute_canonical(points, rids, q, k) for q in queries]
        assert [traced(tree, lambda: tree.knn(q, k))
                for q in queries] == want
        assert [traced(tree, lambda: list(islice(tree.nn_cursor(q), k)))
                for q in queries] == want
        # a listener cannot split a block's accesses by query: the block
        # books the oracle's per-query lists back to back
        want_block = ([hits for hits, _ in want],
                      [access for _, seen in want for access in seen])
        for block_size in (1, 7):
            with mock.patch.object(batch_mod, "DEFAULT_BLOCK_SIZE",
                                   block_size):
                assert traced(tree, lambda: knn_search_batch(
                    tree, queries, k)) == want_block
        if codec != "f64":
            tree.store.close()
