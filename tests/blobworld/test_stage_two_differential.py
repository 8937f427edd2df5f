"""Hypothesis differential: the padded stage-two kernel against the
spellings it replaced (``tests/blobworld/oracle.py``).

Integer-grid descriptors make exact distance ties common, a handful of
images makes many blobs share one, and candidates are drawn with
replacement, so tie order, first-occurrence aggregation and repeated
candidates all bite.  Rows are ragged, empty rows included; ``top``
sits at the edges (1, every image, more than every image).
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blobworld import BlobworldEngine
from repro.blobworld.query import _top_images

from tests.blobworld.oracle import _top_images_from_blobs_ref, rerank_batch_ref


@st.composite
def blocks(draw):
    """A tiny grid-valued corpus and a ragged block of candidate rows."""
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(1, 60))
    dim = draw(st.integers(1, 8))
    cells = draw(st.integers(2, 4))
    num_images = draw(st.integers(1, 8))
    corpus = SimpleNamespace(
        embedded=rng.integers(0, cells, size=(n, dim)).astype(np.float64),
        image_ids=rng.integers(0, num_images, size=n).astype(np.int64),
        num_blobs=n)
    lengths = rng.integers(0, 2 * n, size=draw(st.integers(1, 6)))
    if draw(st.booleans()):
        lengths[:] = lengths[0]         # uniform blocks, all-empty included
    rows = [rng.integers(0, n, size=m).astype(np.intp) for m in lengths]
    queries = [int(q) for q in rng.integers(0, n, size=len(rows))]
    top = draw(st.sampled_from([1, num_images, num_images + 5]))
    return corpus, queries, rows, top


@given(blocks())
@settings(max_examples=120, deadline=None)
def test_rerank_batch_matches_three_branch_oracle(case):
    corpus, queries, rows, top = case
    engine = BlobworldEngine(corpus)
    want = rerank_batch_ref(engine, queries, rows, top)
    assert engine.rerank_batch(queries, rows, top) == want
    assert [engine.rerank(q, row, top)
            for q, row in zip(queries, rows)] == want


@given(blocks(), st.integers(0, 2 ** 16))
@settings(max_examples=120, deadline=None)
def test_first_appearance_matches_dict_loop(case, seed):
    """On distance-sorted rows, distinct images in order of first
    appearance are the ``(best distance, first occurrence)`` ranking."""
    corpus, _queries, rows, top = case
    rng = np.random.default_rng(seed)
    width = max(len(row) for row in rows)
    padded = np.full((len(rows), width), -1, dtype=np.intp)
    want = []
    for i, row in enumerate(rows):
        padded[i, :len(row)] = row
        dists = np.sort(rng.integers(0, 4, size=len(row)).astype(float))
        want.append(_top_images_from_blobs_ref(row, dists,
                                               corpus.image_ids, top))
    assert _top_images(padded, corpus.image_ids, top) == want
