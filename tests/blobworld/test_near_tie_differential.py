"""Hypothesis differential: exact stage one on quantized leaves.

Near-tie data in the shape of the probe that found the old overscan +
refine stage one wrong: a few points of a 10-per-axis integer grid, each
copied many times and jittered by 1e-5, in 1 to 8 dimensions.  A
quantization cell is thousands of times wider than the jitter, so a
cell lower bound cannot tell the copies of a grid point apart and any
cut by lower bound lands inside a tie ring.  Ranking quantized leaves by
the exact vectors attached to the tree (``GiST.exact``) must give back
brute force's k smallest distances, bit for bit, on every family — on a
freshly loaded sq8 page file and after MutableTree inserts and deletes
(opened with the same vectors) — and the engine must hand
``rerank_batch`` brute force's top-n rows.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blobworld import BlobworldEngine
from repro.bulk import bulk_load
from repro.core.api import EXTENSIONS
from repro.gist.mutable import MutableTree
from repro.gist.persist import load_tree, save_tree
from repro.storage.codecs import make_leaf_codec
from tests.conftest import make_ext

METHODS = sorted(EXTENSIONS)


def grid_copies(rng, dim, points, copies):
    """``points`` grid points, ``copies`` jittered copies of each."""
    cells = rng.integers(0, 10, size=(points, dim)).astype(np.float64)
    keys = np.repeat(cells, copies, axis=0)
    return keys + rng.uniform(-1e-5, 1e-5, size=keys.shape)


def page_for(method, dim):
    """The smallest page (from 2 KB) holding three inner entries: a JB
    predicate carries 2^dim bites."""
    page = 2048
    while page < 3 * make_ext(method, dim).pred_codec().size + 256:
        page *= 2
    return page


def brute(vectors, live, query):
    """Every live row's distance, by the leaf kernel's expression."""
    return np.sqrt(((vectors[live] - query) ** 2).sum(axis=1))


@st.composite
def cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    method = draw(st.sampled_from(METHODS))
    dim = draw(st.integers(1, 8))
    base = grid_copies(rng, dim, draw(st.integers(2, 8)),
                       draw(st.integers(40, 160)))
    added = grid_copies(rng, dim, 2, draw(st.integers(0, 30)))
    return (rng, method, dim, np.concatenate([base, added]), len(base),
            draw(st.booleans()))


@given(cases())
@settings(max_examples=60, deadline=None)
def test_exact_sq8_stage_one_on_near_ties(tmp_path_factory, case):
    rng, method, dim, vectors, n, mutate = case
    page = page_for(method, dim)
    f64 = bulk_load(make_ext(method, dim), vectors[:n], page_size=page)
    path = str(tmp_path_factory.mktemp("sq8") / "t.amdb")
    save_tree(bulk_load(make_ext(method, dim), vectors[:n], page_size=page,
                        leaf_codec=make_leaf_codec("sq8", dim)), path)
    live = np.arange(n)
    mt = None
    if mutate:
        mt = MutableTree.open(path, exact=vectors)
        for rid in range(n, len(vectors)):
            mt.insert(vectors[rid], rid)
            f64.insert(vectors[rid], rid)
        gone = rng.choice(n, size=n // 4, replace=False)
        for rid in gone.tolist():
            assert mt.delete(vectors[rid], rid)
            assert f64.delete(vectors[rid], rid)
        live = np.setdiff1d(np.arange(len(vectors)), gone)
        sq8 = mt.tree
    else:
        sq8 = load_tree(path=path)
        assert next(sq8.leaf_nodes()).key_halfwidths() is not None
        sq8.exact = vectors
    try:
        for query in (vectors[rng.choice(live)],
                      rng.uniform(-1.0, 10.0, size=dim)):
            k = int(rng.integers(1, len(live) + 1))
            want = np.sort(brute(vectors, live, query))[:k].tolist()
            assert [d for d, _ in sq8.knn(query, k)] == want
            assert [d for d, _ in f64.knn(query, k)] == want

        corpus = SimpleNamespace(
            reduced=lambda dims: vectors,
            embedded=rng.normal(size=(len(vectors), 6)),
            image_ids=rng.integers(0, 12, size=len(vectors)),
            num_blobs=len(vectors))
        engine = BlobworldEngine(corpus)
        handed = []
        rerank_batch = engine.rerank_batch

        def capture(blobs, rows, *args, **kwargs):
            handed.extend(zip(blobs, rows))
            return rerank_batch(blobs, rows, *args, **kwargs)

        engine.rerank_batch = capture
        blobs = rng.choice(live, size=3, replace=False).tolist()
        num = int(rng.integers(1, len(live) + 1))
        engine.am_query_batch(sq8, blobs, num, dim)
        engine.am_query(sq8, blobs[0], num, dim)
        assert len(handed) == 4
        for blob, row in handed:
            dists = brute(vectors, live, vectors[blob])
            order = np.argsort(dists, kind="stable")
            got = np.sqrt(((vectors[row] - vectors[blob]) ** 2).sum(axis=1))
            assert np.sort(got).tolist() == dists[order[:num]].tolist()
            if num == len(live) or dists[order[num - 1]] < dists[order[num]]:
                assert set(row.tolist()) == set(live[order[:num]].tolist())
    finally:
        if mt is not None:
            mt.close()
