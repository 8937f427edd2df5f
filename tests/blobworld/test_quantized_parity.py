"""SQ8 serving parity: quantized top-k == float64 top-k after rerank.

The quantized index is lossy in reduced space — reconstructions sit up
to half a quantization cell from the originals — but the serving
pipeline restores exactness: lossy fetches are overscanned, refined
against the exact in-memory reduced vectors, and the 218-D rerank runs
on the same candidate set the float64 tree would produce.  These tests
pin that end-to-end guarantee for every registered AM family, and keep
it through the mutation paths: MutableTree insert/delete round trips
and WAL crash recovery.  The last test routes blocks over a quantized
page file through a real :class:`~repro.gist.planner.QueryPlanner`.
"""

import numpy as np
import pytest

from repro.ams.flatfile import FlatFile
from repro.analysis import deep_scrub
from repro.blobworld import BlobworldEngine, build_corpus
from repro.bulk import bulk_load
from repro.constants import INDEX_DIMENSIONS
from repro.core.api import EXTENSIONS
from repro.gist.mutable import MutableTree
from repro.gist.persist import load_tree, save_tree
from repro.gist.planner import QueryPlanner
from repro.storage.buffer import BufferPool
from repro.storage.codecs import make_leaf_codec
from tests.conftest import make_ext
from tests.gist.oracle import paged_tree

METHODS = sorted(EXTENSIONS)  # all seven registered families
K = 60
DIMS = INDEX_DIMENSIONS
# Big enough for a JB inner entry (bitten rects run >1 KB at dim 5).
PAGE = 4096


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(num_blobs=600, num_images=120, seed=17)


@pytest.fixture(scope="module")
def vectors(corpus):
    return corpus.reduced(DIMS)


@pytest.fixture(scope="module")
def stream(corpus):
    rng = np.random.default_rng(23)
    return [int(b) for b in rng.choice(corpus.num_blobs, size=24)]


def build_pair(method, vectors, tmp_path, rids=None):
    """An f64 in-memory tree and a *loaded* sq8 tree over ``vectors``.

    The sq8 side goes through a save/load round trip on purpose: only a
    decoded quantized page yields reconstructed keys — an in-memory
    build keeps exact float64 keys and would test nothing.
    """
    n = len(vectors)
    f64 = bulk_load(make_ext(method, DIMS), vectors, rids=rids,
                    page_size=PAGE)
    sq8 = bulk_load(make_ext(method, DIMS), vectors, rids=rids,
                    page_size=PAGE,
                    leaf_codec=make_leaf_codec("sq8", DIMS))
    path = str(tmp_path / f"{method}-sq8.amdb")
    save_tree(sq8, path)
    loaded = load_tree(path=path)
    assert loaded.leaf_codec.lossy, "codec id must survive the superblock"
    return f64, loaded, path


def serve(corpus, tree, stream):
    return BlobworldEngine(corpus).am_query_batch(tree, stream, K, DIMS)


# ---------------------------------------------------------------------------
# the seven families, fresh builds
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("method", METHODS)
def test_post_rerank_parity(method, corpus, vectors, stream, tmp_path):
    f64, sq8, path = build_pair(method, vectors, tmp_path)
    # The loaded leaves really are reconstructions, not the originals.
    leaf = next(sq8.leaf_nodes())
    assert leaf.key_halfwidths() is not None
    assert serve(corpus, sq8, stream) == serve(corpus, f64, stream)
    # Scalar path agrees too (it shares the overscan + refine stage).
    engine_f64, engine_sq8 = (BlobworldEngine(corpus) for _ in range(2))
    for blob in stream[:6]:
        assert engine_sq8.am_query(sq8, blob, K, DIMS) \
            == engine_f64.am_query(f64, blob, K, DIMS)


# ---------------------------------------------------------------------------
# through MutableTree insert/delete
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("method", METHODS)
def test_parity_survives_insert_delete(method, corpus, vectors, stream,
                                       tmp_path):
    base = 520
    rids = list(range(base))
    f64, _, path = build_pair(method, vectors[:base], tmp_path, rids=rids)

    deleted = list(range(0, 40))
    added = list(range(base, 560))
    with MutableTree.open(path) as mt:
        for rid in added:
            mt.insert(vectors[rid], rid)
            f64.insert(vectors[rid], rid)
        for rid in deleted:
            assert mt.delete(vectors[rid], rid)
            assert f64.delete(vectors[rid], rid)
        assert serve(corpus, mt.tree, stream) == serve(corpus, f64, stream)

    # The closed file still deep-scrubs clean and serves identically.
    report = deep_scrub(path)
    assert report.clean, report.format()
    assert serve(corpus, load_tree(path=path), stream) \
        == serve(corpus, f64, stream)


# ---------------------------------------------------------------------------
# through WAL crash recovery
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("method", ["rtree", "xjb"])
def test_parity_survives_crash_recovery(method, corpus, vectors, stream,
                                        tmp_path):
    """Kill mid-apply, recover, and check the survivor set serves the
    same answers as a float64 tree built over exactly those blobs."""
    from repro.storage.faults import CrashError, CrashInjector, CrashPoint

    base = 500
    _, _, path = build_pair(method, vectors[:base], tmp_path,
                            rids=list(range(base)))

    injector = CrashInjector(CrashPoint(point="mid-apply", after=6,
                                        torn=0.5))
    mt = MutableTree.open(path, injector=injector)
    with pytest.raises(CrashError):
        for rid in range(base, 600):
            mt.insert(vectors[rid], rid)
    mt.close()

    with MutableTree.open(path) as mt2:
        assert mt2.recovery.transactions_applied >= 1
        survivors = sorted(
            rid for leaf in mt2.tree.leaf_nodes() for rid in leaf.rids())
    assert base <= len(survivors) < 600
    assert survivors == sorted(set(survivors)), "recovery duplicated rids"

    report = deep_scrub(path)
    assert report.clean, report.format()

    recovered = load_tree(path=path)
    assert recovered.leaf_codec.lossy
    baseline = bulk_load(make_ext(method, DIMS), vectors[survivors],
                         rids=survivors, page_size=PAGE)
    assert serve(corpus, recovered, stream) == serve(corpus, baseline,
                                                     stream)


# ---------------------------------------------------------------------------
# planner routing over a quantized page file
# ---------------------------------------------------------------------------

def test_planner_routes_blocks_over_sq8_tree(tmp_path):
    """One query prices below the flat scan and descends the tree; the
    whole stream as one block prices above it and scans.  Either way the
    images are the unplanned tree answer (the rerank absorbs the scan's
    tie order), and the profile hears one plan per block with the pages
    it estimated and the pages the chosen route then read.

    20,000 blobs behind a pool that holds the whole index: a lone query
    pays a full pass of the scan, which then costs more than the few
    resident leaves a descent scores; shared by 32 queries the pass
    costs less than 32 descents."""
    corpus = build_corpus(num_blobs=20_000, num_images=3_300, seed=29)
    vectors = corpus.reduced(DIMS)
    rng = np.random.default_rng(31)
    stream = [int(b) for b in rng.choice(corpus.num_blobs, size=32,
                                         replace=False)]
    tree = paged_tree(make_ext("rtree", DIMS), vectors,
                      str(tmp_path / "sq8.pages"), 8192, "sq8")
    tree.store = BufferPool(tree.store, tree.num_nodes())
    planner = QueryPlanner(tree, FlatFile(vectors))
    noted = []

    class Profile:
        def add(self, stage, seconds):
            pass

        def note_plan(self, plan, actual_pages):
            noted.append((plan, actual_pages))

    engine = BlobworldEngine(corpus)
    reference = engine.am_query_batch(tree, stream, K, DIMS)
    tree.store.clear()  # so the planned descent reads pages again
    single = engine.am_query_batch(tree, stream[:1], K, DIMS,
                                   profile=Profile(), planner=planner)
    bulk = engine.am_query_batch(tree, stream, K, DIMS,
                                 profile=Profile(), planner=planner)
    tree.store.close()

    assert [plan.choice for plan, _ in noted] == ["tree", "scan"]
    assert single == reference[:1]
    assert bulk == reference
    (tree_plan, tree_pages), (scan_plan, scan_pages) = noted
    assert tree_plan.est_tree_pages > 0 and tree_pages > 0
    assert scan_plan.est_scan_pages > 0 and scan_pages > 0
