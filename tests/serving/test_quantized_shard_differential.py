"""Hypothesis differential: sq8 shard partials against one float64 tree.

A shard answers a ``knn`` request through :meth:`ShardServer.respond`,
the path both the forked daemon and the inline fallback shards run.
Its tree holds quantized (sq8) leaves and global rids, so it can rank
them only by the reduced matrix the server attaches as the tree's
``exact`` keys.  The shards' partials, merged by ``merge_topk``, must be
the canonical rows of one float64 tree over every point — bit-identical
distances, ties broken by rid — on every family, in 1 to 4 dimensions,
over an integer grid holding both exact duplicates and copies jittered
by 1e-5 (far inside one quantization cell).
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bulk import bulk_load
from repro.core.api import EXTENSIONS
from repro.serving import ShardServer, merge_topk, unpack_hits
from repro.storage.diskfile import FilePageFile
from repro.storage.fork import shard_bounds
from tests.conftest import make_ext


def page_for(method, dim):
    """The smallest page (from 1 KB) holding three inner entries."""
    page = 1024
    while page < 3 * make_ext(method, dim).pred_codec().size + 256:
        page *= 2
    return page


@st.composite
def cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    method = draw(st.sampled_from(sorted(EXTENSIONS)))
    dim = draw(st.integers(1, 4))
    cells = rng.integers(0, 5, size=(draw(st.integers(2, 12)), dim))
    points = np.repeat(cells.astype(np.float64),
                       draw(st.integers(10, 40)), axis=0)
    # Half the copies stay exact duplicates, half become near ties.
    near = rng.random(len(points)) < 0.5
    points[near] += rng.uniform(-1e-5, 1e-5, size=(int(near.sum()), dim))
    points = points[rng.permutation(len(points))]
    queries = np.concatenate([
        points[rng.integers(0, len(points), size=2)],
        rng.integers(0, 9, size=(2, dim)) / 2.0])
    return (method, points, queries, draw(st.integers(2, 3)),
            draw(st.integers(1, len(points) + 3)))


@given(cases())
@settings(max_examples=40, deadline=None)
def test_sq8_shard_partials_merge_to_the_f64_canonical_rows(case):
    method, points, queries, num_shards, k = case
    dim = points.shape[1]
    page = page_for(method, dim)
    whole = bulk_load(make_ext(method, dim), points, page_size=page)
    want = whole.knn_batch(queries, k)
    with tempfile.TemporaryDirectory() as scratch:
        parts, stores = [], []
        for sid, (lo, hi) in enumerate(shard_bounds(len(points),
                                                    num_shards)):
            ext = make_ext(method, dim)
            store = FilePageFile.for_extension(
                str(Path(scratch) / f"{sid}.pages"), ext, page_size=page,
                leaf_codec="sq8")
            stores.append(store)
            tree = bulk_load(ext, points[lo:hi], rids=np.arange(lo, hi),
                             page_size=page, store=store)
            server = ShardServer(sid, tree, points, pool_pages=0)
            reply = server.respond({"op": "knn", "queries": queries,
                                    "k": k})
            assert "error" not in reply, reply["error"]
            parts.append((reply["dists"], reply["rids"]))
        for store in stores:
            store.close()
    assert unpack_hits(*merge_topk(parts, k)) == want
