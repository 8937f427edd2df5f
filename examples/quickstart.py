#!/usr/bin/env python
"""Quickstart: index a Blobworld corpus and run content-based queries.

Builds a synthetic blob corpus, reduces the 218-dimensional color
descriptors to the paper's 5 indexed dimensions, bulk-loads the paper's
XJB access method, and answers a query both ways: through the index
(fast) and by full Blobworld ranking (exact), reporting their agreement.

Run:  python examples/quickstart.py
"""

import time

import numpy as np

from repro.blobworld import BlobworldEngine, build_corpus
from repro.blobworld.query import recall
from repro.core import build_index
from repro.gist import validate_tree


def main():
    print("=== 1. Build a blob corpus (the paper uses 221,231 blobs; "
          "we sample a scaled corpus) ===")
    t0 = time.time()
    corpus = build_corpus(num_blobs=10_000, num_images=1_600, seed=0)
    print(f"  {corpus.num_blobs} blobs across {corpus.num_images} images "
          f"({time.time() - t0:.1f}s)")

    print("\n=== 2. SVD-reduce descriptors to 5 dimensions (section 3) ===")
    vectors = corpus.reduced(5)
    energy = corpus.reducer.explained_energy(5)
    print(f"  218-D histograms -> {vectors.shape[1]}-D vectors "
          f"({energy:.0%} of embedded energy)")

    print("\n=== 3. Bulk-load an XJB index (sections 3.2 and 5.3) ===")
    t0 = time.time()
    tree = build_index(vectors, method="xjb")
    validate_tree(tree, expected_size=corpus.num_blobs)
    print(f"  height {tree.height}, {tree.num_nodes()} nodes, "
          f"leaf fanout {tree.leaf_capacity}, "
          f"index fanout {tree.index_capacity} ({time.time() - t0:.1f}s)")

    print("\n=== 4. Query: 200 nearest blobs -> top 40 images "
          "(Figure 2) ===")
    engine = BlobworldEngine(corpus)
    query_blobs = corpus.sample_query_blobs(10, seed=3)

    t0 = time.time()
    via_index = [engine.am_query(tree, q, num_blobs=200, dims=5)
                 for q in query_blobs]
    t_index = (time.time() - t0) / len(query_blobs)
    leaf_ios = tree.stats.leaf_reads / len(query_blobs)

    t0 = time.time()
    exact = [engine.full_query(q) for q in query_blobs]
    t_full = (time.time() - t0) / len(query_blobs)

    recalls = [recall(e, v) for e, v in zip(exact, via_index)]
    own_first = [v[0] == int(corpus.image_ids[q])
                 for q, v in zip(query_blobs, via_index)]
    print(f"  index path: {t_index * 1e3:.1f} ms/query, "
          f"{leaf_ios:.1f} leaf page reads/query")
    print(f"  full ranking: {t_full * 1e3:.1f} ms/query over all "
          f"{corpus.num_blobs} blobs")
    print(f"  mean recall of index path vs full ranking: "
          f"{np.mean(recalls):.2f}")
    print(f"  query blob's own image ranked first: "
          f"{sum(own_first)}/{len(own_first)} queries")


if __name__ == "__main__":
    main()
