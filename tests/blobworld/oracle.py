"""Stage-two references, kept as the oracles of the padded rank kernel.

Two spellings ``repro.blobworld.query`` carried before stage two was
folded into one padded kernel, moved here verbatim: the scalar dict
loop that ranks images by ``(best distance, first occurrence)`` and the
three-branch ``rerank_batch`` (all empty, uniform, ragged).  The only edit is that ``rerank_batch_ref`` takes
the engine as an argument and aggregates with the dict loop, which the
vectorized kernel it called was tested bit-identical to.  Nothing under
``src/`` imports this module.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.constants import FULL_QUERY_RESULT_IMAGES


def _top_images_from_blobs_ref(blob_indices: np.ndarray,
                               blob_distances: np.ndarray,
                               image_ids: np.ndarray,
                               top_images: int) -> List[int]:
    """Scalar reference for the image aggregation.

    Kept verbatim (dict loop, strict-`<` update, stable value sort) as
    the semantic spec the vectorized kernel is tested bit-identical
    against, ties included.
    """
    best: dict = {}
    for blob, dist in zip(blob_indices, blob_distances):
        image = int(image_ids[blob])
        if image not in best or dist < best[image]:
            best[image] = dist
    ranked = sorted(best, key=best.get)
    return ranked[:top_images]


def rerank_batch_ref(engine, query_blobs: Sequence[int],
                     candidate_lists: Sequence[np.ndarray],
                     top_images=None) -> List[List[int]]:
    """The three-branch ``rerank_batch``: one ``(Q, n, full_dim)``
    kernel for uniform blocks, per-query kernels for ragged ones."""
    if top_images is None:
        top_images = FULL_QUERY_RESULT_IMAGES
    if not len(candidate_lists):
        return []
    emb = engine.corpus.embedded
    lengths = {len(c) for c in candidate_lists}
    if lengths == {0}:
        sorted_cands: Sequence = candidate_lists
        sorted_dists: Sequence = candidate_lists
    elif len(lengths) == 1:
        cands = np.asarray(candidate_lists, dtype=np.intp)
        diff = emb[cands] \
            - emb[np.asarray(query_blobs, dtype=np.intp)][:, None, :]
        dists = (diff * diff).sum(axis=-1)
        orders = np.argsort(dists, kind="stable", axis=-1)
        sorted_cands = np.take_along_axis(cands, orders, axis=-1)
        sorted_dists = np.take_along_axis(dists, orders, axis=-1)
    else:
        sorted_cands, sorted_dists = [], []
        for blob, candidates in zip(query_blobs, candidate_lists):
            diff = emb[candidates] - emb[blob]
            dists = (diff * diff).sum(axis=1)
            order = np.argsort(dists, kind="stable")
            sorted_cands.append(candidates[order])
            sorted_dists.append(dists[order])
    image_ids = engine.corpus.image_ids
    return [_top_images_from_blobs_ref(c, d, image_ids, top_images)
            for c, d in zip(sorted_cands, sorted_dists)]
