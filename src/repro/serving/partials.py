"""Per-shard partials and the deterministic global merge.

The serving layer speaks the engine's own contract: every partial is
the shard's *canonical* top-k under the total order ``(distance,
rid)``, which is what ``tree.knn_batch`` answers (ties at the k-th
distance go to the lowest rids).  Because shards hold disjoint rid
ranges, the union of per-shard canonical top-k lists contains the
global canonical top-k, so one merge-and-truncate reproduces exactly
what a single tree over the whole corpus would answer — bit for bit,
ties included.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

#: one k-NN hit as the engine returns it
Hit = Tuple[float, int]


def pack_partials(hits_list: Sequence[Sequence[Hit]],
                  width: int) -> Tuple[np.ndarray, np.ndarray]:
    """Partial rows as a padded ``(Q, width)`` array pair.

    Pickling two flat arrays costs two buffer copies regardless of Q;
    a list of tuple lists costs millions of object allocations.
    Padding is ``(+inf, -1)`` so padded cells sort after every real
    hit in the merge.
    """
    dists = np.full((len(hits_list), width), np.inf, dtype=np.float64)
    rids = np.full((len(hits_list), width), -1, dtype=np.int64)
    for i, hits in enumerate(hits_list):
        if len(hits) > width:
            raise ValueError(f"partial row {i} holds {len(hits)} hits, "
                             f"width is {width}")
        if hits:
            pairs = np.asarray(hits, dtype=np.float64)
            dists[i, :len(hits)] = pairs[:, 0]
            rids[i, :len(hits)] = pairs[:, 1]
    return dists, rids


def merge_topk(parts: Sequence[Tuple[np.ndarray, np.ndarray]],
               k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Merge per-shard packed partials into the global canonical top-k.

    ``parts`` is one ``(dists, rids)`` pair per shard, all with the
    same query count.  Rows are merged under ``(distance, rid)`` —
    ``np.lexsort`` with distance primary, rid secondary — and truncated
    to ``k``; rows with fewer than ``k`` real hits keep their
    ``(+inf, -1)`` padding.
    """
    if not parts:
        raise ValueError("nothing to merge")
    dists = np.concatenate([d for d, _ in parts], axis=1)
    rids = np.concatenate([r for _, r in parts], axis=1)
    order = np.lexsort((rids, dists), axis=-1)[:, :k]
    return (np.take_along_axis(dists, order, axis=-1),
            np.take_along_axis(rids, order, axis=-1))


def unpack_hits(dists: np.ndarray, rids: np.ndarray) -> List[List[Hit]]:
    """Padded arrays back to per-query hit lists (padding dropped)."""
    out: List[List[Hit]] = []
    for drow, rrow in zip(dists, rids):
        valid = rrow >= 0
        out.append([(float(d), int(r))
                    for d, r in zip(drow[valid], rrow[valid])])
    return out
