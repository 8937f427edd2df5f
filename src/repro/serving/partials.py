"""Canonical per-shard partials and the deterministic global merge.

The single-tree engine's k-NN breaks ties at the k-th distance by
traversal push order ("broken arbitrarily", per :meth:`GiST.knn`) —
an order no other tree can reproduce, so shard partials merged naively
would disagree with an unsharded baseline whenever equal distances
straddle the cut.  The serving layer therefore speaks a stricter
contract: every partial is the shard's *canonical* top-k under the
total order ``(distance, rid)``.  Because shards hold disjoint rid
ranges, the union of per-shard canonical top-k lists contains the
global canonical top-k, so one merge-and-truncate reproduces exactly
what a single tree over the whole corpus would answer under the same
order — bit for bit, ties included.

:func:`canonical_knn_batch` upgrades a tree's arbitrary-tie answer to
the canonical one cheaply: fetch ``k + 1`` hits; if the k-th and
(k+1)-th distances differ, the top-k *set* is provably unique and a
re-sort by ``(distance, rid)`` canonicalizes it.  Only a genuine
boundary tie — equal distances straddling the cut — needs the exact
tie ring, enumerated with a :meth:`sphere_search` at the boundary
distance (the same leaf distance function as the k-NN,
:func:`repro.gist.nn.leaf_dists`, so the floats match bit for bit).
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

import numpy as np

#: one k-NN hit as the engine returns it
Hit = Tuple[float, int]


def canonical_knn_batch(tree: Any, queries: np.ndarray,
                        k: int) -> List[List[Hit]]:
    """Per-query top-``k`` of ``tree`` under the ``(distance, rid)``
    total order — the serving wire contract.

    Bit-identical distances to :meth:`tree.knn`; only the order (and,
    on boundary ties, the membership) of equal-distance hits changes,
    from traversal order to ascending rid.
    """
    queries = np.asarray(queries, dtype=np.float64)
    if len(queries) == 0:
        return []
    raw = tree.knn_batch(queries, k + 1)
    out: List[List[Hit]] = []
    for query, hits in zip(queries, raw):
        if len(hits) <= k:
            # The shard holds at most k entries: return them all.
            out.append(sorted(hits))
        elif hits[k][0] == hits[k - 1][0]:
            # Equal distances straddle the cut; the arbitrary-tie
            # answer may hold the wrong tie members.  Enumerate the
            # whole ring at the boundary distance and keep the
            # lowest-rid ties.
            out.append(_resolve_boundary(tree, query, hits[k - 1][0], k))
        else:
            # d_k < d_{k+1}: the top-k set is unique, only its
            # internal tie order needs canonicalizing.
            out.append(sorted(hits[:k]))
    return out


def _resolve_boundary(tree: Any, query: np.ndarray, boundary: float,
                      k: int) -> List[Hit]:
    """Canonical top-k when ties sit exactly at the k-th distance."""
    ring = tree.sphere_search(query, boundary)
    inner = sorted(h for h in ring if h[0] < boundary)
    ties = sorted(h for h in ring if h[0] == boundary)
    return (inner + ties)[:k]


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
