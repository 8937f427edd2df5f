"""Best-first nearest-neighbor search (Hjaltason & Samet): one kernel.

Nearest-neighbor queries behave like expanding-sphere range queries
(paper section 5, Figure 9): the search keeps a priority queue of tree
entries keyed by a lower bound on their distance to the query point and
expands them in nondecreasing order.  Every extension's ``min_dist`` is
a true lower bound, so the k-th result is exact.

:func:`best_first` is the only such traversal in this package:
``GiST.knn`` collects it, ``GiST.nn_cursor`` is the same generator with
no ``k``, :func:`repro.gist.batch.knn_search_batch` runs it per query
over a table of nodes the block already decoded, and
:func:`sphere_search`, the fixed-radius query, shares its leaf distance
function and bite screen.  It reproduces ``tests/gist/oracle.py`` (one
heap holding points beside nodes) in results and counted access order;
DESIGN.md section 7 has the argument.  In short:

- The heap holds node entries only.  Leaf candidates wait in arrays
  kept in ``(distance, push counter)`` order, and before the node item
  at the heap front is popped every waiting candidate with a smaller
  key is emitted.
- A quantized leaf is ranked by the tree's ``exact`` keys, so its
  distances are a float64 tree's bit for bit.
- JB/XJB entries are enqueued with the cheap MBR bound and refined when
  they surface, re-queued if the tight bound no longer wins — so only
  nodes an eager tight-bound search would read are read.  One
  ``refine_dists_node`` screen per expanded inner node precomputes most
  tight bounds; the scalar ``refine_dist`` runs for the NaN cells only.
- Once ``k`` candidates are known, nothing whose bound reaches the k-th
  distance ``tau`` is enqueued: it ranks behind ``k`` candidates with
  smaller counters and could not surface before the search ends.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Iterator, List, Optional, Tuple

import numpy as np

#: one result, as every spelling of the search returns it
Hit = Tuple[float, int]

#: a counted node read by (page id, expected level); None if quarantined
ReadNode = Callable[[int, int], Optional[Any]]


def check_queries(tree: Any, queries: Any, ndim: int,
                  k: int = 1) -> np.ndarray:
    """The one ingress check: ``k > 0`` and a finite float64 ``(dim,)``
    query (``ndim`` 1) or ``(Q, dim)`` block (``ndim`` 2)."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != ndim or queries.shape[-1] != tree.ext.dim:
        want = ("(dim,)", "(Q, dim)")[ndim - 1]
        raise ValueError(f"expected {want} with dim = {tree.ext.dim}, "
                         f"got shape {queries.shape}")
    if not np.isfinite(queries).all():
        raise ValueError("queries must be finite (no NaN or inf)")
    return queries


def _exact(tree: Any) -> np.ndarray:
    """``tree.exact``, or a ValueError on a tree queried without it."""
    if tree.exact is None:
        raise ValueError("a quantized tree ranks its leaves by GiST.exact; "
                         "attach the (N, dim) keys by rid before querying")
    return tree.exact


def leaf_dists(tree: Any, node: Any, q: np.ndarray) -> np.ndarray:
    """Distance from ``q`` to every key of a non-empty leaf of ``tree``.

    A quantized leaf holds cell centers, so it is ranked by
    ``tree.exact[rids]`` instead, through the same float64 expression:
    its distances are a float64 tree's bit for bit.
    """
    keys = node.keys_array() if node.key_halfwidths() is None \
        else _exact(tree)[node.rid_array()]
    return np.sqrt(((keys - q) ** 2).sum(axis=1))


def _entry_bounds(ext: Any, node: Any, q: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Cheap and tight bounds of an inner node's entries; a tight bound
    the extension's screen did not resolve is NaN."""
    dists = ext.min_dists_node(node, q)
    if not ext.has_refinement:
        return dists, dists
    return dists, ext.refine_dists_node(node, q[None], dists[None])[0]


def best_first(tree: Any, q: np.ndarray, k: Optional[int],
               read: ReadNode) -> Iterator[Hit]:
    """Yield ``(distance, rid)`` pairs in nondecreasing distance order.

    ``q`` is a checked ``(dim,)`` query; ``k`` of None never stops
    early.  Every node comes from ``read``, and none is read before the
    results that precede it have been yielded.
    """
    if tree.root_id is None:
        return
    if tree.leaf_codec.lossy:
        _exact(tree)                # refuse before the first read
    ext = tree.ext
    # (bound, counter, page_id, level, parent, index, tight); an item
    # with no parent is already refined.
    heap: List[tuple] = [(0.0, 0, tree.root_id, tree.height - 1, None, 0, 0.0)]
    counter = 1
    cand_d = np.empty(0, dtype=np.float64)
    cand_c = cand_r = np.empty(0, dtype=np.int64)
    first = math.inf                # cand_d[0]; inf while nothing waits
    need = math.inf if k is None else k     # results still owed
    topk = cand_d                   # the k smallest distances seen, sorted
    tau: Optional[float] = None     # the k-th of them, once there are k

    while True:
        if not heap:
            ready = len(cand_d)
        elif first > heap[0][0]:
            ready = 0
        else:
            bound, tick = heap[0][0], heap[0][1]
            ready = int(cand_d.searchsorted(bound, "left"))
            ties = int(cand_d.searchsorted(bound, "right"))
            if ties > ready:
                ready += int(cand_c[ready:ties].searchsorted(tick))
        if ready:
            ready = min(ready, need)
            yield from zip(cand_d[:ready].tolist(), cand_r[:ready].tolist())
            cand_d, cand_c, cand_r = \
                cand_d[ready:], cand_c[ready:], cand_r[ready:]
            first = float(cand_d[0]) if len(cand_d) else math.inf
            need -= ready
        if not heap or need == 0:
            return

        bound, _, page_id, level, parent, index, tight = heapq.heappop(heap)
        if parent is not None:
            if tight != tight:      # NaN: the screen left it to the scalar
                tight = ext.refine_dist(parent.pred_at(index), q, bound)
            if tau is not None and tight >= tau:
                continue
            if tight > first or (heap and tight > heap[0][0]):
                heapq.heappush(heap, (float(tight), counter, page_id, level,
                                      None, 0, 0.0))
                counter += 1
                continue

        node = read(page_id, level)
        if node is None or not len(node):
            continue
        if node.is_leaf:
            dists, rids = leaf_dists(tree, node, q), node.rid_array()
            if tau is not None:
                kept = (dists < tau).nonzero()[0]
                dists, rids = dists[kept], rids[kept]
            # Counters only grow, so a stable sort on distance alone
            # leaves the merged arrays in (distance, counter) order.
            cand_d = np.concatenate((cand_d, dists))
            order = cand_d.argsort(kind="stable")
            cand_d = cand_d[order]
            cand_c = np.concatenate(
                (cand_c, np.arange(counter, counter + len(dists))))[order]
            cand_r = np.concatenate((cand_r, rids))[order]
            counter += len(dists)
            first = float(cand_d[0]) if len(cand_d) else math.inf
            if k is not None:
                topk = np.sort(np.concatenate((topk, dists)))[:k]
                if len(topk) == k:
                    tau = float(topk[-1])
        else:
            dists, tights = _entry_bounds(ext, node, q)
            kept = range(len(dists)) if tau is None \
                else (dists < tau).nonzero()[0].tolist()
            bounds, children = dists.tolist(), node.children()
            hints = bounds if tights is dists else tights.tolist()
            owner = None if tights is dists else node
            for i in kept:
                heapq.heappush(heap, (bounds[i], counter, children[i],
                                      node.level - 1, owner, i, hints[i]))
                counter += 1


def knn_search(tree: Any, query: np.ndarray, k: int) -> List[Hit]:
    """The ``k`` nearest leaf keys to ``query`` as ``(distance, rid)``,
    read through the tree's counting path."""
    query = check_queries(tree, query, 1, k)
    return list(best_first(tree, query, k, tree._read_query))


def nn_cursor(tree: Any, query: np.ndarray) -> Iterator[Hit]:
    """Yield ``(distance, rid)`` pairs in nondecreasing distance order.

    ``knn`` needs k fixed up front, but Blobworld's real contract is
    "retrieve the nearest blobs until 200 distinct *images* have been
    seen" (paper section 3).  The cursor is :func:`best_first` with no
    ``k``: the consumer decides when to stop, and page accesses accrue
    only as far as it is advanced.  A prefix equals the ``knn`` of that
    length unless a refined bound ties ``tau`` exactly (DESIGN.md
    section 7).
    """
    query = check_queries(tree, query, 1)
    return best_first(tree, query, None, tree._read_query)


def sphere_search(tree: Any, center: np.ndarray, radius: float) -> List[Hit]:
    """All stored keys within ``radius`` of ``center``, as (dist, rid).

    The fixed-radius form of the query (paper section 5: NN queries
    are "in essence asking expanding sphere queries"): a subtree can
    hold matches only if the extension's lower bound does not exceed
    the radius.  Leaves go through :func:`leaf_dists`, so both the
    distances and the membership test are the ones ``knn`` reports.
    """
    center = check_queries(tree, center, 1)
    if tree.root_id is None:
        return []
    if tree.leaf_codec.lossy:
        _exact(tree)
    ext = tree.ext
    # A subtree's bound and a key's distance come from different float
    # kernels, so a key at exactly ``radius`` can sit under a bound an
    # ulp above it: subtrees are pruned only past a few ulps of slack,
    # and the leaf test stays exact.
    reach = radius * (1.0 + 16 * np.finfo(np.float64).eps)
    results: List[Hit] = []
    stack = [(tree.root_id, tree.height - 1)]
    while stack:
        node = tree._read_query(*stack.pop())
        if node is None or not len(node):
            continue
        if node.is_leaf:
            dists = leaf_dists(tree, node, center)
            inside = np.flatnonzero(dists <= radius)
            results.extend(zip(dists[inside].tolist(),
                               node.rid_array()[inside].tolist()))
            continue
        dists, tights = _entry_bounds(ext, node, center)
        children = node.children()
        for i in np.flatnonzero(dists <= reach).tolist():
            tight = tights[i]
            if tight != tight:
                tight = ext.refine_dist(node.pred_at(i), center, dists[i])
            if tight <= reach:
                stack.append((children[i], node.level - 1))
    return results
