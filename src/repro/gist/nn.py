"""Best-first nearest-neighbor search (Hjaltason & Samet): one kernel.

Nearest-neighbor queries behave like expanding-sphere range queries
(paper section 5, Figure 9): the search keeps a priority queue of tree
entries keyed by a lower bound on their distance to the query point and
expands them in nondecreasing order.  Every extension's bound is a
lower bound up to :func:`slack`, so the answer is exact.

:func:`best_first` is the only such traversal in this package:
``GiST.knn`` collects it, ``GiST.nn_cursor`` is the same generator with
no ``k``, and :func:`repro.gist.batch.knn_search_batch` runs it per
query over a table of nodes the block already decoded.  It emits the
canonical order, ``(distance, rid)`` with ties broken by rid, and
reproduces ``tests/gist/oracle.py`` (one heap holding points beside
nodes) in results and counted access order; DESIGN.md section 7 has
the argument.  In short:

- The heap holds node entries only.  Leaf candidates wait in arrays
  kept in ``(distance, rid)`` order, and a candidate is emitted once
  its distance is below the heap front's bound by more than the slack:
  no key still unread can tie it.
- A quantized leaf is ranked by the tree's ``exact`` keys, so its
  distances are a float64 tree's bit for bit.
- JB/XJB entries are enqueued with the cheap MBR bound and refined when
  they surface, re-queued if the tight bound no longer wins — so only
  nodes an eager tight-bound search would read are read.  One
  ``refine_dists_node`` screen per expanded inner node precomputes most
  tight bounds; the scalar ``refine_dist`` runs for the NaN cells only.
- Once ``k`` candidates are known, with ``tau`` the k-th smallest
  distance among them, a leaf key is kept while its distance is at most
  ``tau`` and a node while its bound lowered by the slack is: nothing
  dropped could enter the canonical top k, or be read before the k-th
  result is out.
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

#: machine epsilons of bound slack per key dimension; DESIGN.md
#: section 7 shows a computed subtree bound exceeds the computed
#: distance of a key it holds by less than half of :func:`slack`.
SLACK_ULPS = 16


def slack(dim: int) -> float:
    """The relative rounding slack of a ``dim``-dimensional tree's
    bounds: a bound ``b`` lowered to ``b * (1 - slack)`` is at most the
    distance of any key its subtree holds.  A multiple of 2**-48, so
    ``1 - slack`` is exact."""
    return SLACK_ULPS * dim * 2.0 ** -52    # 2**-52: float64 epsilon


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
    """Yield ``(distance, rid)`` pairs in ``(distance, rid)`` order.

    ``q`` is a checked ``(dim,)`` query; ``k`` of None never stops
    early.  Every node comes from ``read``, and none is read before the
    results that precede it have been yielded.
    """
    if tree.root_id is None:
        return
    if tree.leaf_codec.lossy:
        _exact(tree)                # refuse before the first read
    ext = tree.ext
    shrink = 1.0 - slack(ext.dim)   # a bound times this is a key's floor
    # (bound, counter, page_id, level, parent, index, tight); an item
    # with no parent is already refined.
    heap: List[tuple] = [(0.0, 0, tree.root_id, tree.height - 1, None, 0, 0.0)]
    counter = 1
    cand_d = np.empty(0, dtype=np.float64)
    cand_r = np.empty(0, dtype=np.int64)
    first = math.inf                # cand_d[0]; inf while nothing waits
    need = math.inf if k is None else k     # results still owed
    topk = cand_d                   # the k smallest distances seen, sorted
    tau = math.inf                  # the k-th of them, once there are k

    while True:
        if not heap:
            ready = len(cand_d)
        elif first < heap[0][0] * shrink:
            ready = int(cand_d.searchsorted(heap[0][0] * shrink, "left"))
        else:
            ready = 0
        if ready:
            ready = min(ready, need)
            yield from zip(cand_d[:ready].tolist(), cand_r[:ready].tolist())
            cand_d, cand_r = cand_d[ready:], cand_r[ready:]
            first = float(cand_d[0]) if len(cand_d) else math.inf
            need -= ready
        if not heap or need == 0:
            return

        bound, _, page_id, level, parent, index, tight = heapq.heappop(heap)
        if parent is not None:
            if tight != tight:      # NaN: the screen left it to the scalar
                tight = ext.refine_dist(parent.pred_at(index), q, bound)
            if tight * shrink > tau:
                continue
            if first < tight * shrink or (heap and heap[0][0] < tight):
                heapq.heappush(heap, (float(tight), counter, page_id, level,
                                      None, 0, 0.0))
                counter += 1
                continue

        node = read(page_id, level)
        if node is None or not len(node):
            continue
        if node.is_leaf:
            dists, rids = leaf_dists(tree, node, q), node.rid_array()
            kept = (dists <= tau).nonzero()[0]
            dists, rids = dists[kept], rids[kept]
            cand_d = np.concatenate((cand_d, dists))
            cand_r = np.concatenate((cand_r, rids))
            # numpy orders complex numbers by (real, imag), so this is
            # the (distance, rid) order (rids are exact below 2**53); a
            # stable sort merges the sorted waiting run in linear time,
            # where np.lexsort would sort both keys from scratch.
            order = np.argsort(cand_d + 1j * cand_r, kind="stable")
            cand_d, cand_r = cand_d[order], cand_r[order]
            first = float(cand_d[0]) if len(cand_d) else math.inf
            if k is not None:
                topk = np.sort(np.concatenate((topk, dists)))[:k]
                if len(topk) == k:
                    tau = float(topk[-1])
        else:
            dists, tights = _entry_bounds(ext, node, q)
            bounds, children = dists.tolist(), node.children()
            hints = bounds if tights is dists else tights.tolist()
            owner = None if tights is dists else node
            for i in (dists * shrink <= tau).nonzero()[0].tolist():
                heapq.heappush(heap, (bounds[i], counter, children[i],
                                      node.level - 1, owner, i, hints[i]))
                counter += 1


def knn_search(tree: Any, query: np.ndarray, k: int) -> List[Hit]:
    """The canonical ``k`` nearest leaf keys to ``query`` as
    ``(distance, rid)``, read through the tree's counting path."""
    query = check_queries(tree, query, 1, k)
    return list(best_first(tree, query, k, tree._read_query))


def nn_cursor(tree: Any, query: np.ndarray) -> Iterator[Hit]:
    """Yield ``(distance, rid)`` pairs in ``(distance, rid)`` order.

    ``knn`` needs k fixed up front, but Blobworld's real contract is
    "retrieve the nearest blobs until 200 distinct *images* have been
    seen" (paper section 3).  The cursor is :func:`best_first` with no
    ``k``: the consumer decides when to stop, and page accesses accrue
    only as far as it is advanced.  A prefix is the ``knn`` of that
    length, results and reads alike (DESIGN.md section 7).
    """
    query = check_queries(tree, query, 1)
    return best_first(tree, query, None, tree._read_query)
