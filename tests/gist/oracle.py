"""Reference best-first k-NN: the point-in-heap loop, kept as the oracle.

This is ``repro.gist.nn.knn_search`` as it stood before the traversals
in ``src/repro/gist/`` were folded into one kernel: every leaf point is
a heap item beside the node entries.  It has since taken the kernel's
canonical rules, so it answers the ``(distance, rid)`` top k by
construction: a point is keyed ``(distance, rid)``, a node by its bound
lowered by :func:`repro.gist.nn.slack` (it pops before any point that
bound does not clear), and a node stays in play while that lowered
bound is at most ``tau``, a point while its distance is.  A quantized
leaf is ranked by ``tree.exact``.  The kernel in :mod:`repro.gist.nn`
must reproduce its result lists and its counted access order bit for
bit, and both must equal :func:`brute_canonical`; nothing under
``src/`` imports this module.  :func:`stacked_geometry` is the same
kind of oracle for the geometry the extensions slice from an inner
node's predicate block, and :func:`pred_object` /
:func:`object_contains` are the per-predicate objects and containment
rules the row kernels replaced.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, List, Tuple

import numpy as np

from repro.gist.nn import slack

_NODE = 0
_POINT = 1


def knn_search(tree: Any, query: np.ndarray, k: int) -> List[Tuple[float, int]]:
    """The canonical ``k`` nearest leaf keys to ``query`` as
    ``(distance, rid)``.

    Node reads go through the tree's counting read path.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if tree.root_id is None:
        return []
    query = np.asarray(query, dtype=np.float64)
    ext = tree.ext
    shrink = 1.0 - slack(ext.dim)
    counter = itertools.count()

    # Heap items:
    #   node:  (bound * shrink, _NODE, bound, tiebreak, payload, refined)
    #          payload = (parent_node_or_None, entry_index, page_id, level)
    #   point: (dist, _POINT, rid)
    # A node item names its predicate by (parent, index) rather than
    # holding it: on a block-decoded parent the predicate object is
    # built only if the refinement below asks for it.
    heap: List[tuple] = [(0.0, _NODE, 0.0, next(counter),
                          (None, 0, tree.root_id, tree.height - 1), True)]
    results: List[Tuple[float, int]] = []
    # Provisional k-th candidate distance; inf until k points are known.
    topk = np.empty(0, dtype=np.float64)
    tau = np.inf

    while heap and len(results) < k:
        item = heapq.heappop(heap)
        if item[1] == _POINT:
            results.append((item[0], item[2]))
            continue

        _, _, dist, _, payload, refined = item
        parent, index, page_id, level = payload
        if not refined:
            tight = ext.refine_dist(parent.pred_block()[index], query,
                                    dist)
            if tight * shrink > tau:
                continue
            key = (tight * shrink, _NODE, tight)
            if heap and heap[0] < key:
                heapq.heappush(heap, key + (next(counter), payload, True))
                continue

        node = tree._read_query(page_id, level)
        if node is None or not len(node):
            continue
        if node.is_leaf:
            if node.key_halfwidths() is None:
                keys = node.keys_array()
            else:
                # Quantized leaf: its keys are cell centers, so it is
                # ranked by the original keys attached to the tree.
                keys = tree.exact[node.rid_array()]
            dists = np.sqrt(((keys - query) ** 2).sum(axis=1))
            rids = node.rid_array()
            kept = np.nonzero(dists <= tau)[0]
            dists, rids = dists[kept], rids[kept]
            for d, rid in zip(dists.tolist(), rids.tolist()):
                heapq.heappush(heap, (d, _POINT, rid))
            tau, topk = _update_tau(topk, dists, k)
        else:
            dists = ext.min_dists_node(node, query)
            lazy = ext.has_refinement
            kept = np.nonzero(dists * shrink <= tau)[0].tolist()
            children = node.children()
            dists = dists.tolist()
            child_level = node.level - 1
            for i in kept:
                heapq.heappush(
                    heap, (dists[i] * shrink, _NODE, dists[i], next(counter),
                           (node, i, children[i], child_level), not lazy))

    return results


def _update_tau(topk: np.ndarray, dists: np.ndarray,
                k: int) -> Tuple[float, np.ndarray]:
    """Fold freshly seen point distances into the running k smallest.

    Returns the new provisional k-th distance (inf while fewer than
    ``k`` candidates have been seen) and the updated sorted array.  The
    kernel in :mod:`repro.gist.nn` performs the identical update so
    both searches prune with the same thresholds at the same moments.
    """
    if len(dists):
        topk = np.sort(np.concatenate((topk, dists)))[:k]
    if len(topk) == k:
        return float(topk[-1]), topk
    return np.inf, topk


def brute_canonical(vectors: np.ndarray, rids: np.ndarray,
                    query: np.ndarray, k: int) -> List[Tuple[float, int]]:
    """The ground-truth canonical top-k, straight from the matrix: the
    ``lexsort((rid, d))`` order through the leaf distance expression."""
    dists = np.sqrt(((vectors - query) ** 2).sum(axis=1))
    order = np.lexsort((rids, dists))[:k]
    return [(float(dists[i]), int(rids[i])) for i in order]


# -- what the tests that compare against the oracle share ---------------------

def traced(tree: Any, run: Any) -> Tuple[Any, List[Tuple[int, int]]]:
    """``run()``'s value and the ``(page_id, level)`` accesses the tree's
    store counted while it ran, in order."""
    seen: List[Tuple[int, int]] = []

    def listener(page_id: int, level: int) -> None:
        seen.append((page_id, level))

    tree.add_listener(listener)
    try:
        value = run()
    finally:
        tree.remove_listener(listener)
    return value, seen


def paged_tree(ext: Any, points: np.ndarray, path: str, page_size: int,
               codec: str = "f64", **store_options: Any) -> Any:
    """``points`` bulk-loaded into the page file ``path``.

    Every node the tree then reads is decoded from its page: inner nodes
    come back block-decoded, and with ``codec="sq8"`` leaves come back
    as quantized reconstructions with half widths (ranked by ``points``,
    which the load attaches as ``tree.exact``) — an in-memory build
    keeps the exact float64 keys and would test neither.
    """
    from repro.bulk import bulk_load
    from repro.storage import FilePageFile
    store = FilePageFile.for_extension(path, ext, page_size=page_size,
                                       leaf_codec=codec, **store_options)
    tree = bulk_load(ext, points, page_size=page_size, store=store)
    store.flush()
    return tree


# -- predicate rows as objects ------------------------------------------------

def leaf_node(keys: np.ndarray, page_id: int = 0) -> Any:
    """A leaf holding ``keys`` with rids ``0..n-1``."""
    from repro.gist.node import Node
    keys = np.asarray(keys, dtype=np.float64)
    return Node.leaf_from_arrays(page_id, keys,
                                 np.arange(len(keys), dtype=np.int64))


def inner_node(rows: Any, page_id: int = 0, level: int = 1) -> Any:
    """An inner node holding predicate ``rows`` with children
    ``100..100+n-1``."""
    from repro.gist.node import Node
    block = np.array(rows, dtype=np.float64)
    return Node.inner_from_block(page_id, level, block,
                                 100 + np.arange(len(block), dtype=np.int64))


def row_for_keys(ext: Any, keys: np.ndarray) -> np.ndarray:
    """The insert-time bounding row of a leaf holding ``keys``."""
    return ext.preds_for_nodes([leaf_node(keys)])[0]


def row_for_rows(ext: Any, rows: Any) -> np.ndarray:
    """The insert-time bounding row of an inner node holding ``rows``."""
    return ext.preds_for_nodes([inner_node(rows)])[0]


def pred_object(ext: Any, row: np.ndarray) -> Any:
    """Predicate ``row`` as the geometry objects it stands for: a
    ``Rect`` (R/R*-tree), a ``Sphere`` (SS-tree), ``(Rect, Sphere)``
    (SR-tree), ``(Rect, Rect)`` (aMAP) or a ``BittenRect`` (JB/XJB)."""
    from repro.ams import SRTreeExtension, SSTreeExtension
    from repro.core.amap import AMapExtension
    from repro.core.jbtree import JBExtension
    from tests.geometry.shapes import Rect, Sphere

    row = np.array(row, dtype=np.float64)
    d = ext.dim
    if isinstance(ext, JBExtension):
        from tests.geometry.bite_oracle import decode
        return decode(ext.pred_codec(), row)
    if isinstance(ext, AMapExtension):
        return (Rect(row[:d], row[d:2 * d]),
                Rect(row[2 * d:3 * d], row[3 * d:4 * d]))
    if isinstance(ext, SRTreeExtension):
        return (Rect(row[:d], row[d:2 * d]),
                Sphere(row[2 * d:3 * d], float(row[3 * d])))
    if isinstance(ext, SSTreeExtension):
        return Sphere(row[:d], float(row[d]))
    return Rect(row[:d], row[d:2 * d])


def pred_objects(ext: Any, node: Any) -> List[Any]:
    """:func:`pred_object` of every row of an inner node."""
    return [pred_object(ext, row) for row in node.pred_block()]


def object_contains(pred: Any, point: np.ndarray) -> bool:
    """The per-predicate containment rule: both parts of an SR-tree
    pair, either rect of an aMAP pair, else the object's own."""
    from tests.geometry.shapes import Sphere
    if isinstance(pred, tuple):
        first, second = pred
        if isinstance(second, Sphere):
            return (first.contains_point(point)
                    and second.contains_point(point))
        return first.contains_point(point) or second.contains_point(point)
    return pred.contains_point(point)


def footprint(pred: Any) -> Any:
    """The MBR routing, penalty and split use: an aMAP pair's union, a
    bitten rect's MBR, or the rect itself."""
    if isinstance(pred, tuple):
        return pred[0].union(pred[1])
    return getattr(pred, "rect", pred)


# -- stacked inner-node geometry ------------------------------------------------

def stacked_geometry(ext: Any, preds: List[Any]) -> dict:
    """Every geometry view an extension caches on an inner node, stacked
    from predicate objects (:func:`pred_objects`) one at a time.

    This is how the extensions built those views for nodes held as
    entry lists, moved here verbatim when every node came to hold its
    predicate block: the block-sliced views (``node_bounds``, the
    SS/SR parameters, the aMAP dual bounds, the JB/XJB bite pack) must
    equal these bit for bit.  Keys are the ``Node.cache`` names.
    """
    from repro.ams import RTreeExtension, SRTreeExtension, SSTreeExtension
    from repro.core.amap import AMapExtension
    from repro.core.jbtree import JBExtension

    out: dict = {}
    if isinstance(ext, RTreeExtension):
        rects = [footprint(p) for p in preds]
        out["rect_bounds"] = (np.stack([r.lo for r in rects]),
                              np.stack([r.hi for r in rects]))
    if isinstance(ext, AMapExtension):
        out["amap_bounds"] = (np.stack([p[0].lo for p in preds]),
                              np.stack([p[0].hi for p in preds]),
                              np.stack([p[1].lo for p in preds]),
                              np.stack([p[1].hi for p in preds]))
    if isinstance(ext, JBExtension):
        counts = np.array([len(p.bites) for p in preds], dtype=np.intp)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        if offsets[-1] == 0:
            empty = np.empty((0, ext.dim))
            out["jb_bites"] = (empty, empty,
                               np.empty((0, ext.dim), dtype=bool),
                               counts, offsets)
        else:
            out["jb_bites"] = (
                np.stack([b.lo for p in preds for b in p.bites]),
                np.stack([b.hi for p in preds for b in p.bites]),
                np.stack([b.low_side for p in preds for b in p.bites]),
                counts, offsets)
    if isinstance(ext, SSTreeExtension):
        out["sphere_params"] = (np.stack([s.center for s in preds]),
                                np.array([s.radius for s in preds]))
    if isinstance(ext, SRTreeExtension):
        out["sr_params"] = (np.stack([p[0].lo for p in preds]),
                            np.stack([p[0].hi for p in preds]),
                            np.stack([p[1].center for p in preds]),
                            np.array([p[1].radius for p in preds]))
    return out
