"""The GiST extension interface.

An access method is defined entirely by a :class:`GiSTExtension`: the
predicate algebra over stored predicate rows (``union``: a node's
bounding row, ``penalty``, ``pick_split``, the widen and cover tests),
distance functions for nearest-neighbor search (the one query, so the
distance bounds play the GiST's ``consistent``), containment tests used
for deletion and validation, and the codec that fixes the predicate's
row layout and stored size (and therefore the tree's fanout — the
paper's Table 3 knob).  The tree and its extension exchange nothing
but those rows: no predicate object crosses the interface.

Two-tier distances
------------------
``min_dists_node`` must return *lower bounds* on the distance from a
query point to any data reachable under each entry, up to the rounding
slack of :func:`repro.gist.nn.slack` (DESIGN.md section 7) — cheap,
vectorized, used to enqueue children during best-first search.
Extensions with expensive-but-tighter predicates (JB/XJB) additionally
implement ``refine_dist``; the search calls it lazily, only when an
entry reaches the front of the priority queue, and re-queues the entry
if the refined bound pushes it back.  The set of nodes finally
expanded is identical to eager tight evaluation, so I/O counts reflect
the tight predicate.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

import numpy as np

from repro.gist.node import Node
from repro.storage.codecs import Codec

Tokens = Optional[Sequence[Tuple[int, int]]]
"""Bulk-load positions ``(level, index)`` of the nodes a construction
hook bounds, or None for an insert-time recompute."""


def row_node(row: np.ndarray) -> Node:
    """A one-entry inner node holding predicate ``row``: how a row-level
    hook reuses the node kernels (:meth:`GiSTExtension.contains_node`,
    :meth:`GiSTExtension.min_dists_node`) on a single predicate."""
    return Node.inner_from_block(-1, 1, row[None],
                                 np.zeros(1, dtype=np.int64))


class GiSTExtension:
    """Behaviour bundle specializing the GiST to one access method.

    Every hook exchanges predicate *rows*: a row is one ``(numbers,)``
    float64 line in the layout of :meth:`pred_codec`, a block is an
    ``(n, numbers)`` stack of them — an inner node's
    :meth:`~repro.gist.node.Node.pred_block`.
    """

    #: short identifier used in reports ("rtree", "xjb", ...)
    name: str = "abstract"

    def __init__(self, dim: int) -> None:
        self.dim = dim

    # -- construction ---------------------------------------------------

    def preds_for_nodes(self, nodes: Sequence[Node],
                        tokens: Tokens = None) -> np.ndarray:
        """The ``(len(nodes), numbers)`` block of bounding predicates,
        one row per node, each bounding its node's keys (a leaf) or its
        child rows (an inner node).

        The bulk loader passes a whole level with ``tokens``, each
        node's ``(level, index)`` position: randomized constructions
        (aMAP) key their RNG to it, so a page's bytes depend only on
        the seed and the node's contents, and vectorizing ones (JB/XJB)
        may batch across the level.  An insert-time recompute passes
        one node and no tokens.  Rows must not depend on how a level is
        partitioned into calls.
        """
        raise NotImplementedError

    # -- insert descent and adjust ---------------------------------------

    def penalties_node(self, node: Node, key: np.ndarray) -> np.ndarray:
        """Cost of routing ``key`` under each entry of an inner node
        (INSERT descent follows the smallest)."""
        raise NotImplementedError

    def covers_key(self, row: np.ndarray, key: np.ndarray) -> bool:
        """Does predicate ``row`` cover ``key``?  The
        :meth:`contains_node` rule, so insert and delete agree."""
        return bool(self.contains_node(row_node(row), key)[0])

    def covers(self, row: np.ndarray, child_row: np.ndarray) -> bool:
        """Conservative check that predicate ``row`` covers the region
        of ``child_row``.

        Used by validation and by the insert path to skip redundant
        parent updates; ``False`` negatives merely cost an update.
        """
        raise NotImplementedError

    # A mutable tree (repro.gist.mutable) opts into incremental
    # predicate maintenance: instead of recomputing a whole node's
    # predicate from its contents on every insert, ancestors are
    # *widened* just enough to keep the containment invariants.  Both
    # hooks may return None — "no incremental rule, recompute" — which
    # is the default, and must return ``row`` itself (the identical
    # array) when it already covers, so the tree can stop adjusting
    # early.  A widened row must never shrink the covered region:
    # everything the old predicate admitted must stay admitted.

    def widen_key(self, row: np.ndarray, key: np.ndarray) -> Any:
        """``row`` widened to cover the freshly inserted ``key``: the
        same array when it already covers, a new row, or None."""
        return None

    def widen(self, row: np.ndarray, child_row: np.ndarray) -> Any:
        """``row`` widened to cover ``child_row``, the predicate just
        installed one level below; the contract of :meth:`widen_key`."""
        return None

    # -- split, condense and delete --------------------------------------

    def pick_split(self, node: Node,
                   min_entries: int) -> Tuple[np.ndarray, np.ndarray]:
        """Partition an overflowing node into two index arrays, each of
        at least ``min_entries`` entries; the node keeps the first."""
        raise NotImplementedError

    def routing_points(self, block: np.ndarray) -> np.ndarray:
        """A representative ``(n, dim)`` point per row (typically its
        center): orphaned subtrees are reinserted at it during delete
        condensation, and the bulk loader orders upper levels by it."""
        raise NotImplementedError

    def contains_node(self, node: Node, point: np.ndarray) -> np.ndarray:
        """The ``(n,)`` bool mask of an inner node's entries whose
        predicate covers ``point``, exactly; the DELETE descent follows
        it."""
        raise NotImplementedError

    # -- distances -------------------------------------------------------------

    def min_dists_node(self, node: Node, q: np.ndarray) -> np.ndarray:
        """Lower bounds from ``q`` to the data under each entry of an
        inner node.

        Extensions slice their geometry from
        :meth:`~repro.gist.node.Node.pred_block` and memoize it with
        :meth:`~repro.gist.node.Node.cached`.
        """
        raise NotImplementedError

    def min_dists_node_multi(self, node: Node,
                             queries: np.ndarray) -> np.ndarray:
        """:meth:`min_dists_node` for a ``(q, dim)`` query block: a
        ``(q, n)`` matrix of per-query rows.

        No search calls this (the k-NN kernel ranks one query at a
        time, :mod:`repro.gist.nn`); it stays a named hook because the
        measurement spine's tracer wraps every bound kernel by name.
        """
        return np.stack([self.min_dists_node(node, q) for q in queries])

    #: whether :meth:`refine_dist` tightens :meth:`min_dists_node` bounds
    has_refinement: bool = False

    def refine_dist(self, row: np.ndarray, q: np.ndarray,
                    lower_bound: float) -> float:
        """Tighter lower bound for predicate ``row``, evaluated lazily
        at queue-pop time."""
        return lower_bound

    def refine_dists_node(self, node: Node, queries: np.ndarray,
                          dists: np.ndarray) -> np.ndarray:
        """Vectorized refinement screen over ``queries × entries``.

        ``dists`` is the ``(q, n)`` matrix of :meth:`min_dists_node`
        rows.  Returns a same-shaped matrix of refined bounds; a NaN
        cell means "not screened — call :meth:`refine_dist` for this
        pair when (and if) it reaches the queue front".  Cells that are *not* NaN must be bit-identical to
        what the scalar :meth:`refine_dist` would return.  The default
        screens nothing.
        """
        return np.full(dists.shape, np.nan)

    # -- storage -----------------------------------------------------------------

    def pred_codec(self) -> Codec:
        """Fixed-size codec for this AM's predicate row (defines fanout)."""
        raise NotImplementedError

    def config(self) -> dict:
        """Constructor options needed to rebuild this extension
        (persisted in saved-tree headers so files are self-describing)."""
        return {}
