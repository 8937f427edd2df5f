"""The GiST extension interface.

An access method is defined entirely by a :class:`GiSTExtension`: the
predicate algebra (``union``-style predicate builders, ``penalty``,
``pick_split``), distance functions for nearest-neighbor search (the
one query, so the distance bounds play the GiST's ``consistent``),
containment tests used for deletion and validation, and the
binary codec that fixes the predicate's stored size (and therefore the
tree's fanout — the paper's Table 3 knob).

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

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.gist.entry import IndexEntry, LeafEntry
from repro.gist.node import Node
from repro.storage.codecs import Codec


class GiSTExtension:
    """Behaviour bundle specializing the GiST to one access method."""

    #: short identifier used in reports ("rtree", "xjb", ...)
    name: str = "abstract"

    def __init__(self, dim: int) -> None:
        self.dim = dim

    # -- predicate construction --------------------------------------------

    def pred_for_keys(self, keys: np.ndarray) -> Any:
        """Bounding predicate for a leaf node's ``(n, dim)`` key array."""
        raise NotImplementedError

    def pred_for_preds(self, preds: Sequence) -> Any:
        """Bounding predicate covering child predicates (inner nodes)."""
        raise NotImplementedError

    def pred_for_node(self, node: Node) -> Any:
        """Recompute a node's bounding predicate from its contents."""
        if node.is_leaf:
            return self.pred_for_keys(node.keys_array())
        return self.pred_for_preds(node.preds())

    # -- bulk-load construction hooks ---------------------------------------
    #
    # The bulk loader builds whole levels of nodes at once.  These hooks
    # exist so that (a) randomized predicate constructions (aMAP) can
    # key their RNG to the node's position instead of a shared stream —
    # the predicate of node (level, index) then depends only on the seed
    # and the node's contents, which keeps page files a pure function of
    # keys and seed — and (b) vectorizing extensions (JB/XJB) can batch
    # predicate construction across sibling nodes of a level.

    def pred_for_keys_at(self, keys: np.ndarray, token: Tuple[int, int]) -> Any:
        """Positioned :meth:`pred_for_keys`; ``token`` is ``(level,
        index)`` of the node under construction.  Deterministic
        extensions ignore the token."""
        return self.pred_for_keys(keys)

    def pred_for_preds_at(self, preds: Sequence, token: Tuple[int, int]) -> Any:
        """Positioned :meth:`pred_for_preds` (see
        :meth:`pred_for_keys_at`)."""
        return self.pred_for_preds(preds)

    def pred_for_node_at(self, node: Node, token: Tuple[int, int]) -> Any:
        """Positioned :meth:`pred_for_node`.

        Routed through the node's cached stacked views
        (:meth:`~repro.gist.node.Node.keys_array`, extension geometry
        caches), so geometry stacked while building the predicate stays
        memoized on the node for the first queries to reuse.
        """
        if node.is_leaf:
            return self.pred_for_keys_at(node.keys_array(), token)
        return self.pred_for_preds_at(node.preds(), token)

    def preds_for_nodes(self, nodes: Sequence[Node],
                        tokens: Sequence[Tuple[int, int]]) -> List:
        """Bounding predicates for one level's worth of nodes.

        The default loops :meth:`pred_for_node_at`; extensions whose
        construction vectorizes across sibling nodes (JB/XJB corner
        carving) override this with a batched kernel.  Implementations
        must return bit-identical predicates for any partition of the
        node list, so batching never changes a page's bytes.
        """
        return [self.pred_for_node_at(node, token)
                for node, token in zip(nodes, tokens)]

    # -- incremental adjust (online insert path) -----------------------------
    #
    # A mutable tree (repro.gist.mutable) opts into incremental
    # predicate maintenance: instead of recomputing a whole node's
    # predicate from its contents on every insert, ancestors are
    # *widened* just enough to keep the containment invariants.  Both
    # hooks may return None — "no incremental rule, recompute" — which
    # is the default, and must return ``pred`` itself (the identical
    # object) when it already covers, so the tree can stop adjusting
    # early.  Widened predicates must never shrink the covered region:
    # everything the old predicate admitted must stay admitted.

    def adjust_pred_insert(self, pred: Any, key: np.ndarray) -> Any:
        """``pred`` widened to cover the freshly inserted ``key``.

        Returns ``pred`` unchanged when it already covers the key, a
        new widened predicate otherwise, or None to force a full
        recompute (the safe default)."""
        return None

    def adjust_pred_cover(self, pred: Any, child_pred: Any) -> Any:
        """``pred`` widened to cover an updated child predicate.

        Same contract as :meth:`adjust_pred_insert`; ``child_pred`` is
        the predicate just installed one level below."""
        return None

    # -- predicate algebra -----------------------------------------------------

    def contains(self, pred: Any, point: np.ndarray) -> bool:
        """Must ``pred`` cover ``point``?  Exact; drives DELETE descent."""
        raise NotImplementedError

    def contains_node(self, node: Node, point: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`contains` over an inner node's entries.

        Returns the ``(n,)`` bool mask the DELETE descent follows; it
        must equal ``[contains(p, point) for p in node.preds()]``.  The
        default loops; extensions with stacked geometry caches answer
        from those, building no predicate object.
        """
        return np.array([self.contains(p, point) for p in node.preds()],
                        dtype=bool)

    def covers_pred(self, parent_pred: Any, child_pred: Any) -> bool:
        """Conservative check that ``parent_pred`` covers ``child_pred``.

        Used by validation and by the insert path to skip redundant
        parent updates; ``False`` negatives merely cost an update.
        """
        raise NotImplementedError

    def penalty(self, pred: Any, key: np.ndarray) -> float:
        """Cost of routing ``key`` under ``pred`` (INSERT descent)."""
        raise NotImplementedError

    def penalties_node(self, node: Node, key: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`penalty` over an inner node's entries."""
        return np.array([self.penalty(e.pred, key) for e in node.entries])

    def pick_split(self, entries: List, level: int,
                   min_entries: int) -> Tuple[List, List]:
        """Partition an overflowing node's entries into two groups.

        Both groups must have at least ``min_entries`` entries.
        """
        raise NotImplementedError

    # -- distances -------------------------------------------------------------

    def min_dist(self, pred: Any, q: np.ndarray) -> float:
        """Lower bound on the distance from ``q`` to data under ``pred``."""
        raise NotImplementedError

    def min_dists_node(self, node: Node, q: np.ndarray) -> np.ndarray:
        """Vectorized lower bounds for all entries of an inner node.

        The default stacks nothing and loops; extensions slice their
        geometry from :meth:`~repro.gist.node.Node.pred_block` and
        memoize it with :meth:`~repro.gist.node.Node.cached`.
        """
        return np.array([self.min_dist(p, q) for p in node.preds()])

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

    def refine_dist(self, pred: Any, q: np.ndarray, lower_bound: float) -> float:
        """Tighter lower bound, evaluated lazily at queue-pop time."""
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

    def routing_point(self, pred: Any) -> np.ndarray:
        """A representative point for routing an orphaned subtree's entry
        during delete condensation (typically the predicate's center)."""
        raise NotImplementedError

    def routing_points_multi(self, preds: Sequence) -> np.ndarray:
        """Stacked ``(n, dim)`` :meth:`routing_point` matrix.

        The bulk loader orders every upper level by these centers; the
        default falls back to the per-predicate loop, extensions with
        array-backed predicates compute the whole matrix in one shot.
        """
        return np.stack([self.routing_point(p) for p in preds])

    # -- storage -----------------------------------------------------------------

    def pred_codec(self) -> Codec:
        """Fixed-size codec for this AM's predicate (defines fanout)."""
        raise NotImplementedError

    def config(self) -> dict:
        """Constructor options needed to rebuild this extension
        (persisted in saved-tree headers so files are self-describing)."""
        return {}
