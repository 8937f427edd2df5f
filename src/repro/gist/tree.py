"""The GiST template algorithms: k-NN search, insert, delete, maintenance.

The tree is parameterized by a :class:`~repro.gist.extension.GiSTExtension`
and a page file.  Fanout is *real*: a node overflows when its fixed-size
entries exceed the page payload, so predicate size (Table 3 of the paper)
directly shapes the tree.

Query operations (:meth:`GiST.knn` and its batch and cursor forms) read nodes
through the counting path of the page file; maintenance operations
(insert, delete, bulk load) use the non-counting ``peek`` path, so page
statistics reflect query work only — matching how amdb measures
workloads.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.constants import DEFAULT_PAGE_SIZE, TARGET_UTILIZATION
from repro.gist.degrade import DegradationReport
from repro.gist.entry import IndexEntry, LeafEntry
from repro.gist.extension import GiSTExtension
from repro.gist.node import Node
from repro.gist.nn import knn_search, nn_cursor
from repro.storage.codecs import IndexEntryCodec, LeafEntryCodec
from repro.storage.errors import PageCorruptError
from repro.storage.page import entries_per_page, page_payload
from repro.storage.pagefile import MemoryPageFile

#: minimum fill fraction enforced by splits and deletes (Guttman's m).
MIN_FILL = 0.4


def _finite_key(key: Any) -> np.ndarray:
    """The one ingress check for insert/delete keys: float64, finite."""
    key = np.asarray(key, dtype=np.float64)
    if not np.isfinite(key).all():
        raise ValueError("keys must be finite (no NaN or inf)")
    return key


def _key_hits(leaf: Node, key: np.ndarray) -> np.ndarray:
    """Which of a leaf's stored keys equal ``key`` exactly."""
    if not len(leaf):
        return np.zeros(0, dtype=bool)
    return (leaf.keys_array() == key).all(axis=1)


class GiST:
    """A height-balanced multi-way search tree specialized by an extension."""

    def __init__(self, extension: GiSTExtension, store: Any = None,
                 page_size: int = DEFAULT_PAGE_SIZE,
                 leaf_codec: Optional[LeafEntryCodec] = None) -> None:
        self.ext = extension
        self.store = store if store is not None else MemoryPageFile()
        self.page_size = page_size
        if leaf_codec is None:
            # A page-file store already committed to a leaf format
            # (e.g. an SQ8 FilePageFile); the tree must agree with it
            # or capacities and re-encodes would silently diverge.
            store_codec = getattr(
                getattr(self.store, "codec", None), "leaf_codec", None)
            if store_codec is not None and store_codec.dim == extension.dim:
                leaf_codec = store_codec
            else:
                leaf_codec = LeafEntryCodec(extension.dim)
        self.leaf_codec = leaf_codec
        self.index_codec = IndexEntryCodec(extension.pred_codec())
        self.leaf_capacity = self.leaf_codec.capacity(page_size)
        self.index_capacity = entries_per_page(page_size,
                                               self.index_codec.size)
        self.root_id: Optional[int] = None
        #: when True, insert-path predicate maintenance *widens*
        #: ancestors via the extension's adjust hooks instead of
        #: recomputing whole nodes (opt-in; set by the mutable-tree
        #: wrapper).  Default off keeps bulk/insertion loads
        #: bit-identical to the historical behaviour.
        self.incremental_adjust = False
        #: number of levels; 0 for an empty tree, 1 for a lone leaf root.
        self.height = 0
        #: number of stored (key, RID) pairs.
        self.size = 0
        #: when True, corrupt pages are pruned from query results and
        #: recorded in :attr:`degradation` instead of raising.
        self.quarantine_enabled = False
        self.degradation: Optional[DegradationReport] = None
        self._quarantined: set = set()
        self.exact = None

    @property
    def exact(self) -> Optional[np.ndarray]:
        """The ``(N, dim)`` original keys by rid that rank quantized leaves
        and refit their predicates (:mod:`repro.gist.nn`, :meth:`_peek`)."""
        return self._exact

    @exact.setter
    def exact(self, keys: Any) -> None:
        if keys is not None and (np.ndim(keys) != 2
                                 or np.shape(keys)[1] != self.ext.dim):
            raise ValueError(f"GiST.exact must be (N, {self.ext.dim}), "
                             f"got shape {np.shape(keys)}")
        self._exact = keys

    # -- capacities ---------------------------------------------------------

    def capacity(self, level: int) -> int:
        return self.leaf_capacity if level == 0 else self.index_capacity

    def min_entries(self, level: int) -> int:
        return max(1, int(MIN_FILL * self.capacity(level)))

    # -- node access ----------------------------------------------------------

    def _read(self, page_id: int) -> Node:
        """Counted read — query work."""
        return self.store.read(page_id)

    def _peek(self, page_id: int) -> Node:
        """Uncounted read — maintenance work.  With :attr:`exact`, a
        quantized leaf comes back holding the original keys, so splits
        and deletes fit predicates to, and re-encode pages from, those,
        as a bulk load does."""
        node = self.store.peek(page_id)
        if self.exact is not None and node.is_leaf \
                and node.key_halfwidths() is not None:
            rids = node.rid_array()
            node = Node.leaf_from_arrays(page_id, self.exact[rids], rids)
        return node

    # -- degraded mode -------------------------------------------------------

    def enable_quarantine(
            self, report: Optional[DegradationReport] = None
            ) -> DegradationReport:
        """Switch query paths to degraded mode.

        A :class:`~repro.storage.errors.PageCorruptError` during search
        then prunes the corrupt subtree (its candidates are lost, the
        query completes) and records it in the returned
        :class:`DegradationReport` instead of propagating.
        """
        self.quarantine_enabled = True
        self.degradation = report if report is not None \
            else DegradationReport()
        return self.degradation

    def disable_quarantine(self) -> None:
        self.quarantine_enabled = False

    def _read_query(self, page_id: int,
                    level: Optional[int] = None) -> Optional[Node]:
        """Counted read for query paths; None when quarantined.

        ``level`` is the level the caller expects the page at (known
        from the parent), used only to estimate what was lost.
        """
        if self.quarantine_enabled and page_id in self._quarantined:
            return None
        try:
            return self._read(page_id)
        except PageCorruptError as exc:
            if not self.quarantine_enabled:
                raise
            self._quarantine(page_id, level, exc)
            return None

    def _quarantine(self, page_id: int, level: Optional[int], exc: Any) -> None:
        self._quarantined.add(page_id)
        self.degradation.record(page_id, level, exc,
                                self._estimate_candidates(level))

    def _estimate_candidates(self, level: Optional[int]) -> int:
        """Leaf entries a subtree rooted at ``level`` roughly held.

        The page is unreadable, so this uses the tree's fill model:
        target utilization times capacity, compounded per level.
        """
        leaf_fill = max(1, round(TARGET_UTILIZATION * self.leaf_capacity))
        if level is None or level <= 0:
            return leaf_fill
        inner_fill = max(2, round(TARGET_UTILIZATION * self.index_capacity))
        return leaf_fill * inner_fill ** level

    def _new_node(self, level: int, entries: List) -> Node:
        node = Node.from_entries(self.store.allocate(), level, entries,
                                 self.index_codec.pred_codec)
        self.store.write(node)
        return node

    # -- queries ------------------------------------------------------------------

    def knn(self, query: np.ndarray, k: int) -> List[Tuple[float, int]]:
        """The ``k`` nearest stored keys to ``query`` as (distance, rid).

        Best-first (Hjaltason–Samet) search; exact for every conservative
        extension.  The answer is canonical: ordered by ``(distance,
        rid)``, so ties at the k-th distance go to the lowest rids.
        """
        return knn_search(self, query, k)

    def knn_batch(self, queries: np.ndarray,
                  k: int) -> List[List[Tuple[float, int]]]:
        """:meth:`knn` for a whole ``(Q, dim)`` query block at once.

        Each node is fetched and decoded at most once per block, while
        results (and counted page accesses) are those of per-query
        :meth:`knn` calls; see :func:`repro.gist.batch.knn_search_batch`.
        """
        from repro.gist.batch import knn_search_batch
        return knn_search_batch(self, queries, k)

    def nn_cursor(self, query: np.ndarray) -> Iterator[Tuple[float, int]]:
        """Incremental nearest-neighbor iterator; see
        :func:`repro.gist.nn.nn_cursor`."""
        return nn_cursor(self, query)

    # -- insertion -------------------------------------------------------------------

    def insert(self, key: np.ndarray, rid: int) -> None:
        """Add a ``(key, RID)`` pair (GiST INSERT template).

        A NaN or infinite coordinate raises ValueError before any page
        is touched: no codec can store it, and a key no distance orders
        would poison every later query.
        """
        key = _finite_key(key)
        self._insert_entry(LeafEntry(key, rid), target_level=0,
                           routing_key=key)
        self.size += 1

    def _insert_entry(self, entry: Any, target_level: int,
                      routing_key: np.ndarray) -> None:
        """Insert ``entry`` into a node at ``target_level``.

        ``target_level`` 0 inserts a leaf entry; higher levels re-attach
        orphaned subtrees during delete condensation.
        """
        if self.root_id is None:
            if target_level != 0:
                raise ValueError("cannot graft a subtree into an empty tree")
            root = self._new_node(0, [entry])
            self.root_id = root.page_id
            self.height = 1
            return

        path = self._choose_path(routing_key, target_level)
        node = path[-1][0] if path else self._peek(self.root_id)
        node.add_entry(entry)
        # An overflowing node never reaches the store: the split writes
        # both halves (page images cannot hold an oversize node).
        if len(node) > self.capacity(node.level):
            self._split(node, path[:-1] if path else [])
        elif target_level > 0:
            # Grafting an orphaned subtree (delete condensation): the
            # ancestors must cover the subtree's whole predicate, not
            # just its routing point.
            self.store.write(node)
            self._adjust_upward(path, routing_key=None,
                                changed_preds=[entry.pred])
        else:
            self.store.write(node)
            self._adjust_upward(path, routing_key)

    def _choose_path(self, key: np.ndarray,
                     target_level: int) -> List[Tuple[Node, int]]:
        """Penalty-guided descent to a node at ``target_level``.

        Returns ``[(node, child_index), ..., (target_node, -1)]``; the
        final element carries -1 since the target has no chosen child.
        """
        path: List[Tuple[Node, int]] = []
        node = self._peek(self.root_id)
        while node.level > target_level:
            best = int(np.argmin(self.ext.penalties_node(node, key)))
            path.append((node, best))
            node = self._peek(int(node.child_array()[best]))
        path.append((node, -1))
        return path

    def _split(self, node: Node, ancestors: List[Tuple[Node, int]]) -> None:
        level = node.level
        left_entries, right_entries = self.ext.pick_split(
            list(node.entries), level, self.min_entries(level))
        if not left_entries or not right_entries:
            raise RuntimeError(
                f"{self.ext.name} pick_split produced an empty side")
        node.set_entries(left_entries)
        sibling = self._new_node(level, right_entries)
        self.store.write(node)

        left_pred = self.ext.pred_for_node(node)
        right_pred = self.ext.pred_for_node(sibling)

        if not ancestors:
            # Node was the root: grow the tree by one level.
            root = self._new_node(level + 1, [
                IndexEntry(left_pred, node.page_id),
                IndexEntry(right_pred, sibling.page_id),
            ])
            self.root_id = root.page_id
            self.height += 1
            return

        parent, _ = ancestors[-1]
        idx = parent.find_child_index(node.page_id)
        parent.replace_entry(idx, IndexEntry(left_pred, node.page_id))
        parent.add_entry(IndexEntry(right_pred, sibling.page_id))
        if len(parent) > self.capacity(parent.level):
            self._split(parent, ancestors[:-1])
        elif self.incremental_adjust:
            # The parent's entries already hold both halves' exact
            # predicates; ancestors only need widening over the two
            # changed child predicates, no recompute.
            self.store.write(parent)
            self._adjust_upward(ancestors[:-1], routing_key=None,
                                changed_preds=[left_pred, right_pred])
        else:
            self.store.write(parent)
            self._adjust_upward(ancestors, routing_key=None)

    def _adjust_upward(self, path: List[Tuple[Node, int]],
                       routing_key: Optional[np.ndarray],
                       changed_preds: Optional[List] = None) -> None:
        """Restore bounding predicates bottom-up along an insert path.

        Stops early once an existing predicate already covers what
        changed below it and nothing beneath was rewritten — ancestors
        then cover it too, by the tree's containment invariant.

        ``changed_preds`` seeds the first adjusted level with the exact
        predicates newly installed below it (a grafted subtree's
        predicate, or both halves of a split): the predicate must cover
        those, not merely the routing point.

        With :attr:`incremental_adjust` set, the extension's
        ``adjust_pred_*`` hooks *widen* predicates instead of
        recomputing whole nodes; a hook returning the identical
        predicate object means "already covered", which ends the
        climb.
        """
        child_changed = False
        child_pred = None
        changed = list(changed_preds) if changed_preds else None
        for node, child_idx in reversed(path):
            if child_idx < 0:
                continue
            # One entry's predicate, not node.entries: most inserts stop
            # here, and a block-decoded node then builds no other.
            pred = node.pred_at(child_idx)
            child_id = int(node.child_array()[child_idx])
            if not child_changed:
                if changed is not None:
                    if all(self.ext.covers_pred(pred, cp) for cp in changed):
                        return
                elif (routing_key is not None
                        and self.ext.contains(pred, routing_key)):
                    return
            new_pred = None
            if self.incremental_adjust:
                if child_changed:
                    new_pred = self.ext.adjust_pred_cover(pred, child_pred)
                elif changed is not None:
                    new_pred = pred
                    for cp in changed:
                        new_pred = self.ext.adjust_pred_cover(new_pred, cp)
                        if new_pred is None:
                            break
                elif routing_key is not None:
                    new_pred = self.ext.adjust_pred_insert(pred,
                                                           routing_key)
                if new_pred is pred:
                    # Already covers what changed below; by containment,
                    # every ancestor does too.
                    return
            if new_pred is None:
                child = self._peek(child_id)
                new_pred = self.ext.pred_for_node(child)
            node.replace_entry(child_idx, IndexEntry(new_pred, child_id))
            self.store.write(node)
            child_changed = True
            child_pred = new_pred
            changed = None

    # -- deletion ----------------------------------------------------------------------

    def delete(self, key: np.ndarray, rid: int) -> bool:
        """Remove one ``(key, RID)`` pair; returns whether it was found.

        On a lossy (quantized) leaf codec the stored key is a
        reconstruction, so a caller holding the originally inserted
        floats cannot match it exactly — and for non-rectangular
        families the reconstruction may even sit outside the predicate
        that routed the original.  RIDs are unique tree-wide, so when
        the predicate-guided descent comes up empty a lossy tree falls
        back to locating the leaf by RID alone.  A non-finite key
        raises ValueError, as it does for :meth:`insert`.
        """
        key = _finite_key(key)
        if self.root_id is None:
            return False
        path = self._find_leaf(self.root_id, key, rid, [])
        lossy = self.leaf_codec.lossy
        if path is None and lossy:
            path = self._find_leaf_by_rid(self.root_id, rid, [])
        if path is None:
            return False
        leaf = path[-1]
        hits = leaf.rid_array() == rid
        if not lossy:
            hits &= _key_hits(leaf, key)
        leaf.remove_entry_at(int(hits.argmax()))
        self.store.write(leaf)
        self.size -= 1
        self._condense(path)
        return True

    def _find_leaf(self, page_id: int, key: np.ndarray, rid: int,
                   trail: List[Node]) -> Optional[List[Node]]:
        """DELETE descent: children whose predicate contains ``key``,
        screened for a whole node at once by the extension's
        :meth:`~GiSTExtension.contains_node`."""
        node = self._peek(page_id)
        trail = trail + [node]
        if node.is_leaf:
            hits = (node.rid_array() == rid) & _key_hits(node, key)
            return trail if hits.any() else None
        inside = self.ext.contains_node(node, key)
        for child in node.child_array()[inside].tolist():
            found = self._find_leaf(child, key, rid, trail)
            if found is not None:
                return found
        return None

    def _find_leaf_by_rid(self, page_id: int, rid: int,
                          trail: List[Node]) -> Optional[List[Node]]:
        """Exhaustive descent to the leaf holding ``rid`` (lossy trees)."""
        node = self._peek(page_id)
        trail = trail + [node]
        if node.is_leaf:
            return trail if (node.rid_array() == rid).any() else None
        for child in node.child_array().tolist():
            found = self._find_leaf_by_rid(child, rid, trail)
            if found is not None:
                return found
        return None

    def _condense(self, path: List[Node]) -> None:
        """R-tree style CondenseTree: dissolve underfull nodes, reinsert."""
        orphans: List[Tuple[int, object]] = []   # (level, entry)
        for depth in range(len(path) - 1, 0, -1):
            node = path[depth]
            parent = path[depth - 1]
            idx = parent.find_child_index(node.page_id)
            if len(node) < self.min_entries(node.level):
                parent.remove_entry_at(idx)
                self.store.write(parent)
                orphans.extend((node.level, e) for e in node.entries)
                self.store.free(node.page_id)
            else:
                new_pred = self.ext.pred_for_node(node)
                parent.replace_entry(idx, IndexEntry(new_pred, node.page_id))
                self.store.write(parent)

        self._shrink_root()
        # Reinsert highest-level orphans first so the tree regains height
        # before lower orphans are routed through it.
        for level, entry in sorted(orphans, key=lambda le: -le[0]):
            if level == 0:
                self._insert_entry(entry, 0, entry.key)
                continue
            # The entry belongs in a node at `level`; if root shrinkage
            # left the tree shorter than that, flatten the orphan subtree
            # by one level and retry.
            pending = [(level, entry)]
            while pending:
                lvl, e = pending.pop()
                if lvl == 0:
                    self._insert_entry(e, 0, e.key)
                    continue
                root = self._peek(self.root_id) if self.root_id else None
                if root is None or root.level < lvl:
                    child = self._peek(e.child)
                    pending.extend((lvl - 1, ce) for ce in child.entries)
                    self.store.free(child.page_id)
                    continue
                routing = self.ext.routing_point(e.pred)
                self._insert_entry(e, lvl, routing)

    def _shrink_root(self) -> None:
        if self.root_id is None:
            return
        root = self._peek(self.root_id)
        while not root.is_leaf and len(root) == 1:
            child = int(root.child_array()[0])
            self.store.free(root.page_id)
            self.root_id = child
            self.height -= 1
            root = self._peek(self.root_id)
        if root.is_leaf and not root.entries and self.size == 0:
            self.store.free(root.page_id)
            self.root_id = None
            self.height = 0

    # -- bulk-load hook -------------------------------------------------------------

    def adopt(self, root: Node, height: int, size: int) -> None:
        """Take ownership of a bulk-built subtree (see repro.bulk.loader)."""
        self.root_id = root.page_id
        self.height = height
        self.size = size

    # -- introspection -----------------------------------------------------------------

    def iter_nodes(self, level: Optional[int] = None) -> Iterator[Node]:
        """Yield all nodes (uncounted), optionally only one level.

        In quarantine mode, corrupt pages are recorded and skipped so
        post-run analysis can still walk the readable remainder.
        """
        if self.root_id is None:
            return
        stack = [(self.root_id, self.height - 1)]
        while stack:
            page_id, lvl = stack.pop()
            if self.quarantine_enabled and page_id in self._quarantined:
                continue
            try:
                node = self._peek(page_id)
            except PageCorruptError as exc:
                if not self.quarantine_enabled:
                    raise
                self._quarantine(page_id, lvl, exc)
                continue
            if level is None or node.level == level:
                yield node
            if not node.is_leaf:
                stack.extend((c, node.level - 1) for c in node.children())

    def leaf_nodes(self) -> Iterator[Node]:
        return self.iter_nodes(level=0)

    def num_nodes(self) -> int:
        return sum(1 for _ in self.iter_nodes())

    def nodes_by_level(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for node in self.iter_nodes():
            counts[node.level] = counts.get(node.level, 0) + 1
        return counts

    def node_utilization(self, node: Node) -> float:
        """Fraction of the page payload used by a node's entries."""
        if node.is_leaf:
            return (self.leaf_codec.body_bytes(len(node))
                    / page_payload(self.page_size))
        return len(node) * self.index_codec.size / page_payload(self.page_size)

    def parent_map(self) -> Dict[int, int]:
        """child page id -> parent page id for the whole tree."""
        parents: Dict[int, int] = {}
        for node in self.iter_nodes():
            if not node.is_leaf:
                for entry in node.entries:
                    parents[entry.child] = node.page_id
        return parents

    def root_fanout(self) -> int:
        if self.root_id is None:
            return 0
        return len(self._peek(self.root_id))

    def __repr__(self) -> str:
        return (f"GiST({self.ext.name}, height={self.height}, "
                f"size={self.size}, nodes={self.num_nodes() if self.root_id else 0})")
