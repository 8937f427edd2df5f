"""The GiST template algorithms: k-NN search, insert, delete, maintenance.

The tree is parameterized by a :class:`~repro.gist.extension.GiSTExtension`
and a page file.  Fanout is *real*: a node overflows when its fixed-size
entries exceed the page payload, so predicate size (Table 3 of the paper)
directly shapes the tree.

Query operations (:meth:`GiST.knn` and its batch and cursor forms) read nodes
through :meth:`GiST._read_query`, which books every node it returns in
:attr:`GiST.stats` and tells the tree's listeners; maintenance operations
(insert, delete, bulk load) use the store's ``peek`` path, so page
statistics reflect query work only — matching how amdb measures
workloads.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.constants import DEFAULT_PAGE_SIZE, TARGET_UTILIZATION
from repro.gist.degrade import DegradationReport
from repro.gist.extension import GiSTExtension
from repro.gist.node import Node
from repro.gist.nn import knn_search, nn_cursor
from repro.storage.buffer import BufferPool
from repro.storage.codecs import InnerBodyCodec, LeafBodyCodec, NodeCodec
from repro.storage.errors import PageCorruptError
from repro.storage.page import entries_per_page, page_payload
from repro.storage.pagefile import PageStats

AccessListener = Callable[[int, int], None]
"""Called as ``listener(page_id, level)`` on every counted access."""

#: minimum fill fraction enforced by splits and deletes (Guttman's m).
MIN_FILL = 0.4


def _finite_key(key: Any) -> np.ndarray:
    """The one ingress check for insert/delete keys: float64, finite."""
    key = np.asarray(key, dtype=np.float64)
    if not np.isfinite(key).all():
        raise ValueError("keys must be finite (no NaN or inf)")
    return key


def _entries(node: Node) -> List[Tuple[int, np.ndarray, int]]:
    """A node's entries as ``(level, row, id)`` orphans: keys and rids,
    or predicate rows and child page ids."""
    return [(node.level, row, ident)
            for row, ident in zip(node.rows(), node.ids().tolist())]


def _key_hits(leaf: Node, key: np.ndarray) -> np.ndarray:
    """Which of a leaf's stored keys equal ``key`` exactly."""
    if not len(leaf):
        return np.zeros(0, dtype=bool)
    return (leaf.keys_array() == key).all(axis=1)


class GiST:
    """A height-balanced multi-way search tree specialized by an extension.

    With no ``store`` the tree lives in memory: its pages are images in
    an anonymous :class:`~repro.storage.diskfile.FilePageFile` behind a
    :class:`~repro.storage.buffer.BufferPool` that keeps every page.
    """

    def __init__(self, extension: GiSTExtension, store: Any = None,
                 page_size: int = DEFAULT_PAGE_SIZE,
                 leaf_codec: Optional[LeafBodyCodec] = None) -> None:
        self.ext = extension
        self.page_size = page_size
        if leaf_codec is None:
            # A page-file store already committed to a leaf format
            # (e.g. an SQ8 FilePageFile); the tree must agree with it
            # or capacities and re-encodes would silently diverge.
            store_codec = getattr(
                getattr(store, "codec", None), "leaf_codec", None)
            if store_codec is not None and store_codec.dim == extension.dim:
                leaf_codec = store_codec
            else:
                leaf_codec = LeafBodyCodec(extension.dim)
        self.leaf_codec = leaf_codec
        self.index_codec = InnerBodyCodec(extension.pred_codec())
        if store is None:
            # a call-time import: diskfile imports repro.gist itself
            from repro.storage.diskfile import FilePageFile
            store = BufferPool(FilePageFile(
                None, NodeCodec(page_size, leaf_codec, self.index_codec),
                mmap_mode=True), math.inf)
        self.store = store
        #: the tree's query reads, one per node :meth:`_read_query` returns
        self.stats = PageStats()
        self._listeners: List[AccessListener] = []
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

    # -- access accounting ---------------------------------------------------

    def add_listener(self, listener: AccessListener) -> None:
        self._listeners.append(listener)

    def remove_listener(self, listener: AccessListener) -> None:
        self._listeners.remove(listener)

    def _read_query(self, page_id: int,
                    level: Optional[int] = None) -> Optional[Node]:
        """The one counted read of the query paths: ``store.read``, then
        the node is booked in :attr:`stats` and each listener is called
        with ``(page_id, level)``.  None when quarantined.

        ``level`` is the level the caller expects the page at (known
        from the parent), used only to estimate what was lost.
        """
        if self.quarantine_enabled and page_id in self._quarantined:
            return None
        try:
            node = self.store.read(page_id)
        except PageCorruptError as exc:
            if not self.quarantine_enabled:
                raise
            self._quarantine(page_id, level, exc)
            return None
        self.stats.record_read(node.level)
        for listener in self._listeners:
            listener(page_id, node.level)
        return node

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

    def _new_node(self, level: int, rows: np.ndarray,
                  ids: np.ndarray) -> Node:
        page_id = self.store.allocate()
        node = Node.leaf_from_arrays(page_id, rows, ids) if level == 0 \
            else Node.inner_from_block(page_id, level, rows, ids)
        self.store.write(node)
        return node

    def _bound(self, node: Node) -> np.ndarray:
        """A recomputed bounding predicate row for ``node``."""
        return self.ext.preds_for_nodes([node])[0]

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
        """:meth:`knn` for each query of a ``(Q, dim)`` block, in order.

        Results and counted page accesses are those of per-query
        :meth:`knn` calls; queries share decoded nodes only through a
        :class:`~repro.storage.buffer.BufferPool` store's frames.  See
        :func:`repro.gist.batch.knn_search_batch`.
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
        would poison every later query.  So does a quantized tree
        without ``exact`` keys for ``rid`` (:meth:`_check_exact`).
        """
        key = _finite_key(key)
        self._check_exact(rid)
        self._insert_entry(key, rid, target_level=0, routing_key=key)
        self.size += 1

    def _check_exact(self, rid: int) -> None:
        """Refuse a write to a quantized tree unless :attr:`exact` holds
        ``rid``'s original key: its pages are re-encoded, and its
        predicates fit, from those (:meth:`_peek`), never from
        reconstructions."""
        if not self.leaf_codec.lossy:
            return
        if self.exact is None or not 0 <= rid < len(self.exact):
            raise ValueError(
                f"a quantized tree writes from GiST.exact; attach the "
                f"(N, dim) keys by rid, covering rid {rid}, before "
                f"inserting or deleting")

    def _insert_entry(self, row: np.ndarray, ident: int, target_level: int,
                      routing_key: np.ndarray) -> None:
        """Insert the entry ``(row, ident)`` into a node at
        ``target_level``.

        ``target_level`` 0 inserts a leaf entry (a key and its rid);
        higher levels re-attach orphaned subtrees (a predicate row and
        its child page id) during delete condensation.
        """
        if self.root_id is None:
            if target_level != 0:
                raise ValueError("cannot graft a subtree into an empty tree")
            root = self._new_node(0, np.array(row, dtype=np.float64)[None],
                                  np.array([ident], dtype=np.int64))
            self.root_id = root.page_id
            self.height = 1
            return

        path = self._choose_path(routing_key, target_level)
        node = path[-1][0]
        node.append(row, ident)
        # An overflowing node never reaches the store: the split writes
        # both halves (page images cannot hold an oversize node).
        if len(node) > self.capacity(node.level):
            self._split(node, path[:-1])
        elif target_level > 0:
            # Grafting an orphaned subtree (delete condensation): the
            # ancestors must cover the subtree's whole predicate, not
            # just its routing point.
            self.store.write(node)
            self._adjust_upward(path, routing_key=None, changed=[row])
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
        left, right = self.ext.pick_split(node, self.min_entries(level))
        if not len(left) or not len(right):
            raise RuntimeError(
                f"{self.ext.name} pick_split produced an empty side")
        right = np.asarray(right, dtype=np.intp)
        sibling = self._new_node(level, node.rows()[right],
                                 node.ids()[right])
        node.keep(left)
        self.store.write(node)

        left_row = self._bound(node)
        right_row = self._bound(sibling)

        if not ancestors:
            # Node was the root: grow the tree by one level.
            root = self._new_node(
                level + 1, np.stack((left_row, right_row)),
                np.array([node.page_id, sibling.page_id], dtype=np.int64))
            self.root_id = root.page_id
            self.height += 1
            return

        parent, _ = ancestors[-1]
        parent.set_row(parent.find_child_index(node.page_id), left_row)
        parent.append(right_row, sibling.page_id)
        if len(parent) > self.capacity(parent.level):
            self._split(parent, ancestors[:-1])
        elif self.incremental_adjust:
            # The parent's entries already hold both halves' exact
            # predicates; ancestors only need widening over the two
            # changed child rows, no recompute.
            self.store.write(parent)
            self._adjust_upward(ancestors[:-1], routing_key=None,
                                changed=[left_row, right_row])
        else:
            self.store.write(parent)
            self._adjust_upward(ancestors, routing_key=None)

    def _adjust_upward(self, path: List[Tuple[Node, int]],
                       routing_key: Optional[np.ndarray],
                       changed: Optional[List[np.ndarray]] = None) -> None:
        """Restore bounding predicates bottom-up along an insert path.

        Stops early once an existing predicate already covers what
        changed below it and nothing beneath was rewritten — ancestors
        then cover it too, by the tree's containment invariant.

        ``changed`` seeds the first adjusted level with the exact
        predicate rows newly installed below it (a grafted subtree's
        row, or both halves of a split): the predicate must cover
        those, not merely the routing point.

        With :attr:`incremental_adjust` set, the extension's ``widen``
        hooks *widen* predicates instead of recomputing whole nodes; a
        hook returning the identical row means "already covered", which
        ends the climb.
        """
        ext = self.ext
        child_row = None
        for node, child_idx in reversed(path):
            if child_idx < 0:
                continue
            row = node.pred_block()[child_idx]
            if child_row is None:
                if changed is not None:
                    if all(ext.covers(row, c) for c in changed):
                        return
                elif (routing_key is not None
                        and ext.covers_key(row, routing_key)):
                    return
            new_row = None
            if self.incremental_adjust:
                if child_row is not None:
                    new_row = ext.widen(row, child_row)
                elif changed is not None:
                    new_row = row
                    for c in changed:
                        new_row = ext.widen(new_row, c)
                        if new_row is None:
                            break
                elif routing_key is not None:
                    new_row = ext.widen_key(row, routing_key)
                if new_row is row:
                    # Already covers what changed below; by containment,
                    # every ancestor does too.
                    return
            if new_row is None:
                new_row = self._bound(
                    self._peek(int(node.child_array()[child_idx])))
            node.set_row(child_idx, new_row)
            self.store.write(node)
            child_row = new_row
            changed = None

    # -- deletion ----------------------------------------------------------------------

    def delete(self, key: np.ndarray, rid: int) -> bool:
        """Remove one ``(key, RID)`` pair; returns whether it was found.

        A non-finite key raises ValueError, as it does for
        :meth:`insert`, and so does a quantized tree without ``exact``
        keys for ``rid`` (:meth:`_check_exact`): with them, every leaf
        the descent reads holds the original keys its predicates were
        fit to, so a lossy tree is searched as an exact one is.
        """
        key = _finite_key(key)
        self._check_exact(rid)
        if self.root_id is None:
            return False
        path = self._find_leaf(self.root_id, key, rid, [])
        if path is None:
            return False
        leaf = path[-1]
        hits = (leaf.rid_array() == rid) & _key_hits(leaf, key)
        leaf.remove(int(hits.argmax()))
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

    def _condense(self, path: List[Node]) -> None:
        """R-tree style CondenseTree: dissolve underfull nodes, reinsert."""
        # (level, row, id): a key and rid, or a predicate row and child
        orphans: List[Tuple[int, np.ndarray, int]] = []
        for depth in range(len(path) - 1, 0, -1):
            node = path[depth]
            parent = path[depth - 1]
            idx = parent.find_child_index(node.page_id)
            if len(node) < self.min_entries(node.level):
                parent.remove(idx)
                self.store.write(parent)
                orphans.extend(_entries(node))
                self.store.free(node.page_id)
            else:
                parent.set_row(idx, self._bound(node))
                self.store.write(parent)

        self._shrink_root()
        # Reinsert highest-level orphans first so the tree regains height
        # before lower orphans are routed through it.
        for level, row, ident in sorted(orphans, key=lambda o: -o[0]):
            # The entry belongs in a node at `level`; if root shrinkage
            # left the tree shorter than that, flatten the orphan subtree
            # by one level and retry.
            pending = [(level, row, ident)]
            while pending:
                lvl, row, ident = pending.pop()
                if lvl == 0:
                    self._insert_entry(row, ident, 0, row)
                    continue
                root = self._peek(self.root_id) if self.root_id else None
                if root is None or root.level < lvl:
                    child = self._peek(ident)
                    pending.extend(_entries(child))
                    self.store.free(child.page_id)
                    continue
                routing = self.ext.routing_points(row[None])[0]
                self._insert_entry(row, ident, lvl, routing)

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
        if root.is_leaf and not len(root) and self.size == 0:
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
                for child in node.children():
                    parents[child] = node.page_id
        return parents

    def root_fanout(self) -> int:
        if self.root_id is None:
            return 0
        return len(self._peek(self.root_id))

    def __repr__(self) -> str:
        return (f"GiST({self.ext.name}, height={self.height}, "
                f"size={self.size}, nodes={self.num_nodes() if self.root_id else 0})")
