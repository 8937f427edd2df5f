"""Tree nodes: one page each, held as the page's arrays, with lazy
per-node computation caches."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.gist.entry import IndexEntry, LeafEntry


class Node:
    """A tree node occupying exactly one page, held as that page's arrays.

    ``level`` 0 means leaf.  A leaf holds its ``(n, dim)`` float64 keys
    — or an SQ8 page's lazy ``QuantizedKeys`` block — and its ``(n,)``
    int64 rids.  An inner node holds its ``(n, numbers)`` float64
    predicate block, columns in the extension's predicate codec layout,
    and its ``(n,)`` int64 child page ids, plus that codec and a memo of
    the predicate objects it was given or has decoded (:meth:`pred_at`).

    Those arrays are the node's whole state — exactly what its page
    image stores — whether the node was decoded from a page, packed by
    the bulk loader or built by an insert.  :attr:`entries` and
    :meth:`preds` are read-only views built on demand.  A mutator never
    edits the arrays in place (they may be views over a page image or
    an mmap): it builds new ones, the installed predicate encoded into
    its row by the codec, and empties :attr:`cache`, which only ever
    holds views derived from them.
    """

    __slots__ = ("page_id", "level", "_rows", "_ids", "_pred_codec",
                 "_preds", "cache")

    def __init__(self, page_id: int, level: int) -> None:
        """An empty node."""
        self.page_id = page_id
        self.level = level
        #: leaf keys (an array or ``QuantizedKeys``) or predicate block.
        self._rows: Any = np.empty((0, 0))
        #: leaf rids or child page ids.
        self._ids = np.empty(0, dtype=np.int64)
        #: encodes and decodes one predicate-block row (inner nodes).
        self._pred_codec: Any = None
        #: row index -> that row's predicate object, once known.
        self._preds: Dict[int, Any] = {}
        #: derived views (extension geometry, dequantized keys, entries).
        self.cache: dict = {}

    @classmethod
    def leaf_from_arrays(cls, page_id: int, keys: Any,
                         rids: np.ndarray) -> "Node":
        """A leaf holding ``keys`` (``(n, dim)`` float64, or a lazy
        ``QuantizedKeys`` block) and ``(n,)`` int64 ``rids`` as given —
        the bulk loader's slices and a decoded page's views alike."""
        node = cls(page_id, 0)
        node._rows = keys
        node._ids = rids
        return node

    @classmethod
    def inner_from_block(cls, page_id: int, level: int, block: np.ndarray,
                         children: np.ndarray, pred_codec: Any) -> "Node":
        """An inner node holding the ``(n, numbers)`` predicate ``block``
        and ``(n,)`` int64 ``children`` as given (a decoded page's views,
        :meth:`~repro.storage.codecs.IndexEntryCodec.decode_block`);
        ``pred_codec`` decodes a row when :meth:`pred_at` asks for it."""
        node = cls(page_id, level)
        node._pred_codec = pred_codec
        node._rows = block
        node._ids = children
        return node

    @classmethod
    def from_entries(cls, page_id: int, level: int, entries: Sequence,
                     pred_codec: Any = None) -> "Node":
        """A node built from entry objects, stacked into arrays:
        :class:`LeafEntry` items at level 0, :class:`IndexEntry` items
        above it, whose predicates ``pred_codec`` encodes into rows (and
        which :meth:`pred_at` then returns as given)."""
        node = cls(page_id, level)
        node._pred_codec = pred_codec
        node.set_entries(entries)
        return node

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def entries(self) -> Tuple:
        """The node's entries as a tuple of entry objects (a read-only
        view; change a node through its mutators)."""
        def build() -> Tuple:
            if self.is_leaf:
                return tuple(LeafEntry(k, int(r)) for k, r
                             in zip(self.keys_array(), self._ids))
            return tuple(IndexEntry(self.pred_at(i), child) for i, child
                         in enumerate(self._ids.tolist()))
        return self.cached("entries", build)

    # -- mutation (cache-invalidating) --------------------------------------

    def add_entry(self, entry: Any) -> None:
        row, ident = self._row(entry)
        count = len(self)
        preds = dict(self._preds)
        if not self.is_leaf:
            preds[count] = entry.pred
        self._install(
            np.concatenate((self._matrix(), row)) if count else row,
            np.append(self._ids, ident), preds)

    def remove_entry_at(self, index: int) -> None:
        index = range(len(self))[index]
        preds = {i - (i > index): pred for i, pred
                 in self._preds.items() if i != index}
        self._install(np.delete(self._matrix(), index, axis=0),
                      np.delete(self._ids, index), preds)

    def replace_entry(self, index: int, entry: Any) -> None:
        index = range(len(self))[index]
        row, ident = self._row(entry)
        rows = self._matrix().copy()
        rows[index] = row[0]
        ids = self._ids.copy()
        ids[index] = ident
        preds = dict(self._preds)
        if not self.is_leaf:
            preds[index] = entry.pred
        self._install(rows, ids, preds)

    def set_entries(self, entries: Sequence) -> None:
        entries = list(entries)
        if self.is_leaf:
            rows = np.stack([e.key for e in entries]) if entries \
                else np.empty((0, 0))
            ids = [e.rid for e in entries]
            preds: Dict[int, Any] = {}
        else:
            rows = self._encode([e.pred for e in entries])
            ids = [e.child for e in entries]
            preds = {i: e.pred for i, e in enumerate(entries)}
        self._install(rows, np.array(ids, dtype=np.int64), preds)

    def _matrix(self) -> np.ndarray:
        """The float64 rows a mutator edits: keys or predicate block."""
        return self.keys_array() if self.is_leaf else self._rows

    def _row(self, entry: Any) -> Tuple[np.ndarray, int]:
        """``entry`` as a ``(1, width)`` row and its id: a leaf entry's
        key and rid, an index entry's encoded predicate and child."""
        if self.is_leaf:
            return np.array(entry.key, dtype=np.float64)[None], entry.rid
        return self._encode([entry.pred]), entry.child

    def _encode(self, preds: List) -> np.ndarray:
        """``preds`` as predicate-block rows, by the node's codec."""
        codec = self._pred_codec
        return np.frombuffer(b"".join(codec.encode(p) for p in preds),
                             dtype="<f8").reshape(len(preds), codec.numbers)

    def _install(self, rows: np.ndarray, ids: np.ndarray,
                 preds: Dict[int, Any]) -> None:
        """Hold the edited arrays; every view derived from the old ones
        (bounds, bite packs, entries, ...) is dropped."""
        self._rows = rows
        self._ids = ids
        self._preds = preds
        self.cache = {}

    # -- cached views -----------------------------------------------------------

    def cached(self, key: str, build: Any) -> Any:
        """Memoize ``build()`` under ``key`` until the node mutates.

        Extensions use this to keep stacked geometry arrays (MBR
        ``lo``/``hi`` matrices, bite packs) alongside the decoded node,
        so repeated distance evaluations — one per query in a batch —
        are matrix operations instead of per-entry Python loops.
        """
        value = self.cache.get(key)
        if value is None:
            value = build()
            self.cache[key] = value
        return value

    def keys_array(self) -> np.ndarray:
        """Stacked ``(n, dim)`` array of leaf keys (leaf nodes only).

        A leaf decoded from a quantized page holds a lazy
        ``QuantizedKeys`` block; the first call here caches its float64
        reconstruction, so pages whose keys are never touched never pay
        for the floats.
        """
        if not self.is_leaf:
            raise ValueError("keys_array is only defined for leaves")
        block = self.quantized_block()
        if block is None:
            return self._rows
        return self.cached("keys", block.dequantize)

    def key_halfwidths(self) -> Optional[np.ndarray]:
        """Per-dimension quantization half widths, or None if exact.

        Non-None only for leaves decoded from a lossy (SQ8) page: every
        originally inserted key lies within these half widths of the
        reconstructed key along each axis; treecheck checks the bound,
        and the k-NN kernels rank such a leaf by ``GiST.exact`` instead.
        """
        if not self.is_leaf:
            raise ValueError("key_halfwidths is only defined for leaves")
        block = self.quantized_block()
        return None if block is None \
            else self.cached("qhalf", block.half_widths)

    def quantized_block(self) -> Any:
        """The decoded ``QuantizedKeys`` block, or None if exact."""
        if not self.is_leaf or isinstance(self._rows, np.ndarray):
            return None
        return self._rows

    def rids(self) -> List[int]:
        if not self.is_leaf:
            raise ValueError("rids is only defined for leaves")
        return self._ids.tolist()

    def rid_array(self) -> np.ndarray:
        """Stacked ``(n,)`` int64 array of leaf rids (leaf nodes only)."""
        if not self.is_leaf:
            raise ValueError("rid_array is only defined for leaves")
        return self._ids

    def preds(self) -> List:
        if self.is_leaf:
            raise ValueError("preds is only defined for internal nodes")
        return [self.pred_at(i) for i in range(len(self))]

    def pred_block(self) -> np.ndarray:
        """The stored predicates as one ``(n, numbers)`` float64 matrix
        (inner nodes only); columns follow the extension's predicate
        codec layout."""
        if self.is_leaf:
            raise ValueError("pred_block is only defined for internal "
                             "nodes")
        return self._rows

    def pred_at(self, index: int) -> Any:
        """Entry ``index``'s predicate (inner nodes only).

        The object the node was given for that entry, else — built once
        by the codec from its row — a decoded one; the search calls it
        for the few entries whose bound it refines, not for every entry
        it ranks.
        """
        pred = self._preds.get(index)
        if pred is None:
            pred = self._pred_codec.decode(self._rows[index].tobytes())
            self._preds[index] = pred
        return pred

    def child_array(self) -> np.ndarray:
        """Stacked ``(n,)`` int64 array of child page ids (inner only)."""
        if self.is_leaf:
            raise ValueError("child_array is only defined for internal "
                             "nodes")
        return self._ids

    def children(self) -> List[int]:
        return self.child_array().tolist()

    def find_child_index(self, child: int) -> int:
        hits = np.flatnonzero(self.child_array() == child)
        if not len(hits):
            raise KeyError(f"child page {child} not in node {self.page_id}")
        return int(hits[0])

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else f"inner(level={self.level})"
        return f"Node(page={self.page_id}, {kind}, entries={len(self)})"
