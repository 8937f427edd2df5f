"""Tree nodes: one page each, held as the page's arrays, with lazy
per-node computation caches."""

from __future__ import annotations

from typing import Any, List, Optional

import numpy as np


class Node:
    """A tree node occupying exactly one page, held as that page's arrays.

    ``level`` 0 means leaf.  A leaf holds its ``(n, dim)`` float64 keys
    — or an SQ8 page's lazy ``QuantizedKeys`` block — and its ``(n,)``
    int64 rids.  An inner node holds its ``(n, numbers)`` float64
    predicate block, one row per entry in the extension's predicate
    codec layout, and its ``(n,)`` int64 child page ids.

    Those arrays are the node's whole state — exactly what its page
    image stores — whether the node was decoded from a page, packed by
    the bulk loader or built by an insert.  A mutator takes rows (a key
    or a predicate row) and never edits the arrays in place (they may
    be views over a page image or an mmap): it builds new ones and
    empties :attr:`cache`, which only ever holds views derived from
    them.
    """

    __slots__ = ("page_id", "level", "_rows", "_ids", "cache")

    def __init__(self, page_id: int, level: int) -> None:
        """An empty node."""
        self.page_id = page_id
        self.level = level
        #: leaf keys (an array or ``QuantizedKeys``) or predicate block.
        self._rows: Any = np.empty((0, 0))
        #: leaf rids or child page ids.
        self._ids = np.empty(0, dtype=np.int64)
        #: derived views (extension geometry, dequantized keys).
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
                         children: np.ndarray) -> "Node":
        """An inner node holding the ``(n, numbers)`` predicate ``block``
        and ``(n,)`` int64 ``children`` as given (a decoded page's views,
        :meth:`~repro.storage.codecs.InnerBodyCodec.decode_block`)."""
        node = cls(page_id, level)
        node._rows = block
        node._ids = children
        return node

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def __len__(self) -> int:
        return len(self._ids)

    # -- mutation (cache-invalidating) --------------------------------------

    def append(self, row: np.ndarray, ident: int) -> None:
        """Add an entry: a key and its rid, or a predicate row and its
        child page id."""
        row = np.array(row, dtype=np.float64)[None]
        self._install(np.concatenate((self.rows(), row))
                      if len(self) else row, np.append(self._ids, ident))

    def set_row(self, index: int, row: np.ndarray) -> None:
        """Replace entry ``index``'s row, keeping its id."""
        rows = self.rows().copy()
        rows[index] = row
        self._install(rows, self._ids)

    def remove(self, index: int) -> None:
        """Drop entry ``index``."""
        index = range(len(self))[index]
        self._install(np.delete(self.rows(), index, axis=0),
                      np.delete(self._ids, index))

    def keep(self, indices: Any) -> None:
        """Keep only the entries at ``indices``, in that order (one
        half of a split)."""
        indices = np.asarray(indices, dtype=np.intp)
        self._install(self.rows()[indices], self._ids[indices])

    def rows(self) -> np.ndarray:
        """The node's float64 rows: leaf keys or predicate block."""
        return self.keys_array() if self.is_leaf else self._rows

    def ids(self) -> np.ndarray:
        """The node's ``(n,)`` int64 ids: leaf rids or child page ids."""
        return self._ids

    def _install(self, rows: np.ndarray, ids: np.ndarray) -> None:
        """Hold the edited arrays; every view derived from the old ones
        (bounds, bite packs, ...) is dropped."""
        self._rows = rows
        self._ids = ids
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

    def pred_block(self) -> np.ndarray:
        """The stored predicates as one ``(n, numbers)`` float64 matrix
        (inner nodes only); columns follow the extension's predicate
        codec layout."""
        if self.is_leaf:
            raise ValueError("pred_block is only defined for internal "
                             "nodes")
        return self._rows

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
