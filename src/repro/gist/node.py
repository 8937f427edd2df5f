"""Tree nodes: one page each, with lazy per-node computation caches."""

from __future__ import annotations

from typing import Any, List, Optional

import numpy as np

from repro.gist.entry import IndexEntry, LeafEntry


class Node:
    """A tree node occupying exactly one page.

    ``level`` 0 means leaf.  ``entries`` holds :class:`LeafEntry` items at
    the leaf level and :class:`IndexEntry` items above it.  The ``cache``
    dict lets extensions memoize stacked-array views of the entries (for
    vectorized distance computation); any structural mutation must go
    through the mutator methods so the derived views are invalidated.

    An inner node decoded from a page (:meth:`inner_from_block`) stays
    block-backed through :meth:`add_entry`, :meth:`remove_entry_at` and
    :meth:`replace_entry`: each edits a copy of the predicate block and
    of the child array (never the page image they were read from),
    encodes the installed predicate into its row and keeps the object
    for :meth:`pred_at`.  Only :meth:`set_entries` turns a node back
    into a plain entry list.
    """

    __slots__ = ("page_id", "level", "_entries", "_pred_codec", "cache")

    def __init__(self, page_id: int, level: int, entries: Optional[List] = None) -> None:
        self.page_id = page_id
        self.level = level
        self._entries: Optional[List] = \
            list(entries) if entries is not None else []
        #: decodes one row of a block-decoded inner node's predicates.
        self._pred_codec: Any = None
        self.cache: dict = {}

    @classmethod
    def leaf_from_arrays(cls, page_id: int, keys: np.ndarray,
                         rids: np.ndarray) -> "Node":
        """A leaf backed by stacked arrays, entry objects deferred.

        The bulk loader packs leaves by slicing the level's ordered key
        and rid arrays; building a :class:`~repro.gist.entry.LeafEntry`
        per row would cost more than everything else the loader does to
        the node.  The arrays land directly in the node cache (where
        :meth:`keys_array` / :meth:`rid_array` read them), and
        :attr:`entries` materializes lazily on first access.
        """
        node = cls(page_id, 0)
        node._entries = None
        node.cache["keys"] = keys
        node.cache["rids"] = rids
        return node

    @classmethod
    def inner_from_block(cls, page_id: int, level: int, block: np.ndarray,
                         children: np.ndarray, pred_codec: Any) -> "Node":
        """An inner node backed by its page body, entry objects deferred.

        ``block`` is the ``(n, numbers)`` float64 matrix of the stored
        predicates and ``children`` the ``(n,)`` int64 child page ids,
        both views over the page image
        (:meth:`~repro.storage.codecs.IndexEntryCodec.decode_block`).
        Extensions slice their stacked geometry straight out of
        :meth:`pred_block`; a predicate object is built — by
        ``pred_codec.decode`` on its row — only when :meth:`pred_at`
        or :attr:`entries` asks for it.
        """
        node = cls(page_id, level)
        node._entries = None
        node._pred_codec = pred_codec
        node.cache["block"] = block
        node.cache["children"] = children
        return node

    @property
    def entries(self) -> List:
        if self._entries is None:
            if self.level == 0:
                self._entries = [LeafEntry(k, int(r)) for k, r
                                 in zip(self.keys_array(),
                                        self.cache["rids"])]
            else:
                self._entries = [
                    IndexEntry(self.pred_at(i), child) for i, child
                    in enumerate(self.cache["children"].tolist())]
        return self._entries

    @entries.setter
    def entries(self, value: List) -> None:
        self._entries = value

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def __len__(self) -> int:
        if self._entries is None:
            return len(self.cache["rids" if self.level == 0
                                  else "children"])
        return len(self._entries)

    # -- mutation (cache-invalidating) --------------------------------------

    def add_entry(self, entry: Any) -> None:
        if "block" not in self.cache:
            self.entries.append(entry)
            self.cache.clear()
            return
        index = len(self)
        preds = dict(self.cache.get("preds", {}))
        preds[index] = entry.pred
        self._edit_block(
            np.concatenate((self.cache["block"], self._row(entry.pred))),
            np.append(self.cache["children"], entry.child), preds)
        if self._entries is not None:
            self._entries.append(entry)

    def remove_entry_at(self, index: int) -> None:
        if "block" not in self.cache:
            del self.entries[index]
            self.cache.clear()
            return
        index = range(len(self))[index]
        preds = {i - (i > index): pred for i, pred
                 in self.cache.get("preds", {}).items() if i != index}
        self._edit_block(np.delete(self.cache["block"], index, axis=0),
                         np.delete(self.cache["children"], index), preds)
        if self._entries is not None:
            del self._entries[index]

    def set_entries(self, entries: List) -> None:
        self.entries = list(entries)
        self.cache.clear()

    def replace_entry(self, index: int, entry: Any) -> None:
        if "block" not in self.cache:
            self.entries[index] = entry
            self.cache.clear()
            return
        index = range(len(self))[index]
        block = self.cache["block"].copy()
        block[index] = self._row(entry.pred)
        children = self.cache["children"].copy()
        children[index] = entry.child
        preds = dict(self.cache.get("preds", {}))
        preds[index] = entry.pred
        self._edit_block(block, children, preds)
        if self._entries is not None:
            self._entries[index] = entry

    def _row(self, pred: Any) -> np.ndarray:
        """``pred`` encoded as a ``(1, numbers)`` predicate-block row."""
        return np.frombuffer(self._pred_codec.encode(pred),
                             dtype="<f8")[None]

    def _edit_block(self, block: np.ndarray, children: np.ndarray,
                    preds: dict) -> None:
        """Install an edited block-backed state; every view derived from
        the old block (bounds, bite packs, ...) is dropped."""
        self.cache = {"block": block, "children": children,
                      "preds": preds}

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

        A leaf decoded from a quantized page caches a lazy
        ``QuantizedKeys`` block; the first call here materializes the
        float64 reconstruction (and stashes the quantization half
        widths for :meth:`key_halfwidths`), so pages whose keys are
        never touched never pay for the floats.
        """
        if not self.is_leaf:
            raise ValueError("keys_array is only defined for leaves")
        cached = self.cache.get("keys")
        if cached is None:
            cached = np.stack([e.key for e in self.entries]) \
                if self.entries else np.empty((0, 0))
            self.cache["keys"] = cached
        elif not isinstance(cached, np.ndarray):
            self.cache["qhalf"] = cached.half_widths()
            self.cache["qblock"] = cached
            cached = cached.dequantize()
            self.cache["keys"] = cached
        return cached

    def key_halfwidths(self) -> Optional[np.ndarray]:
        """Per-dimension quantization half widths, or None if exact.

        Non-None only for leaves decoded from a lossy (SQ8) page: every
        originally inserted key lies within these half widths of the
        reconstructed key along each axis; treecheck checks the bound,
        and the k-NN kernels rank such a leaf by ``GiST.exact`` instead.
        """
        if not self.is_leaf:
            raise ValueError("key_halfwidths is only defined for leaves")
        half = self.cache.get("qhalf")
        if half is None:
            cached = self.cache.get("keys")
            if cached is not None and not isinstance(cached, np.ndarray):
                half = cached.half_widths()
                self.cache["qhalf"] = half
        return half

    def quantized_block(self) -> Any:
        """The decoded ``QuantizedKeys`` block, or None if exact."""
        if not self.is_leaf:
            return None
        block = self.cache.get("qblock")
        if block is None:
            cached = self.cache.get("keys")
            if cached is not None and not isinstance(cached, np.ndarray):
                block = cached
        return block

    def rids(self) -> List[int]:
        if not self.is_leaf:
            raise ValueError("rids is only defined for leaves")
        if self._entries is None:
            return [int(r) for r in self.cache["rids"]]
        return [e.rid for e in self.entries]

    def rid_array(self) -> np.ndarray:
        """Stacked ``(n,)`` int64 array of leaf rids (leaf nodes only)."""
        if not self.is_leaf:
            raise ValueError("rid_array is only defined for leaves")
        cached = self.cache.get("rids")
        if cached is None:
            cached = np.fromiter((e.rid for e in self.entries),
                                 dtype=np.int64, count=len(self.entries))
            self.cache["rids"] = cached
        return cached

    def preds(self) -> List:
        if self.is_leaf:
            raise ValueError("preds is only defined for internal nodes")
        return [e.pred for e in self.entries]

    def pred_block(self) -> Optional[np.ndarray]:
        """The stored predicates as one ``(n, numbers)`` float64 matrix.

        Non-None only for an inner node decoded by
        :meth:`inner_from_block` (mutators edit a copy of it; only
        :meth:`set_entries` drops it); columns follow the extension's
        predicate codec layout.
        """
        return self.cache.get("block")

    def pred_at(self, index: int) -> Any:
        """Entry ``index``'s predicate (inner nodes only).

        On a block-decoded node this builds — once — just that entry's
        predicate object; the search calls it for the few entries whose
        bound it refines, not for every entry it ranks.
        """
        if self._entries is not None:
            return self._entries[index].pred
        built = self.cache.setdefault("preds", {})
        pred = built.get(index)
        if pred is None:
            pred = self._pred_codec.decode(
                self.cache["block"][index].tobytes())
            built[index] = pred
        return pred

    def child_array(self) -> np.ndarray:
        """Stacked ``(n,)`` int64 array of child page ids (inner only)."""
        if self.is_leaf:
            raise ValueError("child_array is only defined for internal "
                             "nodes")
        cached = self.cache.get("children")
        if cached is None:
            cached = np.fromiter((e.child for e in self.entries),
                                 dtype=np.int64, count=len(self.entries))
            self.cache["children"] = cached
        return cached

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
