"""Tree construction: STR bulk loading and insertion loading.

:func:`bulk_load` packs STR-ordered keys into full leaves and builds the
upper levels bottom-up, recomputing each level's bounding predicates with
the extension's own constructors — so a JB tree gets bitten predicates at
every level, an SS-tree gets spheres, and so on.  :func:`insertion_load`
builds the same tree through repeated INSERT calls, the configuration the
paper contrasts in Table 2.

Pipeline
--------
Each level is built as a batch: the packing order is computed once,
split into chunks with :func:`~repro.bulk.str_pack.chunk_sizes`, and
every chunk's page id is allocated *in chunk order* before any node is
built.  Nodes are then assembled, their bounding predicates constructed
as one ``(nodes, numbers)`` row block by a single
:meth:`~repro.gist.extension.GiSTExtension.preds_for_nodes` call, and
the whole level written through the store's batched :meth:`write_many`
path; the level above packs that block's rows.

Page bytes are a pure function of the keys and the seed: the packing
order and the page ids follow from the keys alone, and randomized
predicate constructions draw from RNGs keyed to the node's
``(level, chunk index)`` position rather than a shared stream
(``tests/storage/test_golden_format.py`` pins the resulting files).
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.amdb.profiler import BuildProfile
from repro.constants import DEFAULT_PAGE_SIZE
from repro.bulk.str_pack import chunk_sizes, str_order
from repro.gist.extension import GiSTExtension
from repro.gist.node import Node
from repro.gist.tree import GiST

#: default bulk fill fraction; full pages maximize utilization as the
#: paper's STR loading does, while leaving headroom for later inserts.
DEFAULT_FILL = 1.0


def _resolve_ordering(order):
    """Map an ordering name to its function (see repro.bulk.spacefill)."""
    if callable(order):
        return order
    if order == "str":
        return str_order
    if order in ("morton", "hilbert"):
        from repro.bulk import spacefill
        return getattr(spacefill, f"{order}_order")
    raise ValueError(f"unknown bulk ordering {order!r}; "
                     "choose 'str', 'morton', 'hilbert', or a callable")


def bulk_load(ext: GiSTExtension, keys: np.ndarray,
              rids: Optional[Sequence[int]] = None,
              page_size: int = DEFAULT_PAGE_SIZE,
              store=None, fill: float = DEFAULT_FILL,
              order: str = "str",
              profile: Optional[BuildProfile] = None,
              leaf_codec=None) -> GiST:
    """Build a tree over ``keys`` using a packed ordering.

    ``order`` selects the packing: ``"str"`` (the paper's
    sort-tile-recursive, default), ``"hilbert"`` or ``"morton"``
    space-filling curves, or any callable ``(points, capacity) ->
    indices``.  ``rids`` default to ``0..n-1``; ``fill`` scales the
    per-page entry target (1.0 packs pages full).  Pass a
    :class:`~repro.amdb.profiler.BuildProfile` as ``profile`` to collect
    per-phase timings.

    Every input is checked before the store allocates a page, empty
    input included: ``keys`` must be a finite ``(n, ext.dim)`` array,
    ``rids`` ``n`` integers, ``fill`` in ``(0, 1]`` and ``order`` a
    known ordering; anything else raises ``ValueError``.

    ``leaf_codec`` overrides the leaf-page encoding (e.g. a
    :class:`~repro.storage.codecs.QuantizedLeafCodec` packs 4-6x more
    entries per page; with the default rids ``keys`` become its
    :attr:`GiST.exact`); leaf capacity and chunk sizes follow it.
    """
    keys = np.asarray(keys, dtype=np.float64)
    if keys.ndim != 2 or keys.shape[1] != ext.dim:
        raise ValueError(f"keys must be an (n, {ext.dim}) array, "
                         f"got shape {keys.shape}")
    if not np.isfinite(keys).all():
        # one NaN coordinate makes its leaf's MBR NaN, every min_dist to
        # it compares false, and the leaf's other keys become unreachable
        raise ValueError("keys must be finite (no NaN or inf)")
    n = len(keys)
    rid_array = np.arange(n, dtype=np.int64) if rids is None \
        else np.asarray(rids)
    if rid_array.shape != (n,):
        raise ValueError(f"{n} keys but rids of shape {rid_array.shape}")
    if n and not np.issubdtype(rid_array.dtype, np.integer):
        raise ValueError(f"rids must be integers, got {rid_array.dtype}")
    if not 0.0 < fill <= 1.0:
        raise ValueError(f"fill must be in (0, 1], got {fill}")
    order_fn = _resolve_ordering(order)

    prof = profile if profile is not None else BuildProfile()
    prof.tree_name = ext.name

    tree = GiST(ext, store=store, page_size=page_size,
                leaf_codec=leaf_codec)
    if n == 0:
        return tree
    t_start = time.perf_counter()
    _build(tree, keys, rid_array.astype(np.int64), fill, order_fn, prof)
    prof.total_seconds = time.perf_counter() - t_start
    if rids is None and tree.leaf_codec.lossy:
        tree.exact = keys
    return tree


def _build(tree: GiST, keys: np.ndarray, rids: np.ndarray, fill: float,
           order_fn, prof: BuildProfile) -> None:
    ext = tree.ext

    # -- leaf level --------------------------------------------------------
    leaf_target = max(tree.min_entries(0),
                      int(tree.leaf_capacity * fill))
    t0 = time.perf_counter()
    order = order_fn(keys, leaf_target)
    # One gather for the whole level: every leaf's keys and rids are
    # then contiguous slices (views) of these arrays — no per-entry
    # work and no per-chunk fancy indexing.
    ordered_keys = np.ascontiguousarray(keys[order])
    ordered_rids = rids[order]
    prof.add("sort", time.perf_counter() - t0)
    block, page_ids = _build_level(
        tree, 0,
        chunk_sizes(len(keys), leaf_target, tree.min_entries(0),
                    tree.leaf_capacity),
        ordered_keys, ordered_rids, prof)

    # -- upper levels -------------------------------------------------------
    level = 1
    index_target = max(tree.min_entries(1),
                       int(tree.index_capacity * fill))
    while len(page_ids) > 1:
        t0 = time.perf_counter()
        order = order_fn(ext.routing_points(block), index_target)
        prof.add("sort", time.perf_counter() - t0)
        block, page_ids = _build_level(
            tree, level,
            chunk_sizes(len(page_ids), index_target,
                        tree.min_entries(level), tree.index_capacity),
            block[order], page_ids[order], prof)
        level += 1

    root = tree.store.peek(int(page_ids[0]))
    tree.adopt(root, height=root.level + 1, size=len(keys))


def _build_level(tree: GiST, level: int, sizes: List[int],
                 rows: np.ndarray, ids: np.ndarray,
                 prof: BuildProfile) -> Tuple[np.ndarray, np.ndarray]:
    """Assemble, bound and write one whole level from its packed
    ``rows`` (keys, or the level below's predicate rows) and ``ids``
    (rids, or child page ids); returns the level's ``(block,
    page_ids)``, the predicate rows and page ids the level above packs,
    in chunk order.

    Page ids are allocated here, in chunk order, before any node is
    built, so they follow from the chunk sizes alone.
    """
    page_ids = [tree.store.allocate() for _ in sizes]
    prof.nodes_by_level[level] = len(sizes)

    t0 = time.perf_counter()
    nodes = []
    start = 0
    for page_id, size in zip(page_ids, sizes):
        # rows/ids arrive pre-ordered: a node is two array views
        span = slice(start, start + size)
        start += size
        nodes.append(Node.leaf_from_arrays(page_id, rows[span], ids[span])
                     if level == 0 else
                     Node.inner_from_block(page_id, level, rows[span],
                                           ids[span]))
    prof.add("pack", time.perf_counter() - t0)

    t0 = time.perf_counter()
    block = tree.ext.preds_for_nodes(
        nodes, [(level, ci) for ci in range(len(nodes))])
    prof.add("bp", time.perf_counter() - t0)

    t0 = time.perf_counter()
    tree.store.write_many(nodes)
    prof.add("write", time.perf_counter() - t0)
    return block, np.array(page_ids, dtype=np.int64)


def insertion_load(ext: GiSTExtension, keys: np.ndarray,
                   rids: Optional[Sequence[int]] = None,
                   page_size: int = DEFAULT_PAGE_SIZE,
                   store=None, shuffle_seed: Optional[int] = None,
                   leaf_codec=None) -> GiST:
    """Build a tree by inserting keys one at a time (Table 2's contrast).

    ``shuffle_seed`` randomizes insertion order; ``None`` inserts in the
    given order.  ``exact`` is attached as :func:`bulk_load` does; a
    lossy leaf codec with explicit ``rids`` has none to write from, so
    it raises ``ValueError`` before the first page is written.
    """
    keys = np.asarray(keys, dtype=np.float64)
    n = len(keys)
    default_rids = rids is None
    rids = list(range(n) if default_rids else rids)
    order = np.arange(n)
    if shuffle_seed is not None:
        order = np.random.default_rng(shuffle_seed).permutation(n)

    tree = GiST(ext, store=store, page_size=page_size,
                leaf_codec=leaf_codec)
    if tree.leaf_codec.lossy:
        if not default_rids:
            raise ValueError(
                "a quantized tree writes from GiST.exact, which "
                "insertion_load attaches only for the default rids")
        # attached first: a quantized tree refits its pages to these
        tree.exact = keys
    for i in order:
        tree.insert(keys[i], rids[i])
    return tree
