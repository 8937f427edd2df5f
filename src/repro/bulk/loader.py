"""Tree construction: STR bulk loading and insertion loading.

:func:`bulk_load` packs STR-ordered keys into full leaves and builds the
upper levels bottom-up, recomputing each level's bounding predicates with
the extension's own constructors — so a JB tree gets bitten predicates at
every level, an SS-tree gets spheres, and so on.  :func:`insertion_load`
builds the same tree through repeated INSERT calls, the configuration the
paper contrasts in Table 2.

Pipeline
--------
Each level is built as a batch: the parent computes the packing order,
splits it into chunks with :func:`~repro.bulk.str_pack.chunk_sizes`, and
allocates every chunk's page id *in chunk order* before any node is
built.  Nodes are then assembled, their bounding predicates constructed
in one vectorized :meth:`~repro.gist.extension.GiSTExtension.
preds_for_nodes` call, and the whole level written through the store's
batched :meth:`write_many` path.

With ``workers > 1`` the chunk list is sharded into contiguous ranges
and one forked worker builds each shard (the fork pattern of
:mod:`repro.storage.fork`).  The resulting page file is **byte-identical
to a sequential build at any worker count** because every input a page's
bytes depend on is fixed before the fork: page ids are pre-allocated in
chunk order, the packing order is computed once by the parent, and
randomized predicate constructions draw from RNGs keyed to the node's
``(level, index)`` position rather than a shared stream.  Workers write
their disjoint page ranges directly (through private descriptors) when
the store supports it, and ship nodes back for the parent to write
otherwise; either way the merge is in shard order.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.amdb.profiler import BuildProfile
from repro.constants import DEFAULT_PAGE_SIZE
from repro.bulk.str_pack import chunk_sizes, str_order
from repro.gist.entry import IndexEntry
from repro.gist.extension import GiSTExtension
from repro.gist.node import Node
from repro.gist.tree import GiST
from repro.storage.fork import (fork_available, reopen_files, shard_bounds,
                                usable_cpus)

#: default bulk fill fraction; full pages maximize utilization as the
#: paper's STR loading does, while leaving headroom for later inserts.
DEFAULT_FILL = 1.0

#: don't fork for a level with fewer chunks than this per worker — the
#: fork/IPC overhead would dominate (tiny upper levels, small builds).
_MIN_CHUNKS_PER_WORKER = 4


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
              order: str = "str", workers: int = 1,
              oversubscribe: bool = False,
              profile: Optional[BuildProfile] = None,
              leaf_codec=None) -> GiST:
    """Build a tree over ``keys`` using a packed ordering.

    ``order`` selects the packing: ``"str"`` (the paper's
    sort-tile-recursive, default), ``"hilbert"`` or ``"morton"``
    space-filling curves, or any callable ``(points, capacity) ->
    indices``.  ``rids`` default to ``0..n-1``; ``fill`` scales the
    per-page entry target (1.0 packs pages full).

    ``workers > 1`` builds each level's nodes in up to that many forked
    processes; the page file that results is byte-identical to a
    sequential build (see the module docstring for why).  Where fork is
    unavailable the build silently runs sequentially.  The effective
    worker count is clamped to the CPUs the process may run on —
    CPU-bound workers beyond that only add scheduling overhead — unless
    ``oversubscribe`` is True, which forks the full requested count
    regardless (useful for exercising the parallel merge path on small
    machines).  Pass a :class:`~repro.amdb.profiler.BuildProfile` as
    ``profile`` to collect per-phase timings.

    Keys must be finite: a NaN or infinite coordinate raises
    ``ValueError`` before the store allocates a page.

    ``leaf_codec`` overrides the leaf-page encoding (e.g. a
    :class:`~repro.storage.codecs.QuantizedLeafCodec` packs 4-6x more
    entries per page); leaf capacity and chunk sizes follow it.
    """
    keys = np.asarray(keys, dtype=np.float64)
    if keys.ndim != 2:
        raise ValueError("keys must be a 2-D (n, dim) array")
    if not np.isfinite(keys).all():
        # one NaN coordinate makes its leaf's MBR NaN, every min_dist to
        # it compares false, and the leaf's other keys become unreachable
        raise ValueError("keys must be finite (no NaN or inf)")
    n = len(keys)
    if rids is None:
        rids = range(n)
    rids = list(rids)
    if len(rids) != n:
        raise ValueError(f"{n} keys but {len(rids)} rids")

    prof = profile if profile is not None else BuildProfile()
    prof.tree_name = ext.name
    prof.n_keys = n
    prof.workers = max(1, workers)

    tree = GiST(ext, store=store, page_size=page_size,
                leaf_codec=leaf_codec)
    if n == 0:
        return tree
    was_counting = tree.store.counting
    tree.store.counting = False
    t_start = time.perf_counter()
    try:
        _build(tree, keys, rids, fill, _resolve_ordering(order),
               prof.workers, oversubscribe, prof)
    finally:
        tree.store.counting = was_counting
        prof.total_seconds = time.perf_counter() - t_start
    return tree


def _build(tree: GiST, keys: np.ndarray, rids, fill: float,
           order_fn, workers: int, oversubscribe: bool,
           prof: BuildProfile) -> None:
    ext = tree.ext
    if not 0.0 < fill <= 1.0:
        raise ValueError(f"fill must be in (0, 1], got {fill}")

    # -- leaf level --------------------------------------------------------
    leaf_target = max(tree.min_entries(0),
                      int(tree.leaf_capacity * fill))
    t0 = time.perf_counter()
    order = order_fn(keys, leaf_target)
    # One gather for the whole level: every leaf's keys and rids are
    # then contiguous slices (views) of these arrays — no per-entry
    # work and no per-chunk fancy indexing.
    ordered_keys = np.ascontiguousarray(keys[order])
    ordered_rids = np.asarray(rids, dtype=np.int64)[order]
    prof.add("sort", time.perf_counter() - t0)
    preds, page_ids = _build_level(
        tree, 0, None,
        chunk_sizes(len(keys), leaf_target, tree.min_entries(0),
                    tree.leaf_capacity),
        keys=ordered_keys, rids=ordered_rids, entries=None,
        workers=workers, oversubscribe=oversubscribe, prof=prof)
    entries = [IndexEntry(p, pid) for p, pid in zip(preds, page_ids)]

    # -- upper levels -------------------------------------------------------
    level = 1
    index_target = max(tree.min_entries(1),
                       int(tree.index_capacity * fill))
    while len(entries) > 1:
        t0 = time.perf_counter()
        centers = ext.routing_points_multi([e.pred for e in entries])
        order = order_fn(centers, index_target)
        prof.add("sort", time.perf_counter() - t0)
        preds, page_ids = _build_level(
            tree, level, order,
            chunk_sizes(len(entries), index_target,
                        tree.min_entries(level), tree.index_capacity),
            keys=None, rids=None, entries=entries, workers=workers,
            oversubscribe=oversubscribe, prof=prof)
        entries = [IndexEntry(p, pid) for p, pid in zip(preds, page_ids)]
        level += 1

    root = tree.store.peek(entries[0].child)
    tree.adopt(root, height=root.level + 1, size=len(keys))


def _build_level(tree: GiST, level: int, order, sizes: List[int],
                 keys, rids, entries, workers: int, oversubscribe: bool,
                 prof: BuildProfile) -> Tuple[List, List[int]]:
    """Build one whole level; returns its (preds, page_ids) chunk-wise.

    Page ids are allocated here, in chunk order, before any node is
    built — the anchor that makes parallel builds byte-identical to
    sequential ones.
    """
    offsets = [0]
    for size in sizes:
        offsets.append(offsets[-1] + size)
    page_ids = [tree.store.allocate() for _ in sizes]
    prof.nodes_by_level[level] = len(sizes)

    use_workers = min(workers, len(sizes) // _MIN_CHUNKS_PER_WORKER)
    if not oversubscribe:
        use_workers = min(use_workers, usable_cpus())
    if use_workers > 1 and fork_available():
        prof.fork_workers = max(prof.fork_workers, use_workers)
        preds = _build_level_parallel(tree, level, order, sizes, offsets,
                                      page_ids, keys, rids, entries,
                                      use_workers, prof)
    else:
        preds, _, timings = _build_chunks(
            tree.ext, tree.store, level, order, sizes, offsets,
            0, len(sizes), page_ids, keys, rids, entries, write=True)
        for phase, seconds in timings.items():
            prof.add(phase, seconds)
    return preds, page_ids


def _build_chunks(ext, store, level: int, order, sizes, offsets,
                  lo: int, hi: int, page_ids, keys, rids, entries,
                  write: bool):
    """Assemble, bound, and (optionally) write chunks ``[lo, hi)``.

    The shared core of the sequential path and each forked worker.
    Returns ``(preds, nodes_or_None, phase_timings)``; nodes are
    returned only when ``write`` is False (the caller writes them).
    """
    timings: Dict[str, float] = {}
    t0 = time.perf_counter()
    nodes = []
    for ci in range(lo, hi):
        span = slice(offsets[ci], offsets[ci] + sizes[ci])
        if level == 0:
            # keys/rids arrive pre-ordered, so a leaf is two array
            # views; entry objects materialize only if someone later
            # walks the in-memory node.
            node = Node.leaf_from_arrays(page_ids[ci], keys[span],
                                         rids[span])
        else:
            node = Node(page_ids[ci], level,
                        [entries[i] for i in order[span]])
        nodes.append(node)
    timings["pack"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    preds = ext.preds_for_nodes(
        nodes, [(level, ci) for ci in range(lo, hi)])
    timings["bp"] = time.perf_counter() - t0

    if write:
        t0 = time.perf_counter()
        _write_many(store, nodes)
        timings["write"] = time.perf_counter() - t0
        nodes = None
    return preds, nodes, timings


def _write_many(store, nodes) -> None:
    write_many = getattr(store, "write_many", None)
    if write_many is not None:
        write_many(nodes)
    else:
        for node in nodes:
            store.write(node)


#: state the forked workers inherit copy-on-write (see repro.storage.fork).
_FORK_STATE: Dict = {}


def _build_level_parallel(tree: GiST, level: int, order, sizes, offsets,
                          page_ids, keys, rids, entries, workers: int,
                          prof: BuildProfile) -> List:
    """One level via forked workers over contiguous chunk shards."""
    global _FORK_STATE
    store = tree.store
    direct = bool(getattr(store, "supports_parallel_write", False))
    # Workers either reopen the file by path (direct writes) or read
    # nothing at all, but pre-fork buffered writes must hit the OS
    # before children touch the file.
    store.flush()
    bounds = shard_bounds(len(sizes), workers)
    _FORK_STATE = {"ext": tree.ext, "store": store, "level": level,
                   "order": order, "sizes": sizes, "offsets": offsets,
                   "page_ids": page_ids, "keys": keys, "rids": rids,
                   "entries": entries, "direct": direct}
    ctx = multiprocessing.get_context("fork")
    t_pool = time.perf_counter()
    try:
        with ctx.Pool(processes=len(bounds)) as pool:
            outcomes = pool.map(_worker_build, bounds)
    finally:
        _FORK_STATE = {}
    wall = time.perf_counter() - t_pool

    # Deterministic merge: pool.map returns outcomes in shard order (=
    # chunk order) no matter which worker finished first.
    preds: List = []
    busy = 0.0
    for shard_preds, shard_nodes, timings in outcomes:
        preds.extend(shard_preds)
        for phase, seconds in timings.items():
            prof.add(phase, seconds)
            busy += seconds
        if shard_nodes is not None:
            t0 = time.perf_counter()
            _write_many(store, shard_nodes)
            prof.add("write", time.perf_counter() - t0)
    if direct:
        # The workers' writes happened in their copy-on-write memory;
        # book them in the parent so levels and counters match a
        # sequential build.
        store.note_external_writes((pid, level) for pid in page_ids)
    prof.add("merge", max(0.0, wall - busy))
    return preds


def _worker_build(bounds: Tuple[int, int]):
    """Forked worker body: build one contiguous shard of chunks.

    With direct writes the worker lands its disjoint page range through
    a private descriptor and returns only predicates; otherwise the
    nodes come back pickled for the parent to write.
    """
    lo, hi = bounds
    st = _FORK_STATE
    if st["direct"]:
        reopen_files(st["store"])
    preds, nodes, timings = _build_chunks(
        st["ext"], st["store"], st["level"], st["order"], st["sizes"],
        st["offsets"], lo, hi, st["page_ids"], st["keys"], st["rids"],
        st["entries"], write=st["direct"])
    if st["direct"]:
        st["store"].flush()
    return preds, nodes, timings


def insertion_load(ext: GiSTExtension, keys: np.ndarray,
                   rids: Optional[Sequence[int]] = None,
                   page_size: int = DEFAULT_PAGE_SIZE,
                   store=None, shuffle_seed: Optional[int] = None,
                   leaf_codec=None) -> GiST:
    """Build a tree by inserting keys one at a time (Table 2's contrast).

    ``shuffle_seed`` randomizes insertion order; ``None`` inserts in the
    given order.
    """
    keys = np.asarray(keys, dtype=np.float64)
    n = len(keys)
    if rids is None:
        rids = range(n)
    rids = list(rids)
    order = np.arange(n)
    if shuffle_seed is not None:
        order = np.random.default_rng(shuffle_seed).permutation(n)

    tree = GiST(ext, store=store, page_size=page_size,
                leaf_codec=leaf_codec)
    was_counting = tree.store.counting
    tree.store.counting = False
    try:
        for i in order:
            tree.insert(keys[i], rids[i])
    finally:
        tree.store.counting = was_counting
    return tree
