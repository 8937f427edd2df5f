"""The shard worker: one forked process serving canonical partials.

Work crosses the fork boundary the same way the parallel bulk loader
does it (see :mod:`repro.storage.fork`): the coordinator
stashes shared state in the module-global ``_FORK_STATE``, forks one
child per shard, and each child finds its tree, socket, shm rings, and
the reduced vector matrix in its copy-on-write copy.  The first thing a
child does is :func:`reopen_files` — the inherited descriptors share
their file offset with the parent and every sibling, and a long-running
daemon is exactly the workload that would hit that race.

Each worker owns its serving stack outright: a
:class:`~repro.storage.buffer.BufferPool` over the shard's page file, a
:class:`~repro.blobworld.cache.QueryResultCache` of finished partials,
and a :class:`~repro.gist.planner.QueryPlanner` that routes each miss
batch between the shard tree and a flat scan of the shard's vectors.
Requests and replies are dicts over a transport channel
(:mod:`repro.serving.transport`): array payloads ride the shm rings
when the coordinator provided them, the framed socket otherwise.

Between requests the worker is idle while the coordinator refines and
reranks the block it just answered; :meth:`ShardServer.prefetch_hint`
spends that gap warming the buffer pool with the leaf pages the *next*
block is predicted to touch (a single best-child descent per hinted
query, the same lower-bound kernels the search uses).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.blobworld.cache import QueryResultCache
from repro.serving.partials import canonical_knn_batch, pack_partials
from repro.serving.protocol import ConnectionClosed
from repro.serving.shm import ShmError
from repro.serving.transport import FramedChannel, ShmChannel
from repro.storage.buffer import BufferPool
from repro.storage.errors import StorageError
from repro.storage.fork import reopen_files

#: shared state a forked worker reads back, keyed by the coordinator:
#: ``shards`` (shard_id -> dict with tree / conn / rings / lo / hi),
#: ``reduced`` (the full reduced vector matrix), ``config`` (cache/pool
#: sizing).
_FORK_STATE: Dict[str, Any] = {}


class ShardServer:
    """Request handling for one shard, transport-agnostic.

    The forked daemon loop and the in-process fallback shards both
    drive :meth:`handle`, so degraded-mode tests and fork-free
    platforms exercise the same code path as the real daemon.
    """

    def __init__(self, shard_id: int, tree: Any, reduced: np.ndarray,
                 lo: int, hi: int, cache_size: int = 2048,
                 pool_pages: int = 256, page_size: Optional[int] = None) -> None:
        from repro.ams.flatfile import FlatFile
        from repro.gist.planner import QueryPlanner

        self.shard_id = shard_id
        self.tree = tree
        if pool_pages:
            tree.store = BufferPool(tree.store, pool_pages)
        #: the full reduced matrix — query blobs are global ids, and a
        #: query may name a blob another shard owns.
        self.reduced = reduced
        self.lo = lo
        self.hi = hi
        # The shard's flat-scan comparator carries *global* rids, so
        # scan-routed partials merge identically to tree-routed ones.
        self.flat = FlatFile(
            reduced[lo:hi], rids=np.arange(lo, hi),
            **({"page_size": page_size} if page_size else {}))
        self.planner = QueryPlanner(tree, self.flat)
        self.cache = QueryResultCache(cache_size)
        #: daemon loop sets this so stats() can report transport bytes.
        self.channel: Optional[FramedChannel] = None
        self.requests = 0
        self.plans_tree = 0
        self.plans_scan = 0
        self.seconds = 0.0
        self.prefetch_calls = 0
        self.prefetch_pages = 0
        #: (dims, fetch) of the last am block — read-ahead reuses it
        #: to predict the next block's plan and cache keys.
        self._last_am: Optional[Tuple[int, int]] = None

    # -- dispatch ------------------------------------------------------------

    def handle(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        op = msg.get("op")
        t0 = time.perf_counter()
        if op == "ping":
            reply: Dict[str, Any] = {"ok": True, "shard": self.shard_id}
        elif op == "knn":
            reply = self._handle_knn(msg)
        elif op == "am":
            reply = self._handle_am(msg)
        elif op == "stats":
            reply = self.stats()
        else:
            raise ValueError(f"unknown op {op!r}")
        elapsed = time.perf_counter() - t0
        self.requests += 1
        self.seconds += elapsed
        reply["seconds"] = elapsed
        return reply

    def _handle_knn(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        queries = np.asarray(msg["queries"], dtype=np.float64)
        k = int(msg["k"])
        hits = canonical_knn_batch(self.tree, queries, k)
        dists, rids = pack_partials(hits, k)
        return {"dists": dists, "rids": rids}

    def _handle_am(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        """Stage-one partials for a block of two-stage queries.

        ``blobs`` are global blob ids; ``fetch`` is the candidate count
        per shard (the coordinator already applied lossy overscan).
        Rows are built and cached as padded ``(dists, rids)`` array
        pairs — the reply's wire format — so a cache hit is two row
        copies instead of thousands of tuple allocations, and the reply
        arrays assemble without an intermediate list-of-tuples pass.
        Repeats within one block compute once, exactly like the
        engine's batch-level dedup.
        """
        blobs = [int(b) for b in msg["blobs"]]
        fetch = int(msg["fetch"])
        dims = int(msg["dims"])
        self._last_am = (dims, fetch)
        out_d = np.full((len(blobs), fetch), np.inf, dtype=np.float64)
        out_r = np.full((len(blobs), fetch), -1, dtype=np.int64)
        misses: List[int] = []
        pending: Dict[tuple, int] = {}
        duplicates: List[Tuple[int, int]] = []
        for i, blob in enumerate(blobs):
            key = (blob, dims, fetch, -1)
            if key in pending:
                duplicates.append((i, pending[key]))
                continue
            hit = self.cache.get(key)
            if hit is not None:
                out_d[i] = hit[0]
                out_r[i] = hit[1]
            else:
                pending[key] = i
                misses.append(i)
        if misses:
            vecs = self.reduced[[blobs[i] for i in misses]]
            plan = self.planner.plan_batch(len(misses), fetch)
            if plan.choice == "scan":
                self.plans_scan += 1
                # The flat scan's stable argsort breaks ties by
                # position — ascending global rid — so its rows are
                # already canonical, and the array variant writes
                # them in the reply's padded wire format directly.
                scan_d, scan_r = self.flat.knn_batch_arrays(vecs, fetch)
                out_d[misses] = scan_d
                out_r[misses] = scan_r
            else:
                self.plans_tree += 1
                computed = canonical_knn_batch(self.tree, vecs, fetch)
                for i, hits in zip(misses, computed):
                    if hits:
                        pairs = np.asarray(hits, dtype=np.float64)
                        n = len(hits)
                        out_d[i, :n] = pairs[:, 0]
                        out_r[i, :n] = pairs[:, 1].astype(np.int64)
            for i in misses:
                self.cache.put((blobs[i], dims, fetch, -1),
                               (out_d[i].copy(), out_r[i].copy()))
        for i, j in duplicates:
            out_d[i] = out_d[j]
            out_r[i] = out_r[j]
        return {"dists": out_d, "rids": out_r}

    # -- read-ahead ----------------------------------------------------------

    def prefetch_hint(self, blobs: Sequence[int]) -> int:
        """Warm the pool with the leaf pages ``blobs`` will likely hit.

        One best-child root-to-leaf descent per hinted query (argmin of
        the extension's lower bounds at every level — the page the
        search visits first), then a single uncounted
        :meth:`~repro.storage.buffer.BufferPool.prefetch` for the
        predicted leaves.  Purely advisory: any storage fault abandons
        the warm-up, never the serving loop.  Returns pages fetched.
        """
        pool = self.tree.store
        if not isinstance(pool, BufferPool) or self.tree.height < 1:
            return 0
        valid = list(dict.fromkeys(
            b for b in blobs if 0 <= b < len(self.reduced)))
        if valid and self._last_am is not None:
            # Blobs whose partials are cached touch no pages, and a
            # block the planner will scan-route touches no *tree*
            # pages — descending for either is work the next block
            # never redeems.
            dims, fetch = self._last_am
            valid = [b for b in valid
                     if (b, dims, fetch, -1) not in self.cache]
            if valid and self.planner.plan_batch(
                    len(valid), fetch).choice == "scan":
                return 0
        if not valid:
            return 0
        self.prefetch_calls += 1
        vecs = self.reduced[valid]
        was_counting = pool.counting
        pool.counting = False
        try:
            frontier: Dict[int, np.ndarray] = {
                self.tree.root_id: np.arange(len(vecs))}
            for _ in range(self.tree.height - 1):
                nxt: Dict[int, List[np.ndarray]] = {}
                for pid, idx in frontier.items():
                    node = pool.read(pid)
                    if node.level == 0:
                        continue
                    bounds = self.tree.ext.min_dists_node_multi(
                        node, vecs[idx])
                    best = np.argmin(bounds, axis=1)
                    children = node.children()
                    for choice in np.unique(best):
                        child = children[int(choice)]
                        nxt.setdefault(child, []).append(
                            idx[best == choice])
                frontier = {pid: np.concatenate(parts)
                            for pid, parts in nxt.items()}
                if not frontier:
                    return 0
            fetched = pool.prefetch(list(frontier))
        except StorageError:
            return 0
        finally:
            pool.counting = was_counting
        self.prefetch_pages += fetched
        return fetched

    def stats(self) -> Dict[str, Any]:
        """Cache, buffer-pool, planner, and transport counters,
        JSON-ready."""
        cache = self.cache.stats
        out: Dict[str, Any] = {
            "shard": self.shard_id,
            "requests": self.requests,
            "busy_seconds": round(self.seconds, 4),
            "cache": {
                "hits": cache.hits,
                "misses": cache.misses,
                "evictions": cache.evictions,
                "hit_rate": round(cache.hit_rate, 4),
            },
            "plans": {"tree": self.plans_tree, "scan": self.plans_scan},
            "prefetch": {"calls": self.prefetch_calls,
                         "pages": self.prefetch_pages},
        }
        pool = getattr(self.tree.store, "stats", None)
        if pool is not None:
            out["pool"] = {
                "hits": pool.hits,
                "misses": pool.misses,
                "evictions": pool.evictions,
                "prefetched": pool.prefetched,
                "hit_rate": round(pool.hit_rate, 4),
            }
        if self.channel is not None:
            out["transport"] = {"mode": self.channel.mode,
                                "bytes": self.channel.counters()}
        return out


def _make_channel(conn: Any, rings: Optional[tuple]) -> FramedChannel:
    """The worker's side of the transport: its transmit ring is the
    coordinator's receive ring and vice versa."""
    if rings is None:
        return FramedChannel(conn)
    req_ring, rep_ring = rings
    return ShmChannel(conn, tx=rep_ring, rx=req_ring)


def _worker_main(shard_id: int) -> None:
    """Daemon entry point for one forked shard worker.

    Reads its shard out of :data:`_FORK_STATE`, reopens the inherited
    store descriptors, and answers requests until an ``exit`` op or a
    closed socket.  A request that raises is answered with an ``error``
    reply instead of killing the daemon — the coordinator decides
    whether that is fatal.  When the request carried a read-ahead hint
    and no further request is already queued, the idle gap goes to
    :meth:`ShardServer.prefetch_hint`.
    """
    shard = _FORK_STATE["shards"][shard_id]
    config = _FORK_STATE.get("config", {})
    conn = shard["conn"]
    reopen_files(shard["tree"].store)
    server = ShardServer(
        shard_id, shard["tree"], _FORK_STATE["reduced"],
        lo=shard["lo"], hi=shard["hi"],
        cache_size=config.get("worker_cache", 2048),
        pool_pages=config.get("pool_pages", 256))
    channel = _make_channel(conn, shard.get("rings"))
    server.channel = channel
    while True:
        try:
            msg, token = channel.recv()
        except ConnectionClosed:
            break
        except ShmError as exc:
            # A torn request slot: the request is lost but the channel
            # still frames — answer with an error so the coordinator
            # surfaces it rather than hanging on a missing reply.
            channel.send({"error": f"{type(exc).__name__}: {exc}"})
            continue
        if msg.get("op") == "exit":
            channel.send({"ok": True})
            break
        hint = msg.pop("hint", None)
        if hint is not None:
            hint = [int(b) for b in hint]
        try:
            reply = server.handle(msg)
        except Exception as exc:
            reply = {"error": f"{type(exc).__name__}: {exc}"}
        channel.release(token)
        channel.send(reply)
        if hint and not channel.pending():
            server.prefetch_hint(hint)
    channel.close()
    conn.close()
