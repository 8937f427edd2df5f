"""The shard worker: one forked process serving canonical partials.

Work crosses the fork boundary as :mod:`repro.storage.fork` describes:
the coordinator stashes shared state in the module-global
``_INHERITED``, forks one child per shard, and each child finds its
tree, socket, and the reduced vector matrix in its copy-on-write copy.
The first thing a child does is :func:`reopen_files` — the inherited
descriptors share their file offset with the parent and every sibling,
and a long-running daemon is exactly the workload that would hit that
race.

Each worker owns its serving stack outright: a
:class:`~repro.storage.buffer.BufferPool` over the shard's page file, a
:class:`~repro.blobworld.cache.QueryResultCache` of finished partials,
and a :class:`~repro.gist.planner.QueryPlanner` that routes each miss
batch between the shard tree and a flat scan of the shard's vectors.
Requests and replies are dicts over a
:class:`~repro.serving.protocol.FramedChannel`, answered strictly in
arrival order.
"""

from __future__ import annotations

import copy
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.blobworld.cache import CachedBlock, QueryResultCache
from repro.serving.partials import pack_partials
from repro.serving.protocol import ConnectionClosed, FramedChannel
from repro.storage.buffer import BufferPool
from repro.storage.fork import reopen_files

#: shared state a forked worker reads back, keyed by the coordinator:
#: ``shards`` (shard_id -> dict with tree / conn / lo / hi),
#: ``reduced`` (the full reduced vector matrix), ``config`` (cache/pool
#: sizing).
_INHERITED: Dict[str, Any] = {}


class ShardServer:
    """Request handling for one shard, transport-agnostic.

    The forked daemon loop and the in-process fallback shards both
    drive :meth:`respond`, so degraded-mode tests and fork-free
    platforms exercise the same code path as the real daemon.
    """

    def __init__(self, shard_id: int, tree: Any, reduced: np.ndarray,
                 lo: int, hi: int, cache_size: int = 2048,
                 pool_pages: int = 256, page_size: Optional[int] = None) -> None:
        from repro.ams.flatfile import FlatFile
        from repro.gist.planner import QueryPlanner

        self.shard_id = shard_id
        # The server's own tree object over the shard's pages: an
        # in-process shard is handed the coordinator's tree, whose store
        # must stay bare so that a restart does not stack another pool.
        tree = copy.copy(tree)
        if pool_pages:
            tree.store = BufferPool(tree.store, pool_pages)
        self.tree = tree
        #: the full reduced matrix by global id: what query blobs name
        #: (maybe another shard's) and what ranks quantized leaves.
        self.reduced = reduced
        tree.exact = reduced
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

    # -- dispatch ------------------------------------------------------------

    def respond(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        """The reply to one request.  A request that raises is answered
        with an ``error`` reply instead of taking the daemon down — the
        coordinator decides whether that is fatal."""
        if msg.get("op") == "exit":
            return {"ok": True}
        try:
            return self.handle(msg)
        except Exception as exc:
            return {"error": f"{type(exc).__name__}: {exc}"}

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
        k = int(msg["k"])
        dists, rids = pack_partials(self.tree.knn_batch(msg["queries"], k), k)
        return {"dists": dists, "rids": rids}

    def _handle_am(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        """Stage-one partials for a block of two-stage queries: ``blobs``
        are global ids, ``k`` the candidate count.  Each row is the
        shard's exact canonical top ``k`` — the tree ranks quantized
        leaves by :attr:`reduced` — so the coordinator only merges.
        Rows are cached as padded ``(dists, rids)`` pairs, the reply's
        wire format, through the engine's block pass.
        """
        blobs = [int(b) for b in msg["blobs"]]
        k = int(msg["k"])
        dims = int(msg["dims"])
        block = CachedBlock(self.cache,
                            [(blob, dims, k, -1) for blob in blobs])
        rows: List[Tuple[np.ndarray, np.ndarray]] = []
        if block.misses:
            vecs = self.reduced[[blobs[i] for i in block.misses]]
            plan = self.planner.plan_batch(len(vecs), k)
            if plan.choice == "scan":
                self.plans_scan += 1
                # The flat scan's stable argsort breaks ties by
                # position — ascending global rid — so its rows are
                # already canonical.
                dists, rids = self.flat.knn_batch_arrays(vecs, k)
            else:
                self.plans_tree += 1
                dists, rids = pack_partials(self.tree.knn_batch(vecs, k), k)
            # Row copies: a cached row must not pin its whole block.
            rows = [(d.copy(), r.copy()) for d, r in zip(dists, rids)]
        results = block.fill(rows)
        return {"dists": np.array([d for d, _ in results],
                                  dtype=np.float64).reshape(-1, k),
                "rids": np.array([r for _, r in results],
                                 dtype=np.int64).reshape(-1, k)}

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
        }
        pool = getattr(self.tree.store, "stats", None)
        if pool is not None:
            out["pool"] = {
                "hits": pool.hits,
                "misses": pool.misses,
                "evictions": pool.evictions,
                "hit_rate": round(pool.hit_rate, 4),
            }
        if self.channel is not None:
            out["transport"] = {"bytes": self.channel.counters()}
        return out


def _worker_main(shard_id: int) -> None:
    """Daemon entry point for one forked shard worker.

    Reads its shard out of :data:`_INHERITED`, reopens the inherited
    store descriptors, and answers requests in order until an ``exit``
    op or a closed socket.
    """
    shard = _INHERITED["shards"][shard_id]
    config = _INHERITED.get("config", {})
    conn = shard["conn"]
    reopen_files(shard["tree"].store)
    server = ShardServer(
        shard_id, shard["tree"], _INHERITED["reduced"],
        lo=shard["lo"], hi=shard["hi"],
        cache_size=config.get("worker_cache", 2048),
        pool_pages=config.get("pool_pages", 256))
    channel = FramedChannel(conn)
    server.channel = channel
    while True:
        try:
            msg = channel.recv()
        except ConnectionClosed:
            break
        channel.send(server.respond(msg))
        if msg.get("op") == "exit":
            break
    conn.close()
