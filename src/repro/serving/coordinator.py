"""The scatter-gather coordinator over a fleet of shard workers.

:class:`ShardedService` owns the full serving topology: it builds one
tree per contiguous blob range with the existing bulk-load pipeline,
forks one daemon worker per shard
(:func:`repro.serving.worker._worker_main`), scatters each query batch
to every *live* shard, gathers canonical partials, and merges them into
the global top-k under the ``(distance, rid)`` total order — bit-
identical to a single tree over the whole corpus answering under the
same order (see :mod:`repro.serving.partials`).

Every request takes one path: :meth:`ShardedService._dispatch` frames
a message to the live shards, :meth:`ShardedService._collect` reads
back every reply it awaits.  :meth:`ShardedService.serve_stream` keeps
up to :data:`WINDOW` request blocks in flight, so shard k-NN for the
younger blocks runs while this process merges and reranks the oldest;
blocks finish strictly in dispatch order.
:meth:`ShardedService.am_query_batch` is a stream of one block, and a
window of 1 is the serial case.

A shard is live until a send or receive on its socket fails; then it
is dead for the rest of the run, with the failure recorded as its cause
in :attr:`ShardedService.dead`.  No clock is involved: an idle fleet
stays live however long nothing is asked of it.  A dead shard does not
fail the query — the coordinator answers from the remaining partials
and records what was given up in a
:class:`~repro.gist.degrade.DegradationReport`, the same bookkeeping a
quarantined tree uses for corrupt subtrees: a missing shard is a pruned
subtree at fleet scale.

Where ``fork`` is unavailable the service falls back to in-process
shards driving the same :class:`~repro.serving.worker.ShardServer`
request handler through the same request path, so every platform
exercises the same protocol, cache, and merge code — only the process
boundary differs.
"""

from __future__ import annotations

import os
import socket
import tempfile
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.blobworld.cache import CachedBlock, QueryResultCache
from repro.blobworld.query import BlobworldEngine
from repro.bulk import bulk_load
from repro.constants import (DEFAULT_PAGE_SIZE, FULL_QUERY_RESULT_IMAGES,
                             INDEX_DIMENSIONS)
from repro.core.api import make_extension
from repro.gist.degrade import DegradationReport
from repro.gist.nn import check_queries
from repro.serving import worker as worker_mod
from repro.serving.partials import merge_topk, unpack_hits
from repro.serving.protocol import FramedChannel, ProtocolError
from repro.serving.worker import ShardServer, _worker_main
from repro.storage.diskfile import FilePageFile
from repro.storage.fork import fork_available, shard_bounds

#: request blocks :meth:`ShardedService.serve_stream` keeps in flight.
#: On the spine's ``serve_repeat`` a window of 1 runs 1.37x slower than
#: 4 (DESIGN §14); tests patch it to 1 for the serial case.
WINDOW = 4


class _SocketShard:
    """Transport handle for one forked worker."""

    def __init__(self, shard_id: int, channel: FramedChannel,
                 process: Any) -> None:
        self.shard_id = shard_id
        self.channel = channel
        self.process = process

    def send(self, msg: Dict[str, Any]) -> None:
        self.channel.send(msg)

    def recv(self) -> Dict[str, Any]:
        return self.channel.recv()

    def kill(self) -> None:
        self.process.kill()
        self.process.join()

    def retire(self) -> None:
        """Release every OS resource this shard held: close the socket,
        reap the process.  Idempotent — runs when the coordinator
        notices a death and again at :meth:`ShardedService.stop`."""
        self.channel.sock.close()
        if self.process.is_alive():
            self.process.terminate()
        self.process.join()


class _InlineShard:
    """Fork-free stand-in: the same request handler, called in-process.

    ``send`` computes the reply immediately and queues it for ``recv``,
    preserving the dispatch-then-collect call shape.  ``kill`` makes the
    transport fail like a dead process would, so degraded-mode behavior
    is testable without fork.
    """

    def __init__(self, shard_id: int, server: ShardServer) -> None:
        self.shard_id = shard_id
        self.server = server
        self.channel = None
        self._replies: Deque[Dict[str, Any]] = deque()
        self._killed = False

    def send(self, msg: Dict[str, Any]) -> None:
        if self._killed:
            raise ProtocolError(f"shard {self.shard_id} is down")
        self._replies.append(self.server.respond(msg))

    def recv(self) -> Dict[str, Any]:
        return self._replies.popleft()

    def kill(self) -> None:
        self._killed = True

    def retire(self) -> None:
        self._replies.clear()


class _Request:
    """One message sent to the fleet: the shards whose replies it awaits
    and the partials collected so far."""

    __slots__ = ("awaiting", "parts", "degraded", "t0")

    def __init__(self) -> None:
        self.awaiting: List[Any] = []
        self.parts: Dict[int, Dict[str, Any]] = {}
        self.degraded = False
        self.t0 = time.perf_counter()


class _Block:
    """One request block of a stream: the coordinator-cache pass over
    its blobs, and the request carrying its misses (``None`` when the
    cache answered everything)."""

    __slots__ = ("idx", "blobs", "cached", "req", "t0")

    def __init__(self, idx: int, blobs: List[int],
                 cached: CachedBlock) -> None:
        self.idx = idx
        self.blobs = blobs
        self.cached = cached
        self.req: Optional[_Request] = None
        self.t0 = time.perf_counter()


class ShardedService:
    """A sharded serving deployment: build, start, query, account.

    Construct with :meth:`build`, then :meth:`start` the workers.  The
    query surface mirrors the single-tree engine —
    :meth:`knn_batch` answers raw nearest-neighbor batches,
    :meth:`am_query_batch` the full two-stage Blobworld queries — plus
    :meth:`serve_stream`, which drives a request stream in fixed-size
    blocks (pipelined :data:`WINDOW` blocks deep) and records tail
    latency, queue depth, overlap, and transport bytes into a
    :class:`~repro.amdb.profiler.ShardServeProfile`.
    """

    def __init__(self, corpus: Any, shards: List[Dict[str, Any]], dims: int,
                 method: str, codec: str,
                 cache_size: int = 4096,
                 worker_cache: int = 2048, pool_pages: int = 256,
                 tmpdir: Any = None) -> None:
        self.corpus = corpus
        self.shards = shards
        self.dims = dims
        self.method = method
        self.codec = codec
        self.reduced = corpus.reduced(dims)
        self.cache = QueryResultCache(cache_size) if cache_size else None
        self.engine = BlobworldEngine(corpus)
        self.worker_cache = worker_cache
        self.pool_pages = pool_pages
        #: shard id -> the transport failure that took it down; every
        #: other shard is live.  Filled only by :meth:`_shard_down`.
        self.dead: Dict[int, str] = {}
        self.degradation = DegradationReport()
        self.degraded_requests = 0
        self.handles: List[Any] = []
        self.inline = False
        self._tmpdir = tmpdir
        self._started = False

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def build(cls, corpus: Any, num_shards: int, method: str = "rtree",
              dims: int = INDEX_DIMENSIONS,
              page_size: int = DEFAULT_PAGE_SIZE, codec: str = "f64",
              workdir: Optional[str] = None,
              **kwargs: Any) -> "ShardedService":
        """Build one tree per contiguous blob range.

        Every shard is a normal bulk load over its slice of the reduced
        vectors, carrying *global* rids — partials therefore speak
        corpus-wide blob ids and no translation happens at merge time.
        """
        if num_shards < 1:
            raise ValueError("need at least one shard")
        reduced = corpus.reduced(dims)
        tmpdir = None
        if workdir is None:
            tmpdir = tempfile.TemporaryDirectory(prefix="repro_shards_")
            workdir = tmpdir.name
        shards: List[Dict[str, Any]] = []
        for shard_id, (lo, hi) in enumerate(
                shard_bounds(len(reduced), num_shards)):
            ext = make_extension(method, dims)
            store = FilePageFile.for_extension(
                os.path.join(workdir,
                             f"shard_{method}_{codec}_{shard_id}.pages"),
                ext, page_size=page_size, leaf_codec=codec)
            tree = bulk_load(ext, reduced[lo:hi],
                             rids=list(range(lo, hi)),
                             page_size=page_size, store=store)
            shards.append({"shard_id": shard_id, "tree": tree,
                           "lo": lo, "hi": hi})
        return cls(corpus, shards, dims=dims, method=method, codec=codec,
                   tmpdir=tmpdir, **kwargs)

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def start(self) -> "ShardedService":
        """Fork the workers (or fall back to in-process shards).

        A stopped service can be started again over the same built
        trees.
        """
        if self._started:
            return self
        self._started = True
        self.inline = not fork_available()
        self.dead = {}
        if self.inline:
            for shard in self.shards:
                server = ShardServer(
                    shard["shard_id"], shard["tree"], self.reduced,
                    cache_size=self.worker_cache,
                    pool_pages=self.pool_pages)
                self.handles.append(
                    _InlineShard(shard["shard_id"], server))
            return self
        import multiprocessing
        ctx = multiprocessing.get_context("fork")
        state: Dict[str, Any] = {
            "shards": {}, "reduced": self.reduced,
            "config": {"worker_cache": self.worker_cache,
                       "pool_pages": self.pool_pages},
        }
        worker_mod._INHERITED = state
        try:
            for shard in self.shards:
                # Flush parent-side write buffers before the fork so the
                # child's reopened descriptor sees every page.
                shard["tree"].store.flush()
                parent_sock, child_sock = socket.socketpair()
                process = None
                try:
                    state["shards"][shard["shard_id"]] = {
                        "tree": shard["tree"], "conn": child_sock}
                    process = ctx.Process(target=_worker_main,
                                          args=(shard["shard_id"],),
                                          daemon=True)
                    process.start()
                except BaseException:
                    # A failed fork must not strand this shard's kernel
                    # objects: the sockets would hold fds until process
                    # exit.
                    parent_sock.close()
                    child_sock.close()
                    if process is not None and process.is_alive():
                        process.terminate()
                        process.join()
                    raise
                child_sock.close()
                self.handles.append(_SocketShard(
                    shard["shard_id"], FramedChannel(parent_sock), process))
        finally:
            worker_mod._INHERITED = {}
        return self

    def kill_shard(self, shard_id: int) -> None:
        """Forcibly take one worker down (failure injection)."""
        for handle in self.handles:
            if handle.shard_id == shard_id:
                handle.kill()
                return
        raise KeyError(f"no shard {shard_id}")

    def ping(self) -> Dict[int, bool]:
        """Probe every live shard.  Returns shard -> answered; a shard
        whose socket fails under the probe is marked dead like under
        any request."""
        req = self._dispatch({"op": "ping"})
        self._collect(req)
        return {handle.shard_id:
                bool(req.parts.get(handle.shard_id, {}).get("ok"))
                for handle in self.handles}

    def stop(self) -> None:
        """Ask every live worker to exit, then reap the processes and
        close the sockets.  The built trees stay; :meth:`start` brings
        the fleet back."""
        for handle in self.handles:
            if handle.shard_id not in self.dead:
                try:
                    handle.send({"op": "exit"})
                    handle.recv()
                except (ProtocolError, OSError):
                    pass
            handle.retire()
        self.handles = []
        self._started = False

    def close(self) -> None:
        self.stop()
        for shard in self.shards:
            shard["tree"].store.close()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    def __enter__(self) -> "ShardedService":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- the request path ----------------------------------------------------

    def _shard_down(self, handle: Any, exc: Exception) -> None:
        shard = self.shards[handle.shard_id]
        self.dead[handle.shard_id] = str(exc)
        self.degradation.record(
            handle.shard_id, level=None,
            error=f"shard {handle.shard_id} down: {exc}",
            estimated_candidates_lost=shard["hi"] - shard["lo"])
        # FD hygiene: a dead worker's socket is closed and its process
        # reaped the moment the death is noticed, not at service close.
        handle.retire()

    def _dispatch(self, msg: Dict[str, Any], profile: Any = None) -> _Request:
        """Send ``msg`` to every live shard.  A dead shard, or one whose
        socket fails now, degrades the request instead of failing it."""
        if not self._started:
            raise RuntimeError("service not started")
        req = _Request()
        for handle in self.handles:
            if handle.shard_id in self.dead:
                req.degraded = True
                shard = self.shards[handle.shard_id]
                self.degradation.record(
                    handle.shard_id, level=None,
                    error=f"shard {handle.shard_id} dead at scatter",
                    estimated_candidates_lost=shard["hi"] - shard["lo"])
                continue
            try:
                handle.send(msg)
                req.awaiting.append(handle)
            except (ProtocolError, OSError) as exc:
                self._shard_down(handle, exc)
                req.degraded = True
        if profile is not None:
            profile.add("scatter", time.perf_counter() - req.t0)
        return req

    def _collect(self, req: _Request, profile: Any = None) -> None:
        """Read every reply ``req`` awaits before raising for any.

        Workers answer in request order, so the next frame on each
        awaited socket is this request's reply; one left unread would
        be taken for the answer to the next request on that socket.
        An ``error`` reply comes from a live worker whose request blew
        up — a bug, not an outage — and raises once every reply is in.
        """
        t0 = time.perf_counter()
        errors: List[str] = []
        for handle in req.awaiting:
            if handle.shard_id in self.dead:
                # It died while an older request was being collected.
                req.degraded = True
                continue
            try:
                reply = handle.recv()
            except (ProtocolError, OSError) as exc:
                self._shard_down(handle, exc)
                req.degraded = True
                continue
            if "error" in reply:
                errors.append(f"shard {handle.shard_id}: {reply['error']}")
                continue
            req.parts[handle.shard_id] = reply
            if profile is not None:
                profile.note_partial(handle.shard_id,
                                     reply.get("seconds", 0.0))
        req.awaiting = []
        if profile is not None:
            profile.add("gather", time.perf_counter() - t0)
        if errors:
            raise RuntimeError("; ".join(errors))

    def _settle(self, req: _Request,
                profile: Any = None) -> Dict[int, Dict[str, Any]]:
        """The partials of a collected request, after booking it as
        degraded if a shard was missing; only a request no shard
        answered raises."""
        if req.degraded:
            self.degraded_requests += 1
            if profile is not None:
                profile.degraded_requests += 1
        if not req.parts:
            raise RuntimeError("no live shards answered")
        return req.parts

    def _gather(self, msg: Dict[str, Any],
                profile: Any = None) -> Dict[int, Dict[str, Any]]:
        """One message to every live shard; partials from those that
        answered."""
        req = self._dispatch(msg, profile)
        self._collect(req, profile)
        return self._settle(req, profile)

    def _merge(self, parts: Dict[int, Dict[str, Any]], k: int,
               profile: Any = None) -> Tuple[np.ndarray, np.ndarray]:
        t0 = time.perf_counter()
        merged = merge_topk(
            [(parts[sid]["dists"], parts[sid]["rids"])
             for sid in sorted(parts)], k)
        if profile is not None:
            profile.add("merge", time.perf_counter() - t0)
        return merged

    def _serve(self, blocks: List[List[int]], num_candidates: int,
               top_images: Optional[int],
               profile: Any) -> List[List[int]]:
        """Keep up to :data:`WINDOW` blocks in flight; collect and
        finish (merge, rerank) strictly in dispatch order, so each
        finish overlaps the fleet computing the younger blocks."""
        if top_images is None:
            top_images = FULL_QUERY_RESULT_IMAGES
        inflight: Deque[_Block] = deque()
        results: List[List[int]] = []
        next_idx = 0
        try:
            while next_idx < len(blocks) or inflight:
                while next_idx < len(blocks) and len(inflight) < WINDOW:
                    inflight.append(self._dispatch_block(
                        next_idx, blocks[next_idx], num_candidates,
                        top_images, profile))
                    next_idx += 1
                block = inflight[0]
                if block.req is not None:
                    self._collect(block.req, profile)
                inflight.popleft()
                t_fin = time.perf_counter()
                results.extend(self._finish_block(
                    block, num_candidates, top_images, profile))
                if profile is not None:
                    if inflight:
                        profile.overlap_seconds += \
                            time.perf_counter() - t_fin
                    profile.record_request(
                        time.perf_counter() - block.t0, len(block.blobs),
                        len(blocks) - block.idx)
        except BaseException:
            # Leave no reply unread: each would answer a later request.
            for block in inflight:
                if block.req is not None and block.req.awaiting:
                    try:
                        self._collect(block.req)
                    except RuntimeError:
                        pass
            raise
        return results

    def _dispatch_block(self, idx: int, blobs: List[int],
                        num_candidates: int, top_images: int,
                        profile: Any) -> _Block:
        """The coordinator-cache pass over one block, then one request
        for its distinct misses."""
        block = _Block(idx, blobs, CachedBlock(
            self.cache, [(blob, self.dims, num_candidates, top_images)
                         for blob in blobs]))
        if block.cached.misses:
            block.req = self._dispatch(
                {"op": "am",
                 "blobs": np.asarray([blobs[i]
                                      for i in block.cached.misses],
                                     dtype=np.int64),
                 "k": num_candidates, "dims": self.dims}, profile)
        return block

    def _finish_block(self, block: _Block, num_candidates: int,
                      top_images: int, profile: Any) -> List[List[int]]:
        """Merge the block's partials — each shard's exact canonical
        top-k, whatever its leaf codec — into the global top
        ``num_candidates``, rerank them with the engine's kernel, and
        fill the block (cache included)."""
        ranked: List[List[int]] = []
        if block.req is not None:
            parts = self._settle(block.req, profile)
            _dists, rids = self._merge(parts, num_candidates,
                                       profile=profile)
            ranked = self.engine.rerank_batch(
                [block.blobs[i] for i in block.cached.misses],
                [row[row >= 0] for row in rids], top_images,
                profile=profile)
        return [list(result) for result in block.cached.fill(ranked)]

    # -- query surface -------------------------------------------------------

    def knn_batch(self, queries: np.ndarray, k: int,
                  profile: Any = None) -> List[List[Tuple[float, int]]]:
        """Global canonical top-``k`` per query across all live shards.

        ``queries`` must be a finite ``(Q, dims)`` block and ``k``
        positive, checked before any scatter."""
        queries = check_queries(self.shards[0]["tree"], queries, 2, k)
        parts = self._gather({"op": "knn", "queries": queries, "k": k},
                             profile)
        return unpack_hits(*self._merge(parts, k, profile=profile))

    def am_query_batch(self, query_blobs: Sequence[int], num_candidates: int,
                       top_images: Optional[int] = None,
                       profile: Any = None) -> List[List[int]]:
        """A block of two-stage queries over the sharded fleet, as a
        stream of one block: the shards' merged canonical partials go
        through the engine's own rerank, so the image lists match the
        unsharded ``BlobworldEngine.am_query_batch``."""
        return self._serve([self.engine.check_blobs(query_blobs)],
                           num_candidates, top_images, profile)

    def serve_stream(self, stream: Sequence[int], num_candidates: int,
                     top_images: Optional[int] = None,
                     request_size: int = 64,
                     profile: Any = None) -> List[List[int]]:
        """Drive a request stream in blocks, recording tail latency.

        The stream is treated as an already-arrived queue: each block
        of ``request_size`` queries is one service request, its wall
        time one latency sample, and the blocks still waiting at
        dispatch time the queue depth.  Up to :data:`WINDOW` blocks are
        in flight at once.
        """
        if request_size < 1:
            raise ValueError("request_size must be positive")
        blobs = self.engine.check_blobs(stream)
        results = self._serve(
            [blobs[i:i + request_size]
             for i in range(0, len(blobs), request_size)],
            num_candidates, top_images, profile)
        if profile is not None:
            profile.queries += len(blobs)
            if self.cache is not None:
                profile.note_cache(self.cache.stats)
            profile.liveness = self.liveness()
            profile.transport_bytes = self.transport_counters()
        return results

    # -- introspection -------------------------------------------------------

    def liveness(self) -> Dict[int, Dict[str, Any]]:
        """Per shard, JSON-ready: ``live`` or ``dead``, its global rid
        range, and for a dead shard the failure that took it down."""
        out: Dict[int, Dict[str, Any]] = {}
        for shard in self.shards:
            sid = shard["shard_id"]
            entry: Dict[str, Any] = {
                "state": "dead" if sid in self.dead else "live",
                "rid_range": [shard["lo"], shard["hi"]]}
            if sid in self.dead:
                entry["cause"] = self.dead[sid]
            out[sid] = entry
        return out

    def transport_counters(self) -> Dict[str, int]:
        """Coordinator-side transport bytes, summed over shards."""
        total = {"pickled": 0, "control": 0}
        for handle in self.handles:
            if handle.channel is not None:
                for key, value in handle.channel.counters().items():
                    total[key] += value
        return total

    def gather_stats(self, profile: Any = None) -> Dict[int, Dict[str, Any]]:
        """Per-worker cache/pool/transport counters from live shards."""
        parts = self._gather({"op": "stats"})
        stats = {sid: {key: value for key, value in reply.items()
                       if key != "seconds"}
                 for sid, reply in parts.items()}
        if profile is not None:
            profile.shard_stats = stats
            profile.liveness = self.liveness()
            total = self.transport_counters()
            for blob in stats.values():
                worker_side = blob.get("transport", {}).get("bytes", {})
                for key, value in worker_side.items():
                    total[key] = total.get(key, 0) + value
            profile.transport_bytes = total
        return stats
