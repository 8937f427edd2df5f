"""The scatter-gather coordinator over a fleet of shard workers.

:class:`ShardedService` owns the full serving topology: it builds one
tree + flat-file comparator per contiguous blob range with the existing
bulk-load pipeline, forks one daemon worker per shard
(:func:`repro.serving.worker._worker_main`), scatters each query batch
to every *live* shard, gathers canonical partials, and merges them into
the global top-k under the ``(distance, rid)`` total order — bit-
identical to a single tree over the whole corpus answering under the
same order (see :mod:`repro.serving.partials`).

Transport is pluggable (:mod:`repro.serving.transport`): with
``transport="shm"`` (or ``"auto"`` where shared memory works) every
array payload rides a pair of :class:`~repro.serving.shm.ShmRing`
slots per worker and the framed socket carries only control traffic;
``"framed"`` is the PR-8 pickle-everything wire format, kept as the
universal fallback and parity reference.

:meth:`serve_stream` overlaps the fleet with the coordinator: up to
``window`` request blocks are in flight per worker at once through a
``selectors`` event loop, so shard k-NN for block *i+1* runs while this
process refines, reranks, and merges block *i*.  Blocks finish strictly
in dispatch order and each one's merge is the same bit-identical
``merge_topk``; a worker that dies mid-window degrades every block
still awaiting it, exactly like the serial path degrades a request.

Liveness is the registry's job (:mod:`repro.serving.registry`): every
successful reply refreshes the shard's heartbeat, a transport failure
marks it dead, and a shard that stops answering expires.  Dead or
expired shards do not fail the query — the coordinator answers from the
remaining partials and records what was given up in a
:class:`~repro.gist.degrade.DegradationReport`, the same bookkeeping a
quarantined tree uses for corrupt subtrees: a missing shard is a pruned
subtree at fleet scale.

Where ``fork`` is unavailable the service falls back to in-process
shards driving the same :class:`~repro.serving.worker.ShardServer`
request handler, so every platform exercises the same protocol,
planner, cache, and merge code — only the process boundary differs.
"""

from __future__ import annotations

import os
import selectors
import socket
import tempfile
import time
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.blobworld.cache import QueryResultCache
from repro.blobworld.query import BlobworldEngine
from repro.bulk import bulk_load
from repro.constants import (DEFAULT_PAGE_SIZE, FULL_QUERY_RESULT_IMAGES,
                             INDEX_DIMENSIONS)
from repro.core.api import make_extension
from repro.gist.degrade import DegradationReport
from repro.serving import worker as worker_mod
from repro.serving.partials import merge_topk, unpack_hits
from repro.serving.protocol import ProtocolError
from repro.serving.registry import DEAD, LIVE, ShardRegistry
from repro.serving.shm import ShmRing, shm_available
from repro.serving.transport import FramedChannel, ShmChannel
from repro.serving.worker import ShardServer, _worker_main
from repro.storage.diskfile import FilePageFile
from repro.storage.fork import fork_available, shard_bounds

#: default request slots per ring: enough for the default window plus
#: one being written while the oldest drains.
DEFAULT_WINDOW = 4
DEFAULT_SLOT_BYTES = 1 << 20


class _SocketShard:
    """Transport handle for one forked worker."""

    def __init__(self, shard_id: int, channel: FramedChannel, process: Any) -> None:
        self.shard_id = shard_id
        self.channel = channel
        self.sock = channel.sock
        self.process = process

    def send(self, msg: Dict[str, Any]) -> None:
        self.channel.send(msg)

    def recv(self) -> Tuple[Dict[str, Any], Optional[int]]:
        return self.channel.recv()

    def release(self, token: Optional[int]) -> None:
        self.channel.release(token)

    def pending(self, timeout: float = 0.0) -> bool:
        return self.channel.pending(timeout)

    def fileno(self) -> int:
        return self.sock.fileno()

    def kill(self) -> None:
        if self.process is not None:
            self.process.kill()
            self.process.join()

    def retire(self) -> None:
        """Release every OS resource this shard held: unlink the shm
        segments, close the socket, reap the process.  Idempotent —
        runs when the coordinator notices a death and again at
        :meth:`close`."""
        self.channel.close(unlink=True)
        try:
            self.sock.close()
        except OSError:
            pass
        if self.process is not None:
            if self.process.is_alive():
                self.process.terminate()
            self.process.join()

    def close(self) -> None:
        self.retire()


class _InlineShard:
    """Fork-free stand-in: the same request handler, called in-process.

    ``send`` computes the reply immediately and queues it for ``recv``,
    preserving the scatter-then-gather call shape.  ``kill`` makes the
    transport fail like a dead process would, so degraded-mode behavior
    is testable without fork.
    """

    def __init__(self, shard_id: int, server: ShardServer) -> None:
        self.shard_id = shard_id
        self.server = server
        self.channel = None
        self._replies: List[Dict[str, Any]] = []
        self._killed = False

    def send(self, msg: Dict[str, Any]) -> None:
        if self._killed:
            raise ProtocolError(f"shard {self.shard_id} is down")
        if msg.get("op") == "exit":
            self._replies.append({"ok": True})
            return
        msg = {k: v for k, v in msg.items() if k != "hint"}
        try:
            self._replies.append(self.server.handle(msg))
        except Exception as exc:
            self._replies.append(
                {"error": f"{type(exc).__name__}: {exc}"})

    def recv(self) -> Tuple[Dict[str, Any], Optional[int]]:
        return self._replies.pop(0), None

    def release(self, token: Optional[int]) -> None:
        pass

    def kill(self) -> None:
        self._killed = True

    def retire(self) -> None:
        self._replies.clear()

    def close(self) -> None:
        self.retire()


class _Inflight:
    """One dispatched request block riding the pipeline."""

    __slots__ = ("idx", "blobs", "results", "misses", "miss_blobs",
                 "duplicates", "deferred", "claimed", "awaiting", "parts",
                 "tokens", "degraded", "t0")

    def __init__(self, idx: int, blobs: List[int],
                 results: List[Optional[List[int]]], misses: List[int],
                 duplicates: List[Tuple[int, tuple]]) -> None:
        self.idx = idx
        self.blobs = blobs
        self.results = results
        self.misses = misses
        self.miss_blobs: List[int] = []
        self.duplicates = duplicates
        #: cross-block coalesced queries: (my result position, the
        #: in-flight block computing the same key, its result position)
        self.deferred: List[Tuple[int, "_Inflight", int]] = []
        #: keys this block is computing on behalf of younger blocks
        self.claimed: List[tuple] = []
        self.awaiting: set = set()
        self.parts: Dict[int, Dict[str, Any]] = {}
        self.tokens: List[Tuple[Any, Optional[int]]] = []
        self.degraded = False
        self.t0 = 0.0


class _PipelineCtx:
    """Event-loop state shared by dispatch/drain/down handling."""

    __slots__ = ("sel", "live", "inflight", "pending")

    def __init__(self, sel: selectors.BaseSelector) -> None:
        self.sel = sel
        self.live: Dict[int, _SocketShard] = {}
        self.inflight: "deque[_Inflight]" = deque()
        #: cache keys currently being computed by an in-flight block —
        #: the request-coalescing map younger dispatches check before
        #: re-scattering a duplicate
        self.pending: Dict[tuple, Tuple["_Inflight", int]] = {}


class ShardedService:
    """A sharded serving deployment: build, start, query, account.

    Construct with :meth:`build`, then :meth:`start` the workers.  The
    query surface mirrors the single-tree engine —
    :meth:`knn_batch` answers raw nearest-neighbor batches,
    :meth:`am_query_batch` the full two-stage Blobworld queries — plus
    :meth:`serve_stream`, which drives a request stream in fixed-size
    blocks (pipelined up to ``window`` blocks deep) and records tail
    latency, queue depth, overlap, and transport bytes into a
    :class:`~repro.amdb.profiler.ShardServeProfile`.
    """

    def __init__(self, corpus: Any, shards: List[Dict[str, Any]], dims: int,
                 method: str, codec: str,
                 cache_size: int = 4096,
                 worker_cache: int = 2048, pool_pages: int = 256,
                 heartbeat_ttl: float = 30.0, clock: Any = time.monotonic,
                 transport: str = "auto", window: int = DEFAULT_WINDOW,
                 slot_bytes: int = DEFAULT_SLOT_BYTES, tmpdir: Any = None) -> None:
        self.corpus = corpus
        self.shards = shards
        self.dims = dims
        self.method = method
        self.codec = codec
        self.lossy = codec == "sq8"
        self.reduced = corpus.reduced(dims)
        self.cache = QueryResultCache(cache_size) if cache_size else None
        self.engine = BlobworldEngine(corpus)
        self.worker_cache = worker_cache
        self.pool_pages = pool_pages
        self.registry = ShardRegistry(ttl=heartbeat_ttl, clock=clock)
        self.degradation = DegradationReport()
        self.degraded_requests = 0
        self.handles: List[Any] = []
        self.inline = False
        self.transport = transport
        self.window = max(1, int(window))
        self.slot_bytes = slot_bytes
        self.transport_used = ""
        self._tmpdir = tmpdir
        self._started = False

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def build(cls, corpus: Any, num_shards: int, method: str = "rtree",
              dims: int = INDEX_DIMENSIONS,
              page_size: int = DEFAULT_PAGE_SIZE, codec: str = "f64",
              workdir: Optional[str] = None, build_workers: int = 1,
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
                             page_size=page_size, store=store,
                             workers=build_workers)
            shards.append({"shard_id": shard_id, "tree": tree,
                           "lo": lo, "hi": hi})
        return cls(corpus, shards, dims=dims, method=method, codec=codec,
                   tmpdir=tmpdir, **kwargs)

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def start(self, transport: Optional[str] = None,
              window: Optional[int] = None) -> "ShardedService":
        """Fork the workers (or fall back to in-process shards).

        A stopped service can be started again over the same built
        trees, and ``transport``/``window`` here override the
        constructor's choice for this incarnation.
        """
        if self._started:
            return self
        if transport is not None:
            self.transport = transport
        if window is not None:
            self.window = max(1, int(window))
        self._started = True
        self.inline = not fork_available()
        for shard in self.shards:
            self.registry.register(shard["shard_id"], shard["lo"],
                                   shard["hi"])
        if self.inline:
            self.transport_used = "inline"
            for shard in self.shards:
                server = ShardServer(
                    shard["shard_id"], shard["tree"], self.reduced,
                    lo=shard["lo"], hi=shard["hi"],
                    cache_size=self.worker_cache,
                    pool_pages=self.pool_pages)
                self.handles.append(
                    _InlineShard(shard["shard_id"], server))
            return self
        use_shm = (self.transport in ("auto", "shm")) and shm_available()
        import multiprocessing
        ctx = multiprocessing.get_context("fork")
        state: Dict[str, Any] = {
            "shards": {}, "reduced": self.reduced,
            "config": {"worker_cache": self.worker_cache,
                       "pool_pages": self.pool_pages},
        }
        worker_mod._FORK_STATE = state
        modes = set()
        try:
            for shard in self.shards:
                # Flush parent-side write buffers before the fork so the
                # child's reopened descriptor sees every page.
                shard["tree"].store.flush()
                parent_sock, child_sock = socket.socketpair()
                rings = None
                process = None
                try:
                    if use_shm:
                        rings = self._create_rings()
                    state["shards"][shard["shard_id"]] = {
                        "tree": shard["tree"], "conn": child_sock,
                        "rings": rings,
                        "lo": shard["lo"], "hi": shard["hi"]}
                    process = ctx.Process(target=_worker_main,
                                          args=(shard["shard_id"],),
                                          daemon=True)
                    process.start()
                except BaseException:
                    # A failed fork must not strand this shard's kernel
                    # objects: the sockets would hold fds and the rings
                    # would hold named /dev/shm segments until process
                    # exit (and the segments past it, absent unlink).
                    for ring in rings or ():
                        ring.unlink()
                        ring.close()
                    parent_sock.close()
                    child_sock.close()
                    if process is not None and process.is_alive():
                        process.terminate()
                        process.join()
                    raise
                child_sock.close()
                channel: FramedChannel
                if rings is not None:
                    channel = ShmChannel(parent_sock, tx=rings[0],
                                         rx=rings[1])
                else:
                    channel = FramedChannel(parent_sock)
                modes.add(channel.mode)
                self.handles.append(
                    _SocketShard(shard["shard_id"], channel, process))
        finally:
            worker_mod._FORK_STATE = {}
        self.transport_used = modes.pop() if len(modes) == 1 else "mixed"
        return self

    def _create_rings(self) -> Optional[Tuple[ShmRing, ShmRing]]:
        """Both directions' slot rings, or None to fall back to framed.

        Each direction carries ``window`` slots in flight plus one
        being written.  Creating the pair is not atomic: a failure on
        the second ring must unlink the first before falling back, or
        the half-pair leaks a named ``/dev/shm`` segment that outlives
        the process.
        """
        try:
            tx = ShmRing.create(self.window + 1, self.slot_bytes)
        except (OSError, ValueError):
            return None
        try:
            rx = ShmRing.create(self.window + 1, self.slot_bytes)
        except (OSError, ValueError):
            tx.unlink()
            tx.close()
            return None
        return tx, rx

    def kill_shard(self, shard_id: int) -> None:
        """Forcibly take one worker down (failure injection)."""
        for handle in self.handles:
            if handle.shard_id == shard_id:
                handle.kill()
                return
        raise KeyError(f"no shard {shard_id}")

    def ping(self) -> Dict[int, bool]:
        """Heartbeat every non-dead shard; revives expired ones that
        answer.  Returns shard -> answered."""
        answered: Dict[int, bool] = {}
        for handle in self.handles:
            if self.registry.state(handle.shard_id) == DEAD:
                answered[handle.shard_id] = False
                continue
            try:
                handle.send({"op": "ping"})
                reply, token = handle.recv()
                handle.release(token)
                ok = bool(reply.get("ok"))
            except (ProtocolError, OSError) as exc:
                self._shard_down(handle, exc)
                ok = False
            if ok:
                self.registry.beat(handle.shard_id)
            answered[handle.shard_id] = ok
        return answered

    def stop(self) -> None:
        """Ask every live worker to exit, then reap the processes and
        release the transports.  The built trees stay; :meth:`start`
        brings the fleet back (possibly on another transport)."""
        for handle in self.handles:
            if self.registry.state(handle.shard_id) != DEAD:
                try:
                    handle.send({"op": "exit"})
                    handle.recv()
                except (ProtocolError, OSError):
                    pass
            handle.close()
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

    # -- scatter / gather ----------------------------------------------------

    def _shard_down(self, handle: Any, exc: Exception) -> None:
        shard = self.shards[handle.shard_id]
        self.registry.mark_dead(handle.shard_id, cause=str(exc))
        self.degradation.record(
            handle.shard_id, level=None,
            error=f"shard {handle.shard_id} down: {exc}",
            estimated_candidates_lost=shard["hi"] - shard["lo"])
        # FD/segment hygiene: a dead worker's socket and shm rings are
        # released the moment the death is noticed, not at service
        # close.
        handle.retire()

    def _scatter_gather(self, msg: Dict[str, Any], profile: Any = None,
                        _tokens: Optional[List[Tuple[Any, Optional[int]]]]
                        = None) -> Dict[int, Dict[str, Any]]:
        """One request to every live shard; partials from those that
        answered.  Unreachable shards degrade the answer, they do not
        fail it; only a fleet with *no* answering shard raises.

        Replies may hold zero-copy ring views: when the caller passes
        ``_tokens`` it owns releasing them after the merge has copied
        the partials out; otherwise slots are released immediately.
        """
        if not self._started:
            raise RuntimeError("service not started")
        degraded = False
        targets = []
        for handle in self.handles:
            state = self.registry.state(handle.shard_id)
            if state == LIVE:
                targets.append(handle)
            else:
                degraded = True
                shard = self.shards[handle.shard_id]
                self.degradation.record(
                    handle.shard_id, level=None,
                    error=f"shard {handle.shard_id} {state} at scatter",
                    estimated_candidates_lost=shard["hi"] - shard["lo"])
        t0 = time.perf_counter()
        sent = []
        for handle in targets:
            try:
                handle.send(msg)
                sent.append(handle)
            except (ProtocolError, OSError) as exc:
                self._shard_down(handle, exc)
                degraded = True
        t1 = time.perf_counter()
        parts: Dict[int, Dict[str, Any]] = {}
        for handle in sent:
            try:
                reply, token = handle.recv()
            except (ProtocolError, OSError) as exc:
                self._shard_down(handle, exc)
                degraded = True
                continue
            if "error" in reply:
                # The worker is alive and talking; its request blew up.
                # That is a bug, not an outage — surface it (releasing
                # every ring slot gathered so far first).
                handle.release(token)
                if _tokens is not None:
                    for held, held_token in _tokens:
                        held.release(held_token)
                    _tokens.clear()
                raise RuntimeError(
                    f"shard {handle.shard_id}: {reply['error']}")
            self.registry.beat(handle.shard_id)
            parts[handle.shard_id] = reply
            if _tokens is not None:
                _tokens.append((handle, token))
            else:
                handle.release(token)
        if profile is not None:
            profile.add("scatter", t1 - t0)
            profile.add("gather", time.perf_counter() - t1)
            for shard_id, reply in parts.items():
                profile.note_partial(shard_id, reply.get("seconds", 0.0))
        if degraded:
            self.degraded_requests += 1
            if profile is not None:
                profile.degraded_requests += 1
        if not parts:
            raise RuntimeError("no live shards answered")
        return parts

    def _merge(self, parts: Dict[int, Dict[str, Any]], k: int,
               profile: Any = None) -> Tuple[np.ndarray, np.ndarray]:
        t0 = time.perf_counter()
        merged = merge_topk(
            [(parts[sid]["dists"], parts[sid]["rids"])
             for sid in sorted(parts)], k)
        if profile is not None:
            profile.add("merge", time.perf_counter() - t0)
        return merged

    # -- query surface -------------------------------------------------------

    def knn_batch(self, queries: np.ndarray, k: int,
                  profile: Any = None) -> List[List[Tuple[float, int]]]:
        """Global canonical top-``k`` per query across all live shards."""
        queries = np.asarray(queries, dtype=np.float64)
        tokens: List[Tuple[Any, Optional[int]]] = []
        parts = self._scatter_gather(
            {"op": "knn", "queries": queries, "k": k}, profile=profile,
            _tokens=tokens)
        merged = self._merge(parts, k, profile=profile)
        parts.clear()
        for handle, token in tokens:
            handle.release(token)
        return unpack_hits(*merged)

    def _plan_block(self, query_blobs: List[int], num_candidates: int,
                    top_images: int) -> Any:
        """Coordinator-cache pass over one block: prefilled results,
        miss indices, and within-block duplicate back-references."""
        results: List[Optional[List[int]]] = [None] * len(query_blobs)
        misses: List[int] = []
        duplicates: List[Tuple[int, tuple]] = []
        if self.cache is None:
            return results, list(range(len(query_blobs))), duplicates
        pending: set = set()
        for i, blob in enumerate(query_blobs):
            key = (blob, self.dims, num_candidates, top_images)
            if key in pending:
                duplicates.append((i, key))
                continue
            hit = self.cache.get(key)
            if hit is not None:
                results[i] = list(hit)
            else:
                pending.add(key)
                misses.append(i)
        return results, misses, duplicates

    def _rank_and_fill(self, results: List[Optional[List[int]]],
                       query_blobs: List[int], misses: List[int],
                       miss_blobs: List[int], merged_rids: np.ndarray,
                       num_candidates: int, top_images: int,
                       profile: Any = None) -> None:
        """Stage two for the merged partials: lossy refine against the
        exact in-memory reduced vectors, full-dimension rerank, cache
        fill — the same engine kernels the single-tree path uses."""
        candidate_lists = [row[row >= 0] for row in merged_rids]
        if self.lossy:
            t0 = time.perf_counter()
            candidate_lists = [
                self.engine._refine_candidates(
                    c, self.reduced[b], self.reduced, num_candidates)
                for c, b in zip(candidate_lists, miss_blobs)]
            if profile is not None:
                profile.add("refine", time.perf_counter() - t0)
        ranked = self.engine.rerank_batch(miss_blobs, candidate_lists,
                                          top_images, profile=profile)
        for i, result in zip(misses, ranked):
            results[i] = result
            if self.cache is not None:
                self.cache.put(
                    (query_blobs[i], self.dims, num_candidates,
                     top_images), tuple(result))

    def am_query_batch(self, query_blobs: Sequence[int], num_candidates: int,
                       top_images: Optional[int] = None,
                       profile: Any = None, _hint: Optional[Sequence[int]] = None
                       ) -> List[List[int]]:
        """A block of two-stage queries over the sharded fleet.

        Stage one scatters to the shards and merges canonical
        candidate partials; stage two — lossy refinement against the
        exact in-memory reduced vectors, then the full-dimension
        rerank — runs on the coordinator via the same engine kernels
        the single-tree path uses, so the image lists match the
        unsharded :meth:`~repro.blobworld.query.BlobworldEngine.
        am_query_batch` answer.  ``_hint`` names the blobs the *next*
        block will ask about; workers use their idle gap to prefetch
        the predicted leaf pages.
        """
        if top_images is None:
            top_images = FULL_QUERY_RESULT_IMAGES
        query_blobs = [int(b) for b in query_blobs]
        results, misses, duplicates = self._plan_block(
            query_blobs, num_candidates, top_images)
        if misses:
            miss_blobs = [query_blobs[i] for i in misses]
            fetch = (self.engine._overscan(num_candidates)
                     if self.lossy else num_candidates)
            msg: Dict[str, Any] = {
                "op": "am",
                "blobs": np.asarray(miss_blobs, dtype=np.int64),
                "fetch": fetch, "dims": self.dims}
            if _hint is not None:
                msg["hint"] = np.asarray([int(b) for b in _hint],
                                         dtype=np.int64)
            tokens: List[Tuple[Any, Optional[int]]] = []
            parts = self._scatter_gather(msg, profile=profile,
                                         _tokens=tokens)
            _dists, rids = self._merge(parts, fetch, profile=profile)
            parts.clear()
            for handle, token in tokens:
                handle.release(token)
            self._rank_and_fill(results, query_blobs, misses, miss_blobs,
                                rids, num_candidates, top_images,
                                profile=profile)
        for i, key in duplicates:
            results[i] = list(self.cache.get(key))
        return results

    def serve_stream(self, stream: Sequence[int], num_candidates: int,
                     top_images: Optional[int] = None,
                     request_size: int = 64,
                     profile: Any = None, window: Optional[int] = None,
                     readahead: bool = True) -> List[List[int]]:
        """Drive a request stream in blocks, recording tail latency.

        The stream is treated as an already-arrived queue: each block
        of ``request_size`` queries is one service request, its wall
        time one latency sample, and the blocks still waiting at
        dispatch time the queue depth.  With ``window`` > 1 (default:
        the service's window) blocks are pipelined — up to that many in
        flight per worker while this process reranks earlier ones;
        ``window=1`` is the PR-8 serial scatter-gather.  ``readahead``
        forwards each block's successor as a prefetch hint to the
        workers.
        """
        if request_size < 1:
            raise ValueError("request_size must be positive")
        window = self.window if window is None else max(1, int(window))
        # Reply slots are provisioned for the started window; a deeper
        # stream window would overflow into the framed fallback.
        window = min(window, self.window)
        blocks = [list(stream[i:i + request_size])
                  for i in range(0, len(stream), request_size)]
        if profile is not None:
            profile.transport = self.transport_used
            profile.window = window
        if window > 1 and not self.inline and self.handles:
            results = self._serve_pipelined(blocks, num_candidates,
                                            top_images, profile, window,
                                            readahead)
        else:
            results = []
            for i, block in enumerate(blocks):
                hint = (blocks[i + 1]
                        if readahead and i + 1 < len(blocks) else None)
                t0 = time.perf_counter()
                results.extend(self.am_query_batch(
                    block, num_candidates, top_images=top_images,
                    profile=profile, _hint=hint))
                if profile is not None:
                    profile.record_request(time.perf_counter() - t0,
                                           len(block), len(blocks) - i)
        if profile is not None:
            profile.queries += len(stream)
            if self.cache is not None:
                profile.note_cache(self.cache.stats)
            profile.heartbeats = self.registry.snapshot()
            profile.transport_bytes = self.transport_counters()
        return results

    # -- pipelined event loop ------------------------------------------------

    def _serve_pipelined(self, blocks: List[List[int]],
                         num_candidates: int, top_images: Optional[int],
                         profile: Any, window: int,
                         readahead: bool) -> List[List[int]]:
        """Windowed scatter-gather: keep up to ``window`` blocks in
        flight, finish strictly in dispatch order, overlap every
        finish (merge + refine + rerank) with the fleet computing the
        younger blocks."""
        if top_images is None:
            top_images = FULL_QUERY_RESULT_IMAGES
        fetch = (self.engine._overscan(num_candidates)
                 if self.lossy else num_candidates)
        sel = selectors.DefaultSelector()
        ctx = _PipelineCtx(sel)
        for handle in self.handles:
            if self.registry.state(handle.shard_id) == LIVE:
                sel.register(handle.sock, selectors.EVENT_READ, handle)
                ctx.live[handle.shard_id] = handle
        results: List[List[int]] = []
        next_idx = 0
        try:
            while next_idx < len(blocks) or ctx.inflight:
                while (next_idx < len(blocks)
                       and len(ctx.inflight) < window):
                    ctx.inflight.append(self._dispatch_block(
                        ctx, blocks, next_idx, fetch, num_candidates,
                        top_images, profile, readahead))
                    next_idx += 1
                head = ctx.inflight[0]
                if head.awaiting:
                    t0 = time.perf_counter()
                    events = sel.select(timeout=0.25)
                    for key, _ in events:
                        self._drain_channel(ctx, key.data, profile)
                    if profile is not None:
                        profile.add("gather",
                                    time.perf_counter() - t0)
                    if head.awaiting:
                        if ctx.live:
                            continue
                        # Nothing left to answer: the head finishes
                        # with whatever partials it gathered.
                        head.awaiting.clear()
                inf = ctx.inflight.popleft()
                t_fin = time.perf_counter()
                results.extend(self._finish_block(
                    inf, fetch, num_candidates, top_images, profile))
                for key in inf.claimed:
                    ctx.pending.pop(key, None)
                if profile is not None:
                    if ctx.inflight:
                        profile.overlap_seconds += \
                            time.perf_counter() - t_fin
                    profile.record_request(
                        time.perf_counter() - inf.t0, len(inf.blobs),
                        len(blocks) - inf.idx)
        finally:
            sel.close()
        return results

    def _dispatch_block(self, ctx: _PipelineCtx, blocks: List[List[int]],
                        idx: int, fetch: int, num_candidates: int,
                        top_images: int, profile: Any,
                        readahead: bool) -> _Inflight:
        block = [int(b) for b in blocks[idx]]
        results, misses, duplicates = self._plan_block(
            block, num_candidates, top_images)
        inf = _Inflight(idx, block, results, misses, duplicates)
        inf.t0 = time.perf_counter()
        if misses and ctx.pending:
            # Request coalescing: a query some older in-flight block is
            # already computing rides that block instead of scattering
            # again — the answer is copied at finish time, after the
            # owner (strictly earlier in FIFO order) has filled it.
            kept: List[int] = []
            for i in misses:
                key = (block[i], self.dims, num_candidates, top_images)
                owner = ctx.pending.get(key)
                if owner is not None:
                    inf.deferred.append((i, owner[0], owner[1]))
                else:
                    kept.append(i)
            misses = inf.misses = kept
        if not misses:
            return inf
        inf.miss_blobs = [block[i] for i in misses]
        for i in misses:
            key = (block[i], self.dims, num_candidates, top_images)
            if key not in ctx.pending:
                ctx.pending[key] = (inf, i)
                inf.claimed.append(key)
        msg: Dict[str, Any] = {
            "op": "am",
            "blobs": np.asarray(inf.miss_blobs, dtype=np.int64),
            "fetch": fetch, "dims": self.dims}
        if readahead and idx + 1 < len(blocks):
            msg["hint"] = np.asarray(
                [int(b) for b in blocks[idx + 1]], dtype=np.int64)
        t0 = time.perf_counter()
        for handle in self.handles:
            state = self.registry.state(handle.shard_id)
            if state == LIVE and handle.shard_id in ctx.live:
                try:
                    handle.send(msg)
                    inf.awaiting.add(handle.shard_id)
                except (ProtocolError, OSError) as exc:
                    self._pipeline_down(ctx, handle, exc)
            else:
                inf.degraded = True
                shard = self.shards[handle.shard_id]
                self.degradation.record(
                    handle.shard_id, level=None,
                    error=f"shard {handle.shard_id} {state} at scatter",
                    estimated_candidates_lost=shard["hi"] - shard["lo"])
        if profile is not None:
            profile.add("scatter", time.perf_counter() - t0)
        return inf

    def _drain_channel(self, ctx: _PipelineCtx, handle: Any, profile: Any) -> None:
        """Route every frame already readable on one shard's channel.

        Workers answer in request order, so each reply belongs to the
        oldest in-flight block still awaiting that shard."""
        while True:
            try:
                reply, token = handle.recv()
            except (ProtocolError, OSError) as exc:
                self._pipeline_down(ctx, handle, exc)
                return
            routed = False
            for inf in ctx.inflight:
                if handle.shard_id in inf.awaiting:
                    inf.awaiting.discard(handle.shard_id)
                    if "error" in reply:
                        handle.release(token)
                        raise RuntimeError(
                            f"shard {handle.shard_id}: "
                            f"{reply['error']}")
                    self.registry.beat(handle.shard_id)
                    inf.parts[handle.shard_id] = reply
                    inf.tokens.append((handle, token))
                    if profile is not None:
                        profile.note_partial(handle.shard_id,
                                             reply.get("seconds", 0.0))
                    routed = True
                    break
            if not routed:
                handle.release(token)
            if not handle.pending():
                return

    def _pipeline_down(self, ctx: _PipelineCtx, handle: Any,
                       exc: Exception) -> None:
        """A shard died mid-window: unregister it, mark every block
        still awaiting it degraded, release its OS resources."""
        if handle.shard_id not in ctx.live:
            return
        del ctx.live[handle.shard_id]
        try:
            ctx.sel.unregister(handle.sock)
        except (KeyError, ValueError, OSError):
            pass
        for inf in ctx.inflight:
            if handle.shard_id in inf.awaiting:
                inf.awaiting.discard(handle.shard_id)
                inf.degraded = True
        self._shard_down(handle, exc)

    def _finish_block(self, inf: _Inflight, fetch: int,
                      num_candidates: int, top_images: int,
                      profile: Any) -> List[List[int]]:
        if inf.misses:
            if not inf.parts:
                raise RuntimeError("no live shards answered")
            _dists, rids = self._merge(inf.parts, fetch, profile=profile)
            inf.parts.clear()
            for handle, token in inf.tokens:
                handle.release(token)
            inf.tokens.clear()
            self._rank_and_fill(inf.results, inf.blobs, inf.misses,
                                inf.miss_blobs, rids, num_candidates,
                                top_images, profile=profile)
        for i, key in inf.duplicates:
            inf.results[i] = list(self.cache.get(key))
        for i, owner, opos in inf.deferred:
            inf.results[i] = list(owner.results[opos])
        if profile is not None:
            profile.coalesced += len(inf.deferred)
        if inf.degraded:
            self.degraded_requests += 1
            if profile is not None:
                profile.degraded_requests += 1
        return inf.results

    # -- introspection -------------------------------------------------------

    def transport_counters(self) -> Dict[str, int]:
        """Coordinator-side transport bytes, summed over shards."""
        total = {"shm": 0, "pickled": 0, "control": 0}
        for handle in self.handles:
            channel = getattr(handle, "channel", None)
            if channel is not None:
                for key, value in channel.counters().items():
                    total[key] = total.get(key, 0) + value
        return total

    def gather_stats(self, profile: Any = None) -> Dict[int, Dict[str, Any]]:
        """Per-worker cache/pool/planner/transport counters from live
        shards."""
        parts = self._scatter_gather({"op": "stats"})
        stats = {sid: {key: value for key, value in reply.items()
                       if key != "seconds"}
                 for sid, reply in parts.items()}
        if profile is not None:
            profile.shard_stats = stats
            profile.heartbeats = self.registry.snapshot()
            total = self.transport_counters()
            for blob in stats.values():
                worker_side = blob.get("transport")
                if worker_side:
                    for key, value in worker_side.get("bytes",
                                                      {}).items():
                        total[key] = total.get(key, 0) + value
            profile.transport_bytes = total
        return stats
