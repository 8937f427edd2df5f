"""The seven workloads.  Why each exists is in its ``why`` (copied into
BENCHMARK.json) and at more length in README.md.

A workload prepares its inputs from the seed, sets the program up through
public calls, and then exposes ``op(i)``: one user-visible operation.  The
driver in run.py owns the loop, the clocks, the tracer's on/off switch and
the result; a workload only says what an operation is, how to check its
answers afterwards, and which counters its layers kept.

Operation counts are fixed by ``rate * seconds`` — the rate is what the parent
commit sustains in this sandbox — so both sides of a comparison do identical
work and the exact-count metrics repeat.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ams.flatfile import FlatFile
from repro.amdb.profiler import BuildProfile, ShardServeProfile
from repro.blobworld import BlobworldEngine
from repro.bulk import bulk_load
from repro.core.api import make_extension
from repro.gist.mutable import MutableTree
from repro.gist.persist import load_tree, save_tree
from repro.gist.planner import QueryPlanner
from repro.serving.coordinator import ShardedService
from repro.storage.buffer import BufferPool
from repro.storage.diskfile import FilePageFile

from dataset import CANDIDATES, DIMS, PAGE_SIZE, TOP_IMAGES
from tracing import Tracer

#: the paper's six access methods, cheapest build first
FAMILIES = ("rtree", "sstree", "srtree", "jb", "xjb", "amap")
POOL_PAGES = 256
ORACLE_SAMPLE = 50


class TracedProfile(ShardServeProfile):
    """The program's profile hook, feeding the tracer.

    Stages the driver cannot wrap become synthetic spans; stages it does
    wrap itself (scan, traversal, read_decode, rerank) are only summed, or
    they would be counted twice.  Passed to the program on traced
    operations only, so its timers are part of the measured trace overhead.
    """

    SYNTHETIC = {"scatter": "serving.scatter", "gather": "serving.gather_wait",
                 "merge": "serving.merge", "refine": "serving.refine",
                 "aggregation": "blobworld.aggregation"}

    tracer: Tracer

    def add(self, stage: str, seconds: float) -> None:
        super().add(stage, seconds)
        if stage in self.SYNTHETIC:
            self.tracer.synthetic(self.SYNTHETIC[stage], seconds)

    def note_plan(self, plan: Any, actual_pages: int = 0) -> None:
        """``ServeProfile``'s half of the duck type; plans are counted by
        the planner wrapper instead."""


class Env:
    """What the driver hands every workload."""

    def __init__(self, corpus: Any, scale: Any, seed: int, seconds: float,
                 workdir: Path, tracer: Optional[Tracer]) -> None:
        self.corpus = corpus
        self.scale = scale
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.tracer = tracer
        self.reduced = corpus.reduced(DIMS)
        self.num_blobs = len(self.reduced)

    def profile(self) -> Optional[TracedProfile]:
        """A profile hook for this operation, when it is a traced one."""
        if self.tracer is None or not self.tracer.enabled:
            return None
        profile = TracedProfile()
        profile.tracer = self.tracer
        return profile


class Workload:
    name = ""
    #: operations per second of run time (the parent commit's pace here)
    rate = 1.0
    warmup = 0
    #: queries answered (or blobs indexed) by one operation
    items_per_op = 1
    #: set-ups per run; setup_s is their median.  Heavy builds run once.
    setup_repeats = 1
    #: traced runs alternate blocks of this many operations with tracing
    #: on and off; 0 traces every operation.
    trace_block = 0
    #: forked shard workers alive during the run (for peak_rss_mb)
    workers = 0
    #: fewest operations a run makes, however short
    min_ops = 2

    def __init__(self, env: Env) -> None:
        self.env = env
        self.rng = np.random.default_rng(env.seed)
        self.index_bytes = 0
        self.blobs_indexed = 0
        #: what the set-up's own steps took, for the per-layer report
        self.parts: Dict[str, float] = {}
        self.builds: List[BuildProfile] = []
        self.num_ops = max(self.min_ops, round(self.rate * env.seconds))

    # -- to implement --------------------------------------------------------

    def prepare(self) -> None:
        """Generate every input from ``self.rng``."""

    def setup(self) -> None:
        raise NotImplementedError

    def instrument(self, tracer: Tracer) -> None:
        """Wrap the public methods of the objects ``setup`` made."""

    def op(self, i: int) -> Any:
        """Operation ``i``; ``-warmup <= i < 0`` are warm-up."""
        raise NotImplementedError

    def start_timed(self) -> None:
        """After warm-up, before the first timed operation."""

    def user_latencies(self, latencies: List[float]) -> List[float]:
        """The operations whose latency ``op_ms_p50`` reports."""
        return latencies

    def verify(self, answers: List[Any]) -> Tuple[int, List[str]]:
        """(answers checked, what was wrong) — after the timed phase.
        ``None`` stands for an operation that raised; the driver has
        already counted it."""
        return 0, []

    def layer_metrics(self, summary: Any) -> Dict[str, float]:
        """Per-layer metrics only this workload can compute, from its
        layers' own counters and the traced run's ``summary``."""
        return {}

    def teardown(self) -> None:
        pass

    # -- shared helpers ------------------------------------------------------

    def discard_setup(self) -> None:
        """Undo a set-up that was only made to be timed."""
        self.teardown()
        self.index_bytes = self.blobs_indexed = 0
        self.parts.clear()
        self.builds.clear()

    def distinct_blobs(self, timed: int, warm: int) -> np.ndarray:
        """``warm`` warm-up blobs, then ``timed`` more, all distinct.  The
        timed ones are a prefix of one seeded permutation, so workloads
        that share a seed share their first queries whatever their
        lengths."""
        perm = self.rng.permutation(self.env.num_blobs)
        if timed + warm > len(perm):
            raise ValueError(f"{self.name}: {timed + warm} distinct query "
                             f"blobs from a corpus of {len(perm)}")
        return np.concatenate((perm[len(perm) - warm:], perm[:timed]))

    def path(self, name: str) -> str:
        return str(self.env.workdir / f"{self.name}-{name}")

    def timed(self, part: str, start: float) -> None:
        self.parts[part] = self.parts.get(part, 0.0) \
            + time.perf_counter() - start

    def build(self, family: str, file: Optional[str] = None,
              codec: str = "f64", mmap: bool = False) -> Any:
        """``bulk_load`` one family over the whole corpus — in memory, or
        into the page file ``file`` — keeping the program's own build
        telemetry.  Traced, the load is a ``bulk`` span whose children
        are BP construction and the page writes."""
        ext = make_extension(family, DIMS)
        store = None
        if file is not None:
            store = FilePageFile.for_extension(
                file, ext, page_size=PAGE_SIZE, leaf_codec=codec,
                mmap_mode=mmap)
        tracer = self.env.tracer
        span = None
        if tracer is not None and tracer.enabled:
            tracer.wrap(ext, "preds_for_nodes", "ams.bp_build")
            if store is not None:
                tracer.wrap(store, "write_many", "storage.write")
            span = tracer.open("bulk.load")
        profile = BuildProfile()
        try:
            tree = bulk_load(ext, self.env.reduced, page_size=PAGE_SIZE,
                             store=store, profile=profile)
        finally:
            if span is not None:
                tracer.close(span)
        self.builds.append(profile)
        if file is not None:
            store.flush()
            self.note_index(file)
        return tree

    def note_index(self, *files: str) -> None:
        self.index_bytes += sum(os.path.getsize(f) for f in files)
        self.blobs_indexed += self.env.num_blobs * len(files)

    def sample_pairs(self, blocks: Sequence[Sequence[int]],
                     answers: List[Any]) -> List[Tuple[int, List[int]]]:
        """A seeded sample of (query blob, image list) out of the answers
        to blocks of queries."""
        pairs = [(blob, images)
                 for block, result in zip(blocks, answers)
                 if result is not None
                 for blob, images in zip(block, result)]
        picks = np.random.default_rng(self.env.seed + 1).choice(
            len(pairs), size=min(ORACLE_SAMPLE, len(pairs)), replace=False)
        return [pairs[p] for p in picks]

    def check_images(self, engine: BlobworldEngine,
                     pairs: Sequence[Tuple[int, List[int]]]
                     ) -> Tuple[int, List[str]]:
        """Each (query blob, image list) against the brute-force answer:
        the index may change the I/O, never the images."""
        wrong = []
        for blob, images in pairs:
            expect = engine.reduced_query(int(blob), DIMS, CANDIDATES,
                                          TOP_IMAGES)
            if list(images) != expect:
                wrong.append(f"{self.name}: blob {int(blob)} returned "
                             f"images that differ from the brute-force "
                             f"answer")
        return len(pairs), wrong


def trace_store(tracer: Tracer, store: Any) -> None:
    """Spans and page counts on a tree's store, and on the page file under
    it when the store is a buffer pool."""

    def logical(result: Any, _args: tuple) -> None:
        for node in result if isinstance(result, list) else (result,):
            tracer.count("gist.leaf_pages" if node.level == 0
                         else "gist.inner_pages")

    def physical(result: Any, _args: tuple) -> None:
        tracer.count("storage.read_pages",
                     len(result) if isinstance(result, list) else 1)

    def both(result: Any, args: tuple) -> None:
        logical(result, args)
        physical(result, args)

    pagefile = getattr(store, "pagefile", None)
    for method in ("read", "read_many"):
        if pagefile is None:
            tracer.wrap(store, method, "storage.read", after=both)
        else:
            tracer.wrap(store, method, "storage.pool", after=logical)
            tracer.wrap(pagefile, method, "storage.read", after=physical)


def trace_tree(tracer: Tracer, tree: Any, store: Any = None) -> None:
    tracer.wrap(tree, "knn", "gist.knn")
    for hook in ("min_dists_node", "min_dists_node_multi", "refine_dist",
                 "refine_dists_node"):
        tracer.wrap(tree.ext, hook, "ams.bp_dist")
    trace_store(tracer, tree.store if store is None else store)


def trace_engine(tracer: Tracer, engine: BlobworldEngine) -> None:
    def candidates(_result: Any, args: tuple) -> None:
        found = args[1]
        tracer.count("blobworld.rerank_candidates",
                     sum(len(c) for c in found)
                     if isinstance(found, (list, tuple)) else len(found))

    tracer.wrap(engine, "am_query", "blobworld.am_query")
    tracer.wrap(engine, "am_query_batch", "blobworld.am_query")
    tracer.wrap(engine, "rerank", "blobworld.rerank", after=candidates)
    tracer.wrap(engine, "rerank_batch", "blobworld.rerank", after=candidates)


def pool_metrics(stats: Any) -> Dict[str, float]:
    return {"storage.pool_hit_rate": stats.hit_rate,
            "storage.pool_evictions": stats.evictions}


def neighbours_wrong(keys: np.ndarray, query: np.ndarray,
                     hits: Sequence[Tuple[float, int]]) -> bool:
    """Do ``hits`` differ from the brute-force nearest neighbours?  By
    distance: which of several equidistant keys is returned is free."""
    expect = np.sort(np.sqrt(((keys - query) ** 2).sum(axis=1)))[:CANDIDATES]
    got = np.array([d for d, _ in hits])
    return got.shape != expect.shape \
        or not np.allclose(got, expect, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# point queries
# ---------------------------------------------------------------------------

class PointHot(Workload):
    """Single am_query calls on an XJB index held decoded in memory: traversal,
    BP kernels and the 218-D rerank do all the work and storage none."""

    name = "point_hot"
    rate = 500.0
    warmup = 200
    trace_block = 50

    def prepare(self) -> None:
        self.blobs = self.distinct_blobs(self.num_ops, self.warmup)

    def setup(self) -> None:
        self.engine = BlobworldEngine(self.env.corpus)
        path = self.path("xjb.gist")
        built = self.build("xjb")
        t0 = time.perf_counter()
        save_tree(built, path)
        self.timed("gist.persist.save_s", t0)
        self.note_index(path)
        t0 = time.perf_counter()
        self.tree = load_tree(path=path)
        self.timed("gist.persist.load_s", t0)

    def instrument(self, tracer: Tracer) -> None:
        trace_engine(tracer, self.engine)
        trace_tree(tracer, self.tree)

    def op(self, i: int) -> List[int]:
        return self.engine.am_query(
            self.tree, int(self.blobs[self.warmup + i]), CANDIDATES, DIMS,
            TOP_IMAGES)

    def verify(self, answers: List[Any]) -> Tuple[int, List[str]]:
        # The first queries, not a sample: point_hot and point_cold share
        # them, and both matching the brute-force answer is what makes
        # their image lists identical to each other.
        return self.check_images(
            self.engine, [(self.blobs[self.warmup + i], answer)
                          for i, answer in enumerate(answers[:ORACLE_SAMPLE])
                          if answer is not None])


class PointCold(PointHot):
    """The same queries on the same XJB tree read through an mmap page file
    behind a 256-page pool smaller than the index: page read, CRC and decode
    dominate."""

    name = "point_cold"
    rate = 50.0
    warmup = 50
    trace_block = 10

    def setup(self) -> None:
        self.engine = BlobworldEngine(self.env.corpus)
        self.tree = self.build("xjb", self.path("xjb.pages"), mmap=True)
        self.tree.store = BufferPool(self.tree.store, POOL_PAGES)

    def layer_metrics(self, summary: Any) -> Dict[str, float]:
        return pool_metrics(self.tree.store.stats)

    def teardown(self) -> None:
        self.tree.store.close()


# ---------------------------------------------------------------------------
# in-process batches through the planner
# ---------------------------------------------------------------------------

class BulkBatch(Workload):
    """Blocks of 64 distinct queries through am_query_batch with the cost-based
    planner on R-tree/sq8: the planner, the flat-scan kernel it picks at
    this size, sq8 refine and rerank_batch."""

    name = "bulk_batch"
    rate = 2.3
    warmup = 1
    #: The planner sends blocks of 32 and more to the scan.  At 64 the
    #: scan's temporaries reach 1.7 GB and in this sandbox every third
    #: block then stalls 1-2 s in the kernel's huge-page faults, which
    #: makes the median block time bimodal; at 32 block times repeat
    #: within a few percent.
    items_per_op = 32
    setup_repeats = 3
    trace_block = 1

    def prepare(self) -> None:
        size = self.items_per_op
        blobs = self.distinct_blobs(self.num_ops * size, self.warmup * size)
        self.blocks = blobs.reshape(-1, size)

    def setup(self) -> None:
        self.engine = BlobworldEngine(self.env.corpus)
        self.tree = self.build("rtree", self.path("rtree-sq8.pages"),
                               codec="sq8", mmap=True)
        self.tree.store = BufferPool(self.tree.store, POOL_PAGES)
        self.flat = FlatFile(self.env.reduced, page_size=PAGE_SIZE)
        self.planner = QueryPlanner(self.tree, self.flat)
        self.plans: List[Any] = []

    def instrument(self, tracer: Tracer) -> None:
        import repro.gist.batch
        trace_engine(tracer, self.engine)
        trace_tree(tracer, self.tree)
        # am_query_batch imports the batch kernel at call time
        tracer.wrap(repro.gist.batch, "knn_search_batch", "gist.knn")
        tracer.wrap(self.flat, "knn_batch", "ams.flat_scan")
        tracer.wrap(self.planner, "plan_batch", "gist.planner.plan",
                    after=lambda plan, _args: self.plans.append(plan))

    def op(self, i: int) -> List[List[int]]:
        return self.engine.am_query_batch(
            self.tree, self.blocks[self.warmup + i], CANDIDATES, DIMS,
            TOP_IMAGES, profile=self.env.profile(), planner=self.planner)

    def verify(self, answers: List[Any]) -> Tuple[int, List[str]]:
        return self.check_images(self.engine, self.sample_pairs(
            self.blocks[self.warmup:], answers))

    def layer_metrics(self, summary: Any) -> Dict[str, float]:
        """The planner's DiskModel prices beside what the chosen execution
        measured — the paper's section 6 break-even, checked."""
        scans = [p for p in self.plans if p.choice == "scan"]
        trees = [p for p in self.plans if p.choice == "tree"]
        scan_ms = summary.total.get("ams.flat_scan", 0.0) * 1e3
        tree_ms = summary.total.get("gist.knn", 0.0) * 1e3
        out = pool_metrics(self.tree.store.stats)
        out.update({
            "gist.planner.scan_share":
                len(scans) / len(self.plans) if self.plans else 0.0,
            "gist.planner.scan_est_over_measured":
                sum(p.est_scan_ms for p in scans) / scan_ms if scans else 0.0,
            "gist.planner.tree_est_over_measured":
                sum(p.est_tree_ms for p in trees) / tree_ms if trees else 0.0,
            "ams.flat_scan_pages": self.flat.pages_read,
        })
        return out

    def teardown(self) -> None:
        self.tree.store.close()


# ---------------------------------------------------------------------------
# the sharded service
# ---------------------------------------------------------------------------

class ServeUnique(Workload):
    """Closed-loop requests of 8 distinct queries to a 2-shard service: caches
    and coalescing are bypassed, so scatter/gather, transport, merge and the
    coordinator's refine + rerank are the largest share."""

    name = "serve_unique"
    rate = 66.0
    warmup = 64
    items_per_op = 8
    setup_repeats = 3
    trace_block = 10
    workers = 2
    #: ShardedService's defaults, named because serve_repeat scales them
    caches = {"cache_size": 4096, "worker_cache": 2048}

    def prepare(self) -> None:
        size = self.items_per_op
        blobs = self.distinct_blobs(self.num_ops * size, self.warmup * size)
        self.requests = blobs.reshape(-1, size)

    def setup(self) -> None:
        shard_dir = self.env.workdir / f"{self.name}-shards"
        shard_dir.mkdir(exist_ok=True)
        self.service = ShardedService.build(
            self.env.corpus, self.workers, "rtree", codec="sq8",
            page_size=PAGE_SIZE, workdir=str(shard_dir), **self.caches)
        for shard in self.service.shards:
            shard["tree"].store.flush()
        self.note_index(*(shard["tree"].store.path
                          for shard in self.service.shards))
        # each shard indexed its slice, not the whole corpus
        self.blobs_indexed = self.env.num_blobs
        t0 = time.perf_counter()
        self.service.start()
        self.timed("serving.start_s", t0)
        self.profiles: List[TracedProfile] = []
        self.before: Dict[int, Dict[str, Any]] = {}
        #: queries sent since start(): what the transport counters cover
        self.sent = 0

    def instrument(self, tracer: Tracer) -> None:
        tracer.wrap(self.service, "am_query_batch", "serving.request")
        tracer.wrap(self.service, "serve_stream", "serving.request")
        trace_engine(tracer, self.service.engine)

    def start_timed(self) -> None:
        self.before = self.service.gather_stats()

    def traced_profile(self) -> Optional[TracedProfile]:
        profile = self.env.profile()
        if profile is not None:
            self.profiles.append(profile)
        return profile

    def queries_of(self, i: int) -> Sequence[int]:
        return self.requests[self.warmup + i]

    def op(self, i: int) -> List[List[int]]:
        self.sent += self.items_per_op
        return self.service.am_query_batch(
            self.queries_of(i), CANDIDATES, TOP_IMAGES,
            profile=self.traced_profile())

    def verify(self, answers: List[Any]) -> Tuple[int, List[str]]:
        checked, wrong = self.check_images(
            self.service.engine, self.sample_pairs(
                [self.queries_of(i) for i in range(len(answers))], answers))
        if self.service.degraded_requests:
            wrong.append(f"{self.name}: {self.service.degraded_requests} "
                         f"requests were answered degraded")
        return checked, wrong

    def layer_metrics(self, summary: Any) -> Dict[str, float]:
        final = TracedProfile()
        after = self.service.gather_stats(final)
        busy = [after[s]["busy_seconds"]
                - self.before.get(s, {}).get("busy_seconds", 0.0)
                for s in sorted(after)]

        def share(group: str, yes: str, no: str) -> float:
            hits = sum(st.get(group, {}).get(yes, 0) for st in after.values())
            total = hits + sum(st.get(group, {}).get(no, 0)
                               for st in after.values())
            return hits / total if total else 0.0

        stages: Dict[str, float] = {}
        for profile in self.profiles:
            for stage, seconds in profile.stage_seconds.items():
                stages[stage] = stages.get(stage, 0.0) + seconds
        depths = [d for p in self.profiles for d in p.queue_depths]
        cache = self.service.cache.stats
        out = {
            "serving.scatter_s": stages.get("scatter", 0.0),
            "serving.gather_wait_s": stages.get("gather", 0.0),
            "serving.merge_s": stages.get("merge", 0.0),
            "serving.coord_rerank_s": stages.get("refine", 0.0)
                                      + stages.get("rerank", 0.0),
            "serving.coord_aggregation_s": stages.get("aggregation", 0.0),
            "serving.worker_busy_s.max": max(busy),
            "serving.worker_busy_s.min": min(busy),
            "serving.worker_busy_share":
                sum(busy) / (len(busy) * summary.wall),
            "serving.worker_cache_hit_rate": share("cache", "hits", "misses"),
            "serving.worker_pool_hit_rate": share("pool", "hits", "misses"),
            "serving.worker_plan_scan_share": share("plans", "scan", "tree"),
            "serving.coalesced": sum(p.coalesced for p in self.profiles),
            "serving.overlap_s": sum(p.overlap_seconds
                                     for p in self.profiles),
            "serving.queue_depth_max": max(depths) if depths else 0,
            "serving.degraded_requests": self.service.degraded_requests,
            "blobworld.cache_hit_rate": cache.hit_rate,
            "blobworld.cache_evictions": cache.evictions,
        }
        for kind in ("shm", "pickled", "control"):
            out[f"serving.bytes_{kind}_per_query"] = \
                final.transport_bytes.get(kind, 0) / self.sent
        return out

    def teardown(self) -> None:
        self.service.close()


class ServeRepeat(ServeUnique):
    """A Zipf(0.8) backlog from a pool larger than the coordinator cache,
    itself larger than the worker caches, drained by serve_stream: the
    window, coalescing, result caches and read-ahead do the work
    serve_unique bypasses."""

    name = "serve_repeat"
    #: one operation drains a segment of 8 requests x 64 queries
    request_size = 64
    items_per_op = 8 * request_size
    rate = 10.0
    #: Timed segments should meet full caches that evict, not the cold
    #: start, whose length depends on the draw and whose 64-query miss
    #: blocks the workers scan at 0.4 s each.  So warm-up asks for the
    #: blobs the coordinator cache can hold, once each, most popular last,
    #: in requests of 8 that the workers answer from the tree.
    warm_size = 8
    warmup = 128
    trace_block = 1
    #: the issue's 6144 > 4096 > 2048 regime at a quarter of the size, so
    #: that eviction starts inside a run this short
    pool_size = 1536
    caches = {"cache_size": 1024, "worker_cache": 512}
    zipf = 0.8

    def prepare(self) -> None:
        pool = self.rng.permutation(self.env.num_blobs)[:self.pool_size]
        weights = 1.0 / np.arange(1, len(pool) + 1) ** self.zipf
        draws = self.rng.choice(
            len(pool), size=self.num_ops * self.items_per_op,
            p=weights / weights.sum())
        self.segments = pool[draws].reshape(self.num_ops, -1)
        # pool[0] is the most popular blob
        self.warm = pool[:self.warmup * self.warm_size][::-1].reshape(
            self.warmup, self.warm_size)

    def queries_of(self, i: int) -> Sequence[int]:
        return self.segments[i]

    def op(self, i: int) -> List[List[int]]:
        if i < 0:
            self.sent += self.warm_size
            return self.service.am_query_batch(self.warm[i], CANDIDATES,
                                               TOP_IMAGES)
        self.sent += self.items_per_op
        return self.service.serve_stream(
            [int(b) for b in self.queries_of(i)], CANDIDATES, TOP_IMAGES,
            request_size=self.request_size, profile=self.traced_profile())


# ---------------------------------------------------------------------------
# writes beside reads
# ---------------------------------------------------------------------------

class MutateMix(Workload):
    """Every 4th operation a durable insert or delete through the WAL, the rest
    200-NN reads on the same MutableTree, fsync after each commit;
    afterwards the file is reopened through recovery and every acknowledged
    write checked."""

    name = "mutate_mix"
    rate = 30.0
    trace_block = 8
    min_ops = 8

    @staticmethod
    def is_write(i: int) -> bool:
        return i % 4 == 3

    def prepare(self) -> None:
        n = self.num_ops
        self.queries = self.env.reduced[
            self.rng.choice(self.env.num_blobs, size=n)]
        self.noise = self.rng.normal(scale=1e-3, size=(n, DIMS))
        reads = [i for i in range(n) if not self.is_write(i)]
        self.checked_reads = {int(i) for i in np.random.default_rng(
            self.env.seed + 1).choice(
                reads, size=min(ORACLE_SAMPLE, len(reads)), replace=False)}

    def setup(self) -> None:
        self.file = self.path("xjb.gist")
        built = self.build("xjb")
        t0 = time.perf_counter()
        save_tree(built, self.file)
        self.timed("gist.persist.save_s", t0)
        self.note_index(self.file)
        self.mt = MutableTree.open(self.file)
        self.next_rid = self.env.num_blobs
        #: acknowledged inserts not yet deleted, and deleted ones: rid -> key
        self.live: Dict[int, np.ndarray] = {}
        self.deleted: Dict[int, np.ndarray] = {}
        #: the inserted keys alive when each checked read ran
        self.snapshots: Dict[int, np.ndarray] = {}
        self.checkpoints = 0
        self.wal_bytes = 0

    def instrument(self, tracer: Tracer) -> None:
        def checkpointed(_result: Any, _args: tuple) -> None:
            self.checkpoints += 1

        trace_tree(tracer, self.mt.tree, store=self.mt.wpf.store)
        tracer.wrap(self.mt, "insert", "gist.mutable.insert")
        tracer.wrap(self.mt, "delete", "gist.mutable.delete")
        tracer.wrap(self.mt.wpf, "commit", "storage.wal_commit")
        tracer.wrap(self.mt.wpf, "checkpoint", "storage.wal_checkpoint",
                    after=checkpointed)

    def op(self, i: int) -> Any:
        if not self.is_write(i):
            if i in self.checked_reads:
                self.snapshots[i] = np.array(
                    list(self.live.values())).reshape(-1, DIMS)
            return self.mt.tree.knn(self.queries[i], CANDIDATES)
        before = self.mt.wal_size
        if (i // 4) % 2 == 0 or not self.live:
            key = self.queries[i] + self.noise[i]
            self.mt.insert(key, self.next_rid)
            self.live[self.next_rid] = key
            self.next_rid += 1
            done = True
        else:
            rid = next(iter(self.live))
            done = self.mt.delete(self.live[rid], rid)
            self.deleted[rid] = self.live.pop(rid)
        # a checkpoint inside the commit resets the log to empty
        self.wal_bytes += max(self.mt.wal_size - before, 0)
        return done

    def user_latencies(self, latencies: List[float]) -> List[float]:
        return [l for i, l in enumerate(latencies) if self.is_write(i)]

    def verify(self, answers: List[Any]) -> Tuple[int, List[str]]:
        wrong = [f"{self.name}: write {i} was not acknowledged"
                 for i, answer in enumerate(answers)
                 if self.is_write(i) and answer is False]
        for i, inserted in sorted(self.snapshots.items()):
            if answers[i] is not None and neighbours_wrong(
                    np.concatenate((self.env.reduced, inserted)),
                    self.queries[i], answers[i]):
                wrong.append(f"{self.name}: read {i} differs from the "
                             f"brute-force neighbours")
        # Durability: reopen through recovery.  Every acknowledged insert
        # that was not deleted must be there, and every delete gone.
        self.pages_written = self.mt.wpf.base.stats.writes
        self.mt.close()
        self.mt = MutableTree.open(self.file)
        for rid, key in self.live.items():
            if self.mt.tree.knn(key, 1)[0][1] != rid:
                wrong.append(f"{self.name}: acknowledged insert {rid} lost "
                             f"after reopen")
        for rid, key in self.deleted.items():
            if self.mt.tree.knn(key, 1)[0][1] == rid:
                wrong.append(f"{self.name}: deleted {rid} still present "
                             f"after reopen")
        return (len(self.snapshots) + len(self.live) + len(self.deleted),
                wrong)

    def layer_metrics(self, summary: Any) -> Dict[str, float]:
        reads = [l for i, l in enumerate(summary.latencies)
                 if not self.is_write(i)]
        return {
            "storage.wal_bytes_per_write":
                self.wal_bytes / max(summary.ops - len(reads), 1),
            "storage.wal_checkpoints": self.checkpoints,
            "storage.write_pages": self.pages_written,
            "gist.mutable.read_ms_p50": float(np.median(reads)) * 1e3,
        }

    def teardown(self) -> None:
        self.mt.close()


# ---------------------------------------------------------------------------
# index builds
# ---------------------------------------------------------------------------

class BuildPaperAMs(Workload):
    """Bulk-loads the paper's six access methods over all blobs into page
    files: the only workload where STR packing, BP construction and page
    writes are the timed work."""

    name = "build_paper_ams"
    #: one pass over the six families takes about 13 s
    rate = len(FAMILIES) / 13.0
    #: every span comes from a handful of calls per build
    trace_block = 0

    def __init__(self, env: Env) -> None:
        super().__init__(env)
        # whole passes only: every run builds each family equally often
        passes = max(1, round(self.num_ops / len(FAMILIES)))
        self.num_ops = passes * len(FAMILIES)
        self.items_per_op = env.num_blobs

    def setup(self) -> None:
        self.trees: Dict[str, Any] = {}

    def op(self, i: int) -> str:
        family = FAMILIES[i % len(FAMILIES)]
        replaced = self.trees.pop(family, None)
        if replaced is not None:
            replaced.store.close()
        self.trees[family] = self.build(
            family, self.path(f"{family}-{i // len(FAMILIES)}.pages"))
        return family

    def user_latencies(self, latencies: List[float]) -> List[float]:
        """One sample per pass: what building all six takes."""
        size = len(FAMILIES)
        return [sum(latencies[i:i + size])
                for i in range(0, len(latencies) - size + 1, size)]

    def verify(self, answers: List[Any]) -> Tuple[int, List[str]]:
        rng = np.random.default_rng(self.env.seed + 1)
        reduced = self.env.reduced
        wrong = []
        for family, tree in self.trees.items():
            for blob in rng.choice(len(reduced), size=5, replace=False):
                if neighbours_wrong(reduced, reduced[blob],
                                    tree.knn(reduced[blob], CANDIDATES)):
                    wrong.append(f"{self.name}: the {family} index returns "
                                 f"wrong neighbours for blob {int(blob)}")
        return 5 * len(self.trees), wrong

    def layer_metrics(self, summary: Any) -> Dict[str, float]:
        return {"storage.write_pages":
                sum(p.total_nodes for p in self.builds)}

    def teardown(self) -> None:
        for tree in self.trees.values():
            tree.store.close()


WORKLOADS = {cls.name: cls for cls in (
    PointHot, PointCold, BulkBatch, ServeUnique, ServeRepeat, MutateMix,
    BuildPaperAMs)}
