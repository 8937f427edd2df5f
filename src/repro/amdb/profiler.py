"""Workload profiling: per-query page access traces.

The profiler registers as an access listener on the tree's page file, so
it sees exactly the page reads the query work performs (maintenance
reads are uncounted by design; see :mod:`repro.gist.tree`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np


@dataclass
class QueryTrace:
    """What one nearest-neighbor query touched and returned."""

    qid: int
    query: np.ndarray
    #: leaf page ids read, in access order
    leaf_accesses: List[int] = field(default_factory=list)
    #: inner page ids read (root included), in access order
    inner_accesses: List[int] = field(default_factory=list)
    #: the k results as (distance, rid), nearest first
    results: List[Tuple[float, int]] = field(default_factory=list)

    @property
    def result_rids(self) -> List[int]:
        return [rid for _, rid in self.results]

    @property
    def total_ios(self) -> int:
        return len(self.leaf_accesses) + len(self.inner_accesses)


@dataclass
class WorkloadProfile:
    """Traces for a whole workload plus the tree facts metrics need."""

    tree_name: str
    k: int
    traces: List[QueryTrace]
    #: rid -> leaf page id holding it
    rid_to_leaf: Dict[int, int]
    #: leaf page id -> storage utilization in [0, 1+]
    leaf_utilization: Dict[int, float]
    #: child page id -> parent page id
    parents: Dict[int, int]
    #: leaf page id -> number of entries
    leaf_sizes: Dict[int, int]
    leaf_capacity: int
    num_leaves: int
    num_inner: int
    height: int

    @property
    def num_queries(self) -> int:
        return len(self.traces)

    @property
    def total_pages(self) -> int:
        return self.num_leaves + self.num_inner

    @property
    def total_leaf_ios(self) -> int:
        return sum(len(t.leaf_accesses) for t in self.traces)

    @property
    def total_inner_ios(self) -> int:
        return sum(len(t.inner_accesses) for t in self.traces)

    @property
    def total_ios(self) -> int:
        return self.total_leaf_ios + self.total_inner_ios

    def result_leaves(self, trace: QueryTrace) -> Set[int]:
        """Leaves holding at least one of the query's results."""
        return {self.rid_to_leaf[rid] for rid in trace.result_rids}

    def result_subtree_pages(self, trace: QueryTrace) -> Set[int]:
        """All pages on root paths of the query's result leaves."""
        pages: Set[int] = set()
        for leaf in self.result_leaves(trace):
            page = leaf
            pages.add(page)
            while page in self.parents:
                page = self.parents[page]
                pages.add(page)
        return pages

    def pages_touched(self) -> Set[int]:
        """Distinct pages read at least once across the workload."""
        touched: Set[int] = set()
        for t in self.traces:
            touched.update(t.leaf_accesses)
            touched.update(t.inner_accesses)
        return touched


@dataclass
class BuildProfile:
    """Per-phase telemetry for one bulk-load run.

    Filled by :func:`repro.bulk.loader.bulk_load` when a profile object
    is passed in.  Phases: ``sort`` (ordering the keys / routing
    centers), ``pack`` (assembling nodes from chunks), ``bp`` (bounding
    predicate construction), ``write`` (page encode + I/O), ``merge``
    (parallel-only: fork, IPC, and parent-side merge overhead).  With
    ``workers > 1`` the pack/bp/write entries are summed across workers,
    so they measure aggregate work, not wall clock; ``total_seconds`` is
    the wall clock of the whole build.
    """

    tree_name: str = ""
    n_keys: int = 0
    workers: int = 1
    #: largest worker count any level actually forked (0 = none did,
    #: e.g. the requested count was clamped to the usable CPUs)
    fork_workers: int = 0
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: level -> number of nodes built at that level
    nodes_by_level: Dict[int, int] = field(default_factory=dict)
    total_seconds: float = 0.0

    def add(self, phase: str, seconds: float) -> None:
        self.phase_seconds[phase] = \
            self.phase_seconds.get(phase, 0.0) + seconds

    @property
    def total_nodes(self) -> int:
        return sum(self.nodes_by_level.values())

    def as_dict(self) -> Dict:
        """JSON-ready form (string keys, plain floats)."""
        return {
            "tree": self.tree_name,
            "n_keys": self.n_keys,
            "workers": self.workers,
            "fork_workers": self.fork_workers,
            "total_seconds": self.total_seconds,
            "phase_seconds": {k: float(v)
                              for k, v in sorted(self.phase_seconds.items())},
            "nodes_by_level": {str(k): v
                               for k, v in sorted(self.nodes_by_level.items())},
        }


def latency_percentiles(samples: Sequence[float]) -> Dict[str, float]:
    """Tail-latency summary of per-request wall times (seconds in,
    milliseconds out).

    Returns ``p50_ms`` / ``p95_ms`` / ``p99_ms``, or an empty dict when
    no samples were recorded, so JSON consumers can tell "not measured"
    from "zero".
    """
    if not len(samples):
        return {}
    arr = np.asarray(samples, dtype=np.float64) * 1e3
    p50, p95, p99 = np.percentile(arr, [50.0, 95.0, 99.0])
    return {"p50_ms": round(float(p50), 3),
            "p95_ms": round(float(p95), 3),
            "p99_ms": round(float(p99), 3)}


@dataclass
class ShardServeProfile:
    """Telemetry for one sharded serving run.

    Filled by :class:`~repro.serving.coordinator.ShardedService`:
    stage wall times (``scatter`` / ``gather`` / ``merge`` / ``refine``
    / ``rerank`` / ``aggregation``), one latency sample plus queue
    depth per request block, per-shard busy seconds from the workers'
    own clocks, worker cache/pool/planner counters, the registry's
    heartbeat snapshot, and how many requests were answered degraded
    (at least one shard dead or expired at scatter time).
    """

    method: str = ""
    codec: str = "f64"
    num_shards: int = 0
    request_size: int = 0
    queries: int = 0
    total_seconds: float = 0.0
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    #: socket bytes by class: ``pickled`` array payloads, ``control``
    #: everything else (framing, op names, scalars)
    transport_bytes: Dict[str, int] = field(default_factory=dict)
    #: coordinator finish work (merge/refine/rerank) done while other
    #: request blocks were still in flight on the workers.
    overlap_seconds: float = 0.0
    #: per-request wall times (seconds), sizes, and queue depths —
    #: parallel lists, one entry per request block
    request_latencies: List[float] = field(default_factory=list)
    request_sizes: List[int] = field(default_factory=list)
    queue_depths: List[int] = field(default_factory=list)
    #: shard -> seconds the worker spent handling this run's requests
    shard_partial_seconds: Dict[int, float] = field(default_factory=dict)
    #: shard -> worker-side cache/pool/planner counters
    shard_stats: Dict[int, Dict] = field(default_factory=dict)
    #: registry snapshot (liveness state per shard) at run end
    heartbeats: Dict[int, Dict] = field(default_factory=dict)
    degraded_requests: int = 0
    #: always 0 — the service does not coalesce requests across
    #: blocks — but still reported, as the spine's ``serving.coalesced``
    coalesced: int = 0
    #: coordinator-level result-cache counters
    cache_hits: int = 0
    cache_misses: int = 0

    def add(self, stage: str, seconds: float) -> None:
        self.stage_seconds[stage] = \
            self.stage_seconds.get(stage, 0.0) + seconds

    def record_request(self, seconds: float, size: int,
                       queue_depth: int) -> None:
        self.request_latencies.append(seconds)
        self.request_sizes.append(size)
        self.queue_depths.append(queue_depth)

    def note_partial(self, shard_id: int, seconds: float) -> None:
        self.shard_partial_seconds[shard_id] = \
            self.shard_partial_seconds.get(shard_id, 0.0) + seconds

    def note_cache(self, stats) -> None:
        self.cache_hits = stats.hits
        self.cache_misses = stats.misses

    @property
    def cache_hit_rate(self) -> float:
        accesses = self.cache_hits + self.cache_misses
        return self.cache_hits / accesses if accesses else 0.0

    @property
    def requests(self) -> int:
        return len(self.request_latencies)

    def as_dict(self) -> Dict:
        """JSON-ready form (string keys, plain floats)."""
        depths = self.queue_depths
        return {
            "method": self.method,
            "codec": self.codec,
            "num_shards": self.num_shards,
            "request_size": self.request_size,
            "queries": self.queries,
            "requests": self.requests,
            "total_seconds": self.total_seconds,
            "stage_seconds": {k: float(v)
                              for k, v in sorted(self.stage_seconds.items())},
            "transport_bytes": {k: int(v)
                                for k, v in
                                sorted(self.transport_bytes.items())},
            "overlap_seconds": round(float(self.overlap_seconds), 4),
            "latency_ms": latency_percentiles(self.request_latencies),
            "queue_depth": {
                "max": max(depths) if depths else 0,
                "mean": round(float(np.mean(depths)), 2) if depths else 0.0,
            },
            "shard_partial_seconds": {
                str(k): round(float(v), 4)
                for k, v in sorted(self.shard_partial_seconds.items())},
            "shard_stats": {str(k): v
                            for k, v in sorted(self.shard_stats.items())},
            "heartbeats": {str(k): v
                           for k, v in sorted(self.heartbeats.items())},
            "degraded_requests": self.degraded_requests,
            "coalesced": self.coalesced,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": round(self.cache_hit_rate, 4),
        }


def profile_workload(tree, queries: Sequence[np.ndarray],
                     k: int) -> WorkloadProfile:
    """Replay ``queries`` as k-NN searches, tracing every page access."""
    traces: List[QueryTrace] = []
    current = QueryTrace(qid=-1, query=None)

    def listener(page_id: int, level: int) -> None:
        if level == 0:
            current.leaf_accesses.append(page_id)
        else:
            current.inner_accesses.append(page_id)

    tree.store.add_listener(listener)
    try:
        for qid, q in enumerate(queries):
            q = np.asarray(q, dtype=np.float64)
            current = QueryTrace(qid=qid, query=q)
            current.results = tree.knn(q, k)
            traces.append(current)
    finally:
        tree.store.remove_listener(listener)

    return WorkloadProfile(tree_name=tree.ext.name, k=k, traces=traces,
                           **_tree_facts(tree))


def _tree_facts(tree) -> Dict:
    """The tree-shape fields of :class:`WorkloadProfile`, by one
    uncounted walk."""
    rid_to_leaf: Dict[int, int] = {}
    leaf_utilization: Dict[int, float] = {}
    leaf_sizes: Dict[int, int] = {}
    num_leaves = num_inner = 0
    for node in tree.iter_nodes():
        if node.is_leaf:
            num_leaves += 1
            leaf_utilization[node.page_id] = tree.node_utilization(node)
            leaf_sizes[node.page_id] = len(node)
            for entry in node.entries:
                rid_to_leaf[entry.rid] = node.page_id
        else:
            num_inner += 1

    return dict(
        rid_to_leaf=rid_to_leaf,
        leaf_utilization=leaf_utilization,
        parents=tree.parent_map(),
        leaf_sizes=leaf_sizes,
        leaf_capacity=tree.leaf_capacity,
        num_leaves=num_leaves,
        num_inner=num_inner,
        height=tree.height,
    )
