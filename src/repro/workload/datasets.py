"""Synthetic data-set families beyond Blobworld (paper section 8).

The paper's future work asks for "testing aMAP, JB and XJB on other
data sets, and workloads both static and dynamic".  This module
provides standard multidimensional families with controlled geometry —
the knob that (per EXPERIMENTS.md A3) decides whether corner-bite
predicates pay off — plus a dynamic workload generator mixing inserts,
deletes, and k-NN queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np


def uniform(n: int, dim: int, seed: int = 0) -> np.ndarray:
    """I.i.d. uniform over the unit cube — the hardest case for bites."""
    return np.random.default_rng(seed).uniform(0.0, 1.0, size=(n, dim))


def gaussian_clusters(n: int, dim: int, seed: int = 0,
                      num_clusters: int = 30,
                      spread: float = 0.35) -> np.ndarray:
    """Isotropic Gaussian clusters with random centers and scales."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(num_clusters, dim)) * 4.0
    sizes = rng.multinomial(n, np.full(num_clusters, 1 / num_clusters))
    parts = [c + rng.normal(size=(s, dim)) * spread * rng.uniform(0.5, 2)
             for c, s in zip(centers, sizes) if s > 0]
    out = np.concatenate(parts)
    rng.shuffle(out)
    return out


def diagonal_band(n: int, dim: int, seed: int = 0,
                  thickness: float = 0.02) -> np.ndarray:
    """Points along the main diagonal — maximal empty-corner geometry."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, 1.0, size=n)
    pts = np.tile(t[:, None], (1, dim))
    return pts + rng.normal(scale=thickness, size=(n, dim))


def curved_manifold(n: int, dim: int, seed: int = 0,
                    intrinsic: int = 2,
                    noise: float = 0.01) -> np.ndarray:
    """A smooth ``intrinsic``-dimensional sheet embedded in ``dim``."""
    if not 1 <= intrinsic < dim:
        raise ValueError("need 1 <= intrinsic < dim")
    rng = np.random.default_rng(seed)
    t = rng.uniform(-2.0, 2.0, size=(n, intrinsic))
    cols = [t[:, i % intrinsic] for i in range(intrinsic)]
    phase = rng.uniform(0, np.pi, size=dim)
    for d in range(intrinsic, dim):
        a, b = t[:, d % intrinsic], t[:, (d + 1) % intrinsic]
        cols.append(np.sin(a * 1.3 + phase[d]) * b * 0.6)
    pts = np.stack(cols, axis=1)
    return pts + rng.normal(scale=noise, size=pts.shape)


def heavy_tailed(n: int, dim: int, seed: int = 0,
                 tail_fraction: float = 0.05) -> np.ndarray:
    """Dense clusters plus a scattered tail of outliers."""
    rng = np.random.default_rng(seed)
    base = gaussian_clusters(n, dim, seed=seed + 1, spread=0.15)
    tail = rng.integers(0, n, size=int(n * tail_fraction))
    base[tail] = rng.normal(size=(len(tail), dim)) * 8.0
    return base


DATASET_FAMILIES: Dict[str, Callable[..., np.ndarray]] = {
    "uniform": uniform,
    "clusters": gaussian_clusters,
    "diagonal": diagonal_band,
    "manifold": curved_manifold,
    "heavy_tailed": heavy_tailed,
}


# ---------------------------------------------------------------------------
# Dynamic workloads
# ---------------------------------------------------------------------------

@dataclass
class DynamicOp:
    """One step of a dynamic workload."""

    kind: str                  # "insert" | "delete" | "query"
    rid: int = -1              # for insert/delete
    query: np.ndarray = None   # for query


@dataclass
class DynamicRunResult:
    """What happened when a dynamic workload ran against a tree."""

    query_leaf_ios: List[int]
    query_results: List[List[Tuple[float, int]]]
    inserts: int
    deletes: int

    @property
    def mean_query_leaf_ios(self) -> float:
        return float(np.mean(self.query_leaf_ios)) \
            if self.query_leaf_ios else 0.0


def make_dynamic_workload(vectors: np.ndarray, num_ops: int, k: int,
                          seed: int = 0,
                          mix=(0.25, 0.15, 0.60)) -> List[DynamicOp]:
    """A random interleaving of inserts, deletes and k-NN queries.

    The tree starts holding the first half of ``vectors``; inserts draw
    from the second half, deletes from whatever is currently live, and
    queries from live data points.  ``mix`` gives the
    (insert, delete, query) proportions.
    """
    rng = np.random.default_rng(seed)
    n = len(vectors)
    live = set(range(n // 2))
    pending = list(range(n // 2, n))
    rng.shuffle(pending)

    ops: List[DynamicOp] = []
    kinds = rng.choice(["insert", "delete", "query"], size=num_ops,
                       p=list(mix))
    for kind in kinds:
        if kind == "insert" and pending:
            ops.append(DynamicOp("insert", rid=pending.pop()))
        elif kind == "delete" and len(live) > k + 1:
            rid = int(rng.choice(sorted(live)))
            live.discard(rid)
            ops.append(DynamicOp("delete", rid=rid))
        else:
            focus = int(rng.choice(sorted(live)))
            ops.append(DynamicOp("query", query=vectors[focus]))
        if ops[-1].kind == "insert":
            live.add(ops[-1].rid)
    return ops


def run_dynamic_workload(tree, vectors: np.ndarray,
                         ops: List[DynamicOp], k: int) -> DynamicRunResult:
    """Execute a dynamic workload; returns per-query leaf I/Os.

    The tree must already contain the first half of ``vectors`` (rids
    ``0 .. n//2-1``), as produced by ``make_dynamic_workload``.
    """
    leaf_ios: List[int] = []
    results = []
    inserts = deletes = 0
    for op in ops:
        if op.kind == "insert":
            tree.insert(vectors[op.rid], op.rid)
            inserts += 1
        elif op.kind == "delete":
            if tree.delete(vectors[op.rid], op.rid):
                deletes += 1
        else:
            before = tree.stats.leaf_reads
            results.append(tree.knn(op.query, k))
            leaf_ios.append(tree.stats.leaf_reads - before)
    return DynamicRunResult(query_leaf_ios=leaf_ios,
                            query_results=results,
                            inserts=inserts, deletes=deletes)
