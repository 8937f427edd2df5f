"""High-level API: build, query, and analyze customized access methods.

The paper's workflow (Figure 5) is: load blob descriptors into candidate
access methods, replay a nearest-neighbor workload under amdb, study the
losses, and iterate on the bounding predicate design.  This module packs
that loop into three calls::

    tree = build_index(vectors, method="xjb")
    report = analyze_workload(tree, vectors, queries, k=200)
    reports = compare_methods(vectors, queries, methods=["rtree", "xjb"])
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.constants import DEFAULT_PAGE_SIZE, TARGET_UTILIZATION, XJB_DEFAULT_X
from repro.ams import (RStarTreeExtension, RTreeExtension,
                       SRTreeExtension, SSTreeExtension)
from repro.amdb import compute_losses, optimal_clustering, profile_workload
from repro.amdb.metrics import LossReport
from repro.amdb.partition import Clustering
from repro.bulk import bulk_load, insertion_load
from repro.core.amap import AMapExtension
from repro.core.jbtree import JBExtension
from repro.core.xjb import XJBExtension, select_x
from repro.gist import GiST

#: access method registry: name -> extension factory(dim, **options)
EXTENSIONS = {
    "rtree": RTreeExtension,
    "rstar": RStarTreeExtension,
    "sstree": SSTreeExtension,
    "srtree": SRTreeExtension,
    "amap": AMapExtension,
    "jb": JBExtension,
    "xjb": XJBExtension,
}


def make_extension(method: str, dim: int, **options):
    """Instantiate an access method extension by registry name."""
    try:
        factory = EXTENSIONS[method]
    except KeyError:
        raise ValueError(
            f"unknown access method {method!r}; "
            f"choose one of {sorted(EXTENSIONS)}") from None
    if method == "xjb" and options.get("x") == "auto":
        options = dict(options)
        options["x"] = None  # resolved by build_index, which knows n
    return factory(dim, **options)


def build_index(vectors: np.ndarray, method: str = "xjb",
                page_size: int = DEFAULT_PAGE_SIZE,
                loading: str = "bulk", rids: Optional[Sequence[int]] = None,
                codec: str = "f64", **options) -> GiST:
    """Build an index of the given ``method`` over ``vectors``.

    ``loading`` is ``"bulk"`` (STR, the paper's configuration) or
    ``"insert"`` (one INSERT per key, Table 2's contrast).  For XJB,
    pass ``x="auto"`` to let :func:`repro.core.xjb.select_x` pick the
    paper's "largest X that costs at most one level".  ``codec``
    selects the leaf-page format: ``"f64"`` or ``"sq8"`` (8-bit scalar
    quantization, ranked by ``vectors`` attached as :attr:`GiST.exact`
    when ``rids`` are the default; otherwise attach them yourself).
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2:
        raise ValueError("vectors must be a 2-D (n, dim) array")
    dim = vectors.shape[1]

    if method == "xjb" and options.get("x") == "auto":
        options = dict(options)
        options["x"] = select_x(len(vectors), dim, page_size)
    ext = make_extension(method, dim, **options)
    from repro.storage.codecs import make_leaf_codec
    leaf_codec = make_leaf_codec(codec, dim)

    if loading == "bulk":
        return bulk_load(ext, vectors, rids=rids, page_size=page_size,
                         leaf_codec=leaf_codec)
    if loading == "insert":
        return insertion_load(ext, vectors, rids=rids, page_size=page_size,
                              leaf_codec=leaf_codec)
    raise ValueError(f"unknown loading mode {loading!r}")


def analyze_workload(tree: GiST, vectors: np.ndarray,
                     queries: Sequence[np.ndarray], k: int,
                     rids: Optional[Sequence[int]] = None,
                     clustering: Optional[Clustering] = None,
                     target_utilization: float = TARGET_UTILIZATION) -> LossReport:
    """Profile a k-NN workload and compute amdb losses for ``tree``."""
    if rids is None:
        rids = list(range(len(vectors)))
    profile = profile_workload(tree, queries, k)
    return compute_losses(profile, keys=vectors, rids=list(rids),
                          clustering=clustering,
                          target_utilization=target_utilization)


def compare_methods(vectors: np.ndarray, queries: Sequence[np.ndarray],
                    k: int, methods: Sequence[str] = ("rtree", "xjb"),
                    page_size: int = DEFAULT_PAGE_SIZE,
                    loading: str = "bulk",
                    target_utilization: float = TARGET_UTILIZATION,
                    method_options: Optional[Dict[str, dict]] = None
                    ) -> Dict[str, LossReport]:
    """Build each method over the same data, analyze the same workload.

    The optimal clustering is computed once, from the first tree's leaf
    capacity, and shared across methods — the clustering baseline depends
    only on data, workload, and page capacity, not on the AM.
    """
    method_options = method_options or {}
    vectors = np.asarray(vectors, dtype=np.float64)
    rids = list(range(len(vectors)))

    reports: Dict[str, LossReport] = {}
    shared_clustering: Optional[Clustering] = None
    for method in methods:
        tree = build_index(vectors, method, page_size=page_size,
                           loading=loading,
                           **method_options.get(method, {}))
        profile = profile_workload(tree, queries, k)
        if shared_clustering is None:
            block_capacity = max(1, int(target_utilization
                                        * tree.leaf_capacity))
            shared_clustering = optimal_clustering(
                vectors, rids, [t.result_rids for t in profile.traces],
                block_capacity)
        reports[method] = compute_losses(
            profile, clustering=shared_clustering,
            target_utilization=target_utilization)
    return reports
