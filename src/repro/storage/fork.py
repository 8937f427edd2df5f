"""Fork-pool plumbing shared by parallel execution paths.

The parallel bulk loader (:mod:`repro.bulk.loader`) and the shard
daemon (:mod:`repro.serving`) follow the same pattern: stash shared
state in a module global, fork one worker per contiguous shard (fork
shares the state copy-on-write; a Pool argument would have to pickle
trees and page files, which cannot be pickled), and merge the outcomes
in shard order so results are deterministic regardless of which worker
finished first.  The store-handling helpers here are the part both
sides need verbatim.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from typing import Any, List, Tuple


def fork_available() -> bool:
    """Whether the ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def usable_cpus(cgroup_root: str = "/sys/fs/cgroup") -> int:
    """CPUs this process may actually run on.

    The scheduling affinity mask respects ``taskset`` and cpuset
    pinning, but a containerized process usually gets throttled by a
    cgroup CPU *quota* instead — the affinity mask still shows every
    host core.  Both limits are read and the smaller wins: CPU-bound
    fork workers beyond it only add scheduling (or throttling)
    overhead, so parallel paths clamp their effective worker count to
    this number unless explicitly asked to oversubscribe.

    ``cgroup_root`` exists for tests; production callers use the
    default mount point.
    """
    try:
        affinity = len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        affinity = os.cpu_count() or 1
    quota = _cgroup_cpu_quota(cgroup_root)
    if quota:
        return min(affinity, quota)
    return affinity


def _cgroup_cpu_quota(root: str) -> int:
    """Whole CPUs the cgroup CPU controller allows (0 = unlimited).

    cgroup v2 publishes ``cpu.max`` as ``"<quota> <period>"`` in
    microseconds (quota ``max`` = unlimited); v1 splits the same pair
    across ``cpu/cpu.cfs_quota_us`` (-1 = unlimited) and
    ``cpu/cpu.cfs_period_us``.  Fractional quotas round up — a
    1.5-CPU container can keep two workers busy part-time, while
    rounding down to one would idle guaranteed bandwidth.
    """
    try:
        with open(os.path.join(root, "cpu.max")) as f:
            fields = f.read().split()
        if fields and fields[0] != "max":
            quota_us = int(fields[0])
            period_us = int(fields[1]) if len(fields) > 1 else 100_000
            if quota_us > 0 and period_us > 0:
                return max(1, math.ceil(quota_us / period_us))
        if fields:
            return 0
    except (OSError, ValueError):
        pass
    try:
        with open(os.path.join(root, "cpu", "cpu.cfs_quota_us")) as f:
            quota_us = int(f.read().strip())
        if quota_us <= 0:
            return 0
        with open(os.path.join(root, "cpu", "cpu.cfs_period_us")) as f:
            period_us = int(f.read().strip())
        if period_us > 0:
            return max(1, math.ceil(quota_us / period_us))
    except (OSError, ValueError):
        pass
    return 0


def shard_bounds(n: int, workers: int) -> List[Tuple[int, int]]:
    """Split ``range(n)`` into ``workers`` contiguous near-even shards."""
    per, extra = divmod(n, workers)
    bounds, start = [], 0
    for i in range(workers):
        size = per + (1 if i < extra else 0)
        if size:
            bounds.append((start, start + size))
        start += size
    return bounds


def store_chain(store: Any) -> List[Any]:
    """The store and every layer it wraps, outermost first."""
    chain: List[Any] = []
    seen: set = set()
    layer = store
    while layer is not None and id(layer) not in seen:
        seen.add(id(layer))
        chain.append(layer)
        layer = getattr(layer, "inner", None) \
            or getattr(layer, "pagefile", None)
    return chain


def reopen_files(store: Any) -> None:
    """Give every file-backed layer a private file object.

    A forked child inherits the parent's descriptors, and with them the
    *shared* file offset — two workers seeking the same description
    would race.  Reopening by path creates an independent description;
    the inherited object is abandoned unclosed so its buffer can't
    flush stray bytes at a shared offset.
    """
    for layer in store_chain(store):
        if getattr(layer, "_file", None) is not None \
                and getattr(layer, "path", None) is not None:
            layer._file = open(layer.path, "r+b")
