"""Fork plumbing for the shard daemon.

The serving coordinator (:mod:`repro.serving`) stashes shared state in
a module global and forks one worker per contiguous shard: fork shares
trees and page files copy-on-write, where any other start method would
have to pickle them, and they cannot be pickled.  The shard arithmetic
and the store-handling helpers the workers need live here; nothing
outside ``serving/`` forks.
"""

from __future__ import annotations

import multiprocessing
from typing import Any, List, Tuple


def fork_available() -> bool:
    """Whether the ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


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
