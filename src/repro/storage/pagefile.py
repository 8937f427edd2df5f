"""Page files: node storage with access accounting.

Every node read during query processing is one ``read`` of one page,
which the page file counts and reports to registered listeners.  The
amdb profiler (:mod:`repro.amdb.profiler`) is such a listener: it
attributes each access to the query being executed.

:class:`MemoryPageFile` keeps decoded node objects in memory — the page
abstraction is about *accounting*, not about saving RAM — while
:class:`FilePageFile` (see :mod:`repro.storage.diskfile`) round-trips real
page images through the node codec for persistence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List

from repro.storage.errors import PageMissingError

AccessListener = Callable[[int, int], None]
"""Called as ``listener(page_id, level)`` on every counted access."""


@dataclass
class PageStats:
    """Cumulative access counters for one page file."""

    reads: int = 0
    writes: int = 0
    reads_by_level: Dict[int, int] = field(default_factory=dict)

    def record_read(self, level: int) -> None:
        self.reads += 1
        self.reads_by_level[level] = self.reads_by_level.get(level, 0) + 1

    @property
    def leaf_reads(self) -> int:
        return self.reads_by_level.get(0, 0)

    @property
    def inner_reads(self) -> int:
        return sum(n for lvl, n in self.reads_by_level.items() if lvl != 0)

    def reset(self) -> None:
        self.reads = 0
        self.writes = 0
        self.reads_by_level.clear()


class MemoryPageFile:
    """In-memory node store with page-level access accounting."""

    def __init__(self) -> None:
        self._nodes: Dict[int, Any] = {}
        self._next_id = 1
        self.stats = PageStats()
        self._listeners: List[AccessListener] = []

    # -- id allocation ------------------------------------------------------

    def allocate(self) -> int:
        page_id = self._next_id
        self._next_id += 1
        return page_id

    def reserve(self, up_to: int) -> None:
        """Ensure future allocations start above ``up_to`` (reload path)."""
        self._next_id = max(self._next_id, up_to + 1)

    # -- node access ----------------------------------------------------------

    def read(self, page_id: int) -> Any:
        """Fetch a node, counting the access (query work)."""
        node = self._get(page_id)
        self.stats.record_read(node.level)
        for listener in self._listeners:
            listener(page_id, node.level)
        return node

    def read_many(self, page_ids: Iterable[int]) -> List[Any]:
        # kept by name only: the spine's trace_store wraps it
        return [self.read(page_id) for page_id in page_ids]

    def peek(self, page_id: int) -> Any:
        """Fetch a node without counting (maintenance / analysis paths)."""
        return self._get(page_id)

    def _get(self, page_id: int) -> Any:
        try:
            return self._nodes[page_id]
        except KeyError:
            raise PageMissingError("no such page",
                                   page_id=page_id) from None

    def write(self, node: Any) -> None:
        self._nodes[node.page_id] = node
        self.stats.writes += 1

    def write_many(self, nodes: Iterable[Any]) -> None:
        """Store a batch of nodes (bulk-load write path)."""
        for node in nodes:
            self.write(node)

    def free(self, page_id: int) -> None:
        del self._nodes[page_id]

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def page_ids(self) -> List[int]:
        return list(self._nodes)

    # -- listeners ----------------------------------------------------------

    def add_listener(self, listener: AccessListener) -> None:
        self._listeners.append(listener)

    def remove_listener(self, listener: AccessListener) -> None:
        self._listeners.remove(listener)

    # -- lifecycle ----------------------------------------------------------

    def flush(self) -> None:
        """No-op: an in-memory store has nothing to sync."""

    def close(self) -> None:
        """No-op: an in-memory store holds no OS resources."""

    def __enter__(self) -> "MemoryPageFile":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
