"""Page access counters.

A :class:`PageStats` counts page reads by tree level.  The tree books
its query reads in one (:attr:`repro.gist.tree.GiST.stats`: every node
its counted read returns, one per page access, as amdb counts them), and
a :class:`~repro.storage.diskfile.FilePageFile` books the reads and
writes it physically performs in another.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class PageStats:
    """Cumulative access counters for one tree or page file."""

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
