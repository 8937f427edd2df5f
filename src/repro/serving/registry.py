"""Shard worker registry: heartbeats, expiry, and liveness states.

The coordinator refreshes a shard's heartbeat on every successful
response; a shard that has not answered within ``ttl`` seconds is
*expired* and the coordinator stops scattering to it (degraded mode)
until a ping revives it.  A shard whose transport failed outright —
dead process, torn frame — is *dead*, permanently: its file descriptors
are gone, only a restart brings it back.

The clock is injectable so the expiry state machine is unit-testable
without sleeping; the default is :func:`time.monotonic` (heartbeat
arithmetic must survive wall-clock adjustments — the ``wall_clock``
convention's rationale, applied to liveness).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

LIVE = "live"
EXPIRED = "expired"
DEAD = "dead"


@dataclass
class ShardRecord:
    """One worker's liveness bookkeeping."""

    shard_id: int
    #: global rid range the shard owns
    lo: int
    hi: int
    last_beat: float
    beats: int = 0
    dead: bool = False
    #: stringified transport failure, once dead
    cause: str = ""

    @property
    def num_entries(self) -> int:
        return self.hi - self.lo


class ShardRegistry:
    """Liveness states for a fixed shard set.

    States: ``live`` (heartbeat fresh), ``expired`` (no heartbeat for
    ``ttl`` seconds; revivable by a successful ping), ``dead``
    (transport failed; terminal).
    """

    def __init__(self, ttl: float = 30.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if ttl <= 0:
            raise ValueError("heartbeat ttl must be positive")
        self.ttl = ttl
        self.clock = clock
        self._records: Dict[int, ShardRecord] = {}

    def register(self, shard_id: int, lo: int, hi: int) -> ShardRecord:
        record = ShardRecord(shard_id=shard_id, lo=lo, hi=hi,
                             last_beat=self.clock())
        self._records[shard_id] = record
        return record

    def beat(self, shard_id: int) -> None:
        """A successful response arrived: refresh the heartbeat.

        Revives an *expired* shard (it answered, so it is back); a
        *dead* shard stays dead — its transport is gone.
        """
        record = self._records[shard_id]
        if record.dead:
            return
        record.last_beat = self.clock()
        record.beats += 1

    def mark_dead(self, shard_id: int, cause: str = "") -> None:
        record = self._records[shard_id]
        record.dead = True
        record.cause = cause

    def state(self, shard_id: int) -> str:
        record = self._records[shard_id]
        if record.dead:
            return DEAD
        if self.clock() - record.last_beat > self.ttl:
            return EXPIRED
        return LIVE

    def record(self, shard_id: int) -> ShardRecord:
        return self._records[shard_id]

    def live(self) -> list:
        """Shard ids currently in the ``live`` state, ascending."""
        return [sid for sid in sorted(self._records)
                if self.state(sid) == LIVE]

    def states(self) -> Dict[int, str]:
        return {sid: self.state(sid) for sid in sorted(self._records)}

    def snapshot(self) -> Dict[int, Dict]:
        """JSON-ready per-shard liveness for profiles and the CLI."""
        now = self.clock()
        out: Dict[int, Dict] = {}
        for sid in sorted(self._records):
            record = self._records[sid]
            entry = {
                "state": self.state(sid),
                "rid_range": [record.lo, record.hi],
                "beats": record.beats,
                "age_seconds": round(now - record.last_beat, 4),
            }
            if record.dead and record.cause:
                entry["cause"] = record.cause
            out[sid] = entry
        return out

    def __len__(self) -> int:
        return len(self._records)
