"""Spans recorded from the benchmark's side of the program's public calls.

The program has no tracing of its own yet (the ``repro.obs`` issue), so a
traced run replaces public methods *on the instances the driver holds* —
``store.read``, ``tree.knn``, ``engine.rerank``, the extension's distance
hooks — with wrappers that record a span around the call.  What runs where
the driver cannot reach (inside ``rerank_batch``, inside the coordinator,
inside forked workers) reports through the program's own profile hooks; those
give durations, which become synthetic child spans of whatever span is open.

A span is ``[name, start, end, parent, op]``: ``parent`` indexes ``spans``
(-1 for an operation's root) and ``op`` is the operation it belongs to.  A
layer is the first dotted component of the name.  A span's self time is its
duration minus its direct children's, so self times sum to the roots' wall
time exactly.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

NAME, START, END, PARENT, OP = range(5)

#: the root span of every operation; its self time is wall time under no
#: layer's span, reported as ``driver.unattributed_share``.
ROOT = "driver.op"


class Tracer:
    """In-memory span recorder.  Disabled, a wrapped method costs one
    attribute test; the driver flips ``enabled`` between blocks of
    operations so traced and untraced operations share one warm state."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        #: per open span, where its next synthetic child starts
        self._cursor: List[float] = []
        self._undo: List[Tuple[Any, str, Any, bool]] = []
        self._op = -1

    # -- recording -----------------------------------------------------------

    def open(self, name: str) -> list:
        now = time.perf_counter()
        span = [name, now, now, self._stack[-1] if self._stack else -1,
                self._op]
        self._stack.append(len(self.spans))
        self._cursor.append(now)
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()
        self._cursor.pop()

    def begin_op(self, op: int) -> Optional[list]:
        if not self.enabled:
            return None
        self._op = op
        return self.open(ROOT)

    def synthetic(self, name: str, seconds: float) -> None:
        """A child of the open span, from a duration a profile hook
        reported: laid end to end from the parent's start, since the hook
        does not say when the stage ran."""
        if not (self.enabled and self._stack):
            return
        start = self._cursor[-1]
        self._cursor[-1] = start + seconds
        self.spans.append([name, start, start + seconds, self._stack[-1],
                           self._op])

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            self.counts[name] += amount

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str,
             after: Optional[Callable[[Any, tuple], None]] = None) -> None:
        """Record a span named ``name`` around ``owner.attr(...)``;
        ``after(result, args)`` may count what the call took or returned."""
        original = getattr(owner, attr)
        shadowed = attr in vars(owner)

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return original(*args, **kwargs)
            span = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(result, args)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original, shadowed))

    def unwrap_all(self) -> None:
        while self._undo:
            owner, attr, original, shadowed = self._undo.pop()
            if shadowed:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> List[float]:
        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def totals(self) -> Tuple[Dict[str, float], Dict[str, float],
                              Dict[str, int]]:
        """Per span name: summed duration, summed self time, span count."""
        total: Dict[str, float] = defaultdict(float)
        own: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for span, self_time in zip(self.spans, self.self_times()):
            total[span[NAME]] += span[END] - span[START]
            own[span[NAME]] += self_time
            calls[span[NAME]] += 1
        return total, own, calls

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans,
                       "counts": dict(self.counts)}, f)
