"""Deterministic storage fault injection.

:class:`FaultyPageFile` wraps any store satisfying
:class:`~repro.storage.PageFileProtocol` and injects failures described
by a declarative :class:`FaultPolicy`, drawn from a seeded RNG — the
same seed always produces the same fault sequence, so every failure
mode the resilience layer claims to handle is reproducible in a test:

- **transient read faults** (:class:`TransientIOError`): either
  rate-based or forced per-page counts ("the next n reads of page 7
  fail"), to exercise what a fault that outlived the page file's
  retry does above it;
- **bit flips**: when the wrapped store exposes raw slot images
  (``FilePageFile``), one randomly chosen bit of the image is flipped
  *in memory* and the flipped image decoded through the real codec, so
  detection is exactly what the CRC-32 seal provides; stores without
  raw access model the already-detected outcome
  (:class:`PageCorruptError`);
- **torn writes**: the slot's tail is zeroed after the write (the
  classic power-cut half-page), persistently breaking the seal; without
  raw access the page is marked torn and poisoned for future reads;
- **dropped writes**: the write is silently discarded (lost-write
  model; a later read returns the previous version);
- **stale reads**: a previously written version of the node is served
  (firmware cache bug model).

Injection happens only on the counted ``read``/``write`` paths — the
maintenance ``peek`` path stays honest so trees can still be inspected
while misbehaving.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Set

from repro.storage.errors import (PageCorruptError, StorageError,
                                  TransientIOError)


class CrashError(StorageError):
    """The process "died" at an injected crash point.

    Raised by :class:`CrashInjector` to model a kill -9 mid-mutation:
    whatever bytes were written before the crash point stay on disk,
    everything after it is lost.  Holders of the crashed store must
    discard it and re-open through recovery
    (:func:`repro.storage.wal.recover`).
    """


@dataclass
class CrashPoint:
    """Where (and how) one injected crash fires.

    ``point`` names a location in the WAL commit protocol:

    - ``"mid-append"``: while appending log records — the record being
      written persists only a ``torn`` fraction of its bytes, so replay
      sees a torn tail and the transaction never commits;
    - ``"pre-apply"``: after the commit record is fsynced but before
      any page image reaches the data file — the transaction is durable
      in the log only;
    - ``"mid-apply"``: between page writes of the apply phase — the
      data file holds a half-applied transaction (the page being
      written persists a ``torn`` fraction).

    ``after`` skips that many matching crash-point hits first, so the
    crash can land in any transaction of a workload, not just the
    first.
    """

    point: str = "mid-apply"
    #: matching hits to survive before firing.
    after: int = 0
    #: fraction of the in-flight record/page persisted before dying.
    torn: float = 0.5


class CrashInjector:
    """Arms one :class:`CrashPoint`; fires once, then stays quiet.

    The WAL commit path calls :meth:`check` at each crash point with an
    optional ``partial`` callback that persists a torn prefix of the
    in-flight record or page; firing invokes the callback and raises
    :class:`CrashError`.
    """

    def __init__(self, point: CrashPoint) -> None:
        self.point = point
        self.remaining = point.after
        self.fired = False

    def check(self, point: str,
              partial: Optional[Callable[[float], None]] = None) -> None:
        """Die here if this is the armed crash point's turn."""
        if self.fired or point != self.point.point:
            return
        if self.remaining > 0:
            self.remaining -= 1
            return
        self.fired = True
        if partial is not None and self.point.torn > 0.0:
            partial(self.point.torn)
        raise CrashError(f"injected crash at {point!r}")


@dataclass
class FaultPolicy:
    """Declarative description of what to inject, and how often.

    All rates are probabilities in [0, 1] evaluated per operation from
    the seeded RNG; ``transient_reads`` forces deterministic per-page
    fault counts regardless of rates.
    """

    seed: int = 0
    #: page id -> number of forced TransientIOErrors before success.
    transient_reads: Dict[int, int] = field(default_factory=dict)
    #: probability a read raises TransientIOError.
    transient_read_rate: float = 0.0
    #: probability a read sees a single flipped bit in its page image.
    bitflip_read_rate: float = 0.0
    #: probability a read returns a stale (previous) node version.
    stale_read_rate: float = 0.0
    #: probability a write persists only its leading half (torn).
    torn_write_rate: float = 0.0
    #: probability a write is silently dropped (lost write).
    drop_write_rate: float = 0.0
    #: stop injecting rate-based faults after this many (None = never).
    max_faults: Optional[int] = None


@dataclass
class FaultLog:
    """Counters of injected faults, for test assertions."""

    transient: int = 0
    bitflips: int = 0
    stale: int = 0
    torn: int = 0
    dropped: int = 0

    @property
    def total(self) -> int:
        return (self.transient + self.bitflips + self.stale
                + self.torn + self.dropped)


class FaultyPageFile:
    """A page file that misbehaves on purpose.

    Conforms to the page-file interface, so it can sit anywhere a real
    store does — typically over a :class:`FilePageFile` (whose checksums
    catch the flips).  Nothing above it retries: an injected transient
    reaches the caller, as a real one does once the page file's own
    retry budget is spent.
    """

    def __init__(self, inner: Any, policy: Optional[FaultPolicy] = None,
                 **policy_kwargs: Any) -> None:
        self.inner = inner
        self.policy = policy if policy is not None \
            else FaultPolicy(**policy_kwargs)
        self._rng = random.Random(self.policy.seed)
        self._pending_transients = dict(self.policy.transient_reads)
        #: page id -> previous node version (stale-read source).
        self._shadow: Dict[int, Any] = {}
        #: pages whose write was torn, for stores without raw access.
        self._torn: Set[int] = set()
        self.injected = FaultLog()

    # -- fault machinery -----------------------------------------------------

    def _roll(self, rate: float) -> bool:
        if rate <= 0.0:
            return False
        if (self.policy.max_faults is not None
                and self.injected.total >= self.policy.max_faults):
            return False
        return self._rng.random() < rate

    def fail_next_reads(self, page_id: int, count: int) -> None:
        """Force the next ``count`` reads of ``page_id`` to be transient
        failures (imperative alternative to the policy mapping)."""
        self._pending_transients[page_id] = \
            self._pending_transients.get(page_id, 0) + count

    def corrupt_page(self, page_id: int, bit: Optional[int] = None) -> int:
        """Persistently flip one bit of a slot (requires raw access).

        Returns the flipped bit index.  Reads of the page then raise
        :class:`PageCorruptError` until it is rewritten.
        """
        image = self.inner._read_raw(page_id)
        if bit is None:
            bit = self._rng.randrange(len(image) * 8)
        self.inner._write_raw(page_id, _flip_bit(image, bit))
        return bit

    # -- node access ---------------------------------------------------------

    def read(self, page_id: int) -> Any:
        pending = self._pending_transients.get(page_id, 0)
        if pending > 0:
            self._pending_transients[page_id] = pending - 1
            self.injected.transient += 1
            raise TransientIOError("injected transient read fault",
                                   page_id=page_id)
        if self._roll(self.policy.transient_read_rate):
            self.injected.transient += 1
            raise TransientIOError("injected transient read fault",
                                   page_id=page_id)
        if (page_id in self._shadow
                and self._roll(self.policy.stale_read_rate)):
            self.injected.stale += 1
            return self._shadow[page_id]
        if page_id in self._torn:
            raise PageCorruptError("injected torn write", page_id=page_id)
        if self._roll(self.policy.bitflip_read_rate):
            self.injected.bitflips += 1
            if hasattr(self.inner, "_read_raw"):
                image = self.inner._read_raw(page_id)
                image = _flip_bit(image, self._rng.randrange(len(image) * 8))
                # Decode the flipped image through the real codec: the
                # seal catches every single-bit flip, so this raises
                # PageCorruptError with the codec's own message.
                self.inner.codec.decode_node(image, page_id)
            raise PageCorruptError("injected bit flip", page_id=page_id)
        return self.inner.read(page_id)

    def peek(self, page_id: int) -> Any:
        return self.inner.peek(page_id)

    def write(self, node: Any) -> None:
        if self._roll(self.policy.drop_write_rate):
            self.injected.dropped += 1
            return
        try:
            previous = self.inner.peek(node.page_id)
        except StorageError:
            previous = None
        self.inner.write(node)
        if previous is not None:
            self._shadow[node.page_id] = previous
        if self._roll(self.policy.torn_write_rate):
            self.injected.torn += 1
            if hasattr(self.inner, "_read_raw"):
                image = self.inner._read_raw(node.page_id)
                half = len(image) // 2
                self.inner._write_raw(
                    node.page_id, image[:half] + b"\x00" * (len(image) - half))
            else:
                self._torn.add(node.page_id)

    def write_many(self, nodes: Iterable[Any]) -> None:
        """Batch write through the per-node fault path.

        Deliberately not delegated to the inner store's bulk path: each
        node goes through :meth:`write` in order, so the seeded fault
        sequence is identical whether a caller writes pages one at a time
        or in a batch.
        """
        for node in nodes:
            self.write(node)

    def free(self, page_id: int) -> None:
        self._shadow.pop(page_id, None)
        self._torn.discard(page_id)
        self.inner.free(page_id)

    # -- passthroughs --------------------------------------------------------

    def allocate(self) -> int:
        return self.inner.allocate()

    def reserve(self, up_to: int) -> None:
        self.inner.reserve(up_to)

    def page_ids(self) -> List[int]:
        return self.inner.page_ids()

    def __contains__(self, page_id: int) -> bool:
        return page_id in self.inner

    def __len__(self) -> int:
        return len(self.inner)

    @property
    def stats(self) -> Any:
        return self.inner.stats

    def flush(self) -> None:
        self.inner.flush()

    def close(self) -> None:
        self.inner.close()

    def __enter__(self) -> "FaultyPageFile":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def _flip_bit(image: bytes, bit: int) -> bytes:
    """``image`` with bit ``bit`` (0 = LSB of byte 0) inverted."""
    byte, offset = divmod(bit, 8)
    flipped = image[byte] ^ (1 << offset)
    return image[:byte] + bytes([flipped]) + image[byte + 1:]
