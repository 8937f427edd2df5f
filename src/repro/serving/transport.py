"""Transport channels: one message API over framed or shm transport.

A channel wraps one coordinator<->worker socket and presents the same
three calls either way — ``send(msg)``, ``recv() -> (msg, token)``,
``release(token)`` — so the daemon loop and the scatter-gather paths
never branch on the transport.

:class:`FramedChannel` is the PR-8 wire format: the whole dict, arrays
included, pickles into one frame.  :class:`ShmChannel` strips every
top-level numpy array out of the message, writes the bytes into its
transmit :class:`~repro.serving.shm.ShmRing`, and sends only a control
frame carrying the slot handoff; ``recv`` maps the arrays back in as
zero-copy views and hands the caller the slot token to ``release`` once
the views are dead (after the merge has copied out of them).

Every channel keeps honest byte counters — ``shm`` (array bytes through
the ring), ``pickled`` (array bytes that went through pickle), and
``control`` (everything else on the socket) — which is how the daemon
tests prove the hot path pickles nothing: in shm mode the
``pickled`` counter stays exactly zero unless a message overflowed its
slot and took the sanctioned framed fallback.
"""

from __future__ import annotations

import select
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.serving.protocol import recv_msg, send_msg
from repro.serving.shm import (ShmBackpressure, ShmRing, ShmSlotOverflow,
                               ShmTornSlot)

#: control-frame key carrying the slot handoff; never a user payload key.
SHM_KEY = "__shm__"


class FramedChannel:
    """The PR-8 transport: everything pickles into one frame."""

    mode = "framed"

    def __init__(self, sock: Any) -> None:
        self.sock = sock
        self.bytes_shm = 0
        self.bytes_pickled = 0
        self.bytes_control = 0

    def send(self, msg: Dict[str, Any]) -> None:
        array_bytes = sum(v.nbytes for v in msg.values()
                          if isinstance(v, np.ndarray))
        wire = send_msg(self.sock, msg)
        self.bytes_pickled += array_bytes
        self.bytes_control += max(wire - array_bytes, 0)

    def recv(self) -> Tuple[Dict[str, Any], Optional[int]]:
        return recv_msg(self.sock), None

    def release(self, token: Optional[int]) -> None:
        pass

    def pending(self, timeout: float = 0.0) -> bool:
        """Is another frame already waiting on the socket?"""
        try:
            ready, _, _ = select.select([self.sock], [], [], timeout)
        except (OSError, ValueError):
            return False
        return bool(ready)

    def counters(self) -> Dict[str, int]:
        return {"shm": self.bytes_shm, "pickled": self.bytes_pickled,
                "control": self.bytes_control}

    def close(self, unlink: bool = False) -> None:
        pass


class ShmChannel(FramedChannel):
    """Array payloads through a shm ring, control frames on the socket.

    ``tx`` carries this side's outgoing arrays, ``rx`` the peer's; the
    coordinator and the worker construct the same two rings crossed.
    A message whose arrays overflow the slot — or that cannot get a
    slot within ``write_timeout`` — falls back to one framed send and
    books the arrays as ``pickled``, keeping the channel correct (and
    the zero-copy gate honest) instead of deadlocking.
    """

    mode = "shm"

    def __init__(self, sock: Any, tx: ShmRing, rx: ShmRing,
                 write_timeout: float = 2.0) -> None:
        super().__init__(sock)
        self.tx = tx
        self.rx = rx
        self.write_timeout = write_timeout

    def send(self, msg: Dict[str, Any]) -> None:
        keys = [k for k, v in msg.items() if isinstance(v, np.ndarray)]
        if not keys:
            self.bytes_control += send_msg(self.sock, msg)
            return
        try:
            slot, seq, metas = self.tx.write([msg[k] for k in keys],
                                             timeout=self.write_timeout)
        except (ShmSlotOverflow, ShmBackpressure):
            # Sanctioned fallback: oversized or stalled messages take
            # the framed path and are booked as pickled bytes.
            super().send(msg)
            return
        control = {k: v for k, v in msg.items() if k not in keys}
        control[SHM_KEY] = {
            "slot": slot, "seq": seq,
            "arrays": [(k,) + meta for k, meta in zip(keys, metas)]}
        self.bytes_shm += sum(meta[3] for meta in metas)
        self.bytes_control += send_msg(self.sock, control)

    def recv(self) -> Tuple[Dict[str, Any], Optional[int]]:
        msg = recv_msg(self.sock)
        ref = msg.pop(SHM_KEY, None) if isinstance(msg, dict) else None
        if ref is None:
            return msg, None
        names = [entry[0] for entry in ref["arrays"]]
        metas = [tuple(entry[1:]) for entry in ref["arrays"]]
        views = self.rx.read(ref["slot"], ref["seq"], metas)
        for name, view in zip(names, views):
            msg[name] = view
        return msg, ref["slot"]

    def release(self, token: Optional[int]) -> None:
        if token is not None:
            self.rx.release(token)

    def close(self, unlink: bool = False) -> None:
        for ring in (self.tx, self.rx):
            if unlink:
                ring.unlink()
            ring.close()
