"""Length-prefixed socket framing for the shard serving daemon.

One frame is an 8-byte header — a 2-byte magic, a protocol version, a
reserved flags byte, and a big-endian payload length — followed by a
pickled payload.  Requests and responses are plain dicts whose numeric
bulk travels as numpy arrays (pickle serializes them as raw buffers, so
a 2000-query partial costs two array copies, not two million tuple
allocations).

The framing is deliberately dumb: the coordinator and its workers live
on the same host, speak over ``socketpair`` descriptors inherited
across ``fork``, and trust each other.  What the framing must survive
is *death*, not malice — a worker killed mid-frame leaves a torn
stream, and every read path here converts that into
:class:`ConnectionClosed` so the coordinator can flip the shard into
degraded mode instead of unpickling garbage.

:class:`FramedChannel` is the one transport: a socket speaking these
frames, with byte counters the serving profile reports.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, Dict

import numpy as np

#: frame header: magic, version, flags, payload length.
MAGIC = b"RS"
VERSION = 1
_HEADER = struct.Struct(">2sBBI")

#: hard cap on one frame's payload; a length beyond this is a torn or
#: foreign stream, not a plausible request.
MAX_PAYLOAD = 1 << 30


class ProtocolError(RuntimeError):
    """The byte stream is not speaking this protocol."""


class ConnectionClosed(ProtocolError):
    """The peer vanished mid-conversation (EOF or torn frame)."""


def send_msg(sock: Any, obj: Any) -> int:
    """Write one framed message to a socket-like object; returns the
    bytes put on the wire (header included) so transport channels can
    account for them."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_PAYLOAD:
        raise ProtocolError(
            f"payload of {len(payload)} bytes exceeds the "
            f"{MAX_PAYLOAD}-byte frame cap")
    header = _HEADER.pack(MAGIC, VERSION, 0, len(payload))
    sock.sendall(header + payload)
    return _HEADER.size + len(payload)


def recv_msg(sock: Any) -> Any:
    """Read one framed message; raises :class:`ConnectionClosed` on
    EOF and :class:`ProtocolError` on a malformed header."""
    magic, version, _flags, length = _HEADER.unpack(
        _recv_exact(sock, _HEADER.size))
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if version != VERSION:
        raise ProtocolError(f"unsupported protocol version {version}")
    if length > MAX_PAYLOAD:
        raise ProtocolError(f"frame length {length} exceeds cap")
    return pickle.loads(_recv_exact(sock, length))


def _recv_exact(sock: Any, n: int) -> bytes:
    """Exactly ``n`` bytes from the socket, or :class:`ConnectionClosed`."""
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionClosed(
                f"peer closed after {len(buf)} of {n} bytes")
        buf.extend(chunk)
    return bytes(buf)


class FramedChannel:
    """One coordinator<->worker socket: whole-dict frames, counted.

    ``pickled`` books the array payload bytes (pickle serializes them as
    raw buffers), ``control`` everything else on the wire.
    """

    def __init__(self, sock: Any) -> None:
        self.sock = sock
        self.bytes_pickled = 0
        self.bytes_control = 0

    def send(self, msg: Dict[str, Any]) -> None:
        array_bytes = sum(v.nbytes for v in msg.values()
                          if isinstance(v, np.ndarray))
        wire = send_msg(self.sock, msg)
        self.bytes_pickled += array_bytes
        self.bytes_control += max(wire - array_bytes, 0)

    def recv(self) -> Dict[str, Any]:
        msg: Dict[str, Any] = recv_msg(self.sock)
        return msg

    def counters(self) -> Dict[str, int]:
        return {"pickled": self.bytes_pickled,
                "control": self.bytes_control}
