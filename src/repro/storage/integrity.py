"""Page integrity: CRC-32 checksums sealed into every page image.

Every page image starts with the 32-byte header of
:mod:`repro.storage.page`:

====================  ======  ========================================
bytes                 field   meaning
====================  ======  ========================================
``[0:8)``             pid     page id (``<q``)
``[8:12)``            level   tree level (``<i``)
``[12:16)``           count   entry count (``<i``)
``[16:20)``           crc     CRC-32 of the image with this field zeroed
``[20:24)``           epoch   on-disk format epoch (``<I``)
``[24:32)``           —       reserved (zero)
====================  ======  ========================================

The seal sits in the header, not after the payload, so fanout (and
every tree shape and I/O count) is what it would be without it.  The
CRC covers the whole image with only its own 4 bytes counted as zeros,
so a flip anywhere is detected.  A page whose epoch is not
:data:`FORMAT_EPOCH` is refused before its CRC is computed: files of an
older format are rebuilt, never read.  :func:`crc32` is the one
checksum of the repo: page seals, the superblock trailer
(:mod:`repro.gist.persist`) and WAL records (:mod:`repro.storage.wal`)
all use it.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, Optional

import numpy as np

from repro.storage.errors import PageCorruptError

#: The format epoch stamped into every seal; any other epoch is refused.
FORMAT_EPOCH = 2

#: Byte offset of the (crc, epoch) pair inside the page header.
CHECKSUM_OFFSET = 16

_CHECKSUM = struct.Struct("<II")
_BLANK = bytes(4)


def _byte_view(data: Any) -> memoryview:
    """``data`` as a flat byte view; only a strided buffer is copied."""
    view = memoryview(data)
    return view.cast("B") if view.c_contiguous else memoryview(view.tobytes())


def crc32(data: Any, crc: int = 0) -> int:
    """CRC-32 (zlib's, IEEE 802.3) of any buffer, chained from ``crc``."""
    return zlib.crc32(_byte_view(data), crc)


def page_crc(image: Any) -> int:
    """CRC-32 of a page image with its checksum field counted as zeros.

    Chains over memoryview slices around the field, so nothing is
    copied and a read-only view straight over an mmap works.
    """
    view = _byte_view(image)
    crc = zlib.crc32(_BLANK, zlib.crc32(view[:CHECKSUM_OFFSET]))
    return zlib.crc32(view[CHECKSUM_OFFSET + 4:], crc)


def seal_images(images: np.ndarray) -> np.ndarray:
    """Seal an ``(n, page_size)`` array of page images in place: stamp
    :data:`FORMAT_EPOCH` into every row's header, then its CRC."""
    images[:, CHECKSUM_OFFSET + 4:CHECKSUM_OFFSET + 8] = np.frombuffer(
        struct.pack("<I", FORMAT_EPOCH), dtype=np.uint8)
    crcs = np.array([page_crc(row) for row in images], dtype="<u4")
    images[:, CHECKSUM_OFFSET:CHECKSUM_OFFSET + 4] = \
        crcs.view(np.uint8).reshape(-1, 4)
    return images


def seal_image(image: bytes) -> bytes:
    """Return ``image`` with (crc, epoch) spliced into its header."""
    rows = np.frombuffer(bytearray(image), dtype=np.uint8).reshape(1, -1)
    return seal_images(rows).tobytes()


def verify_image(image: Any, *, path: Optional[str] = None,
                 page_id: Optional[int] = None) -> None:
    """Check one page image's seal (any buffer, never copied unless
    strided); raises :class:`PageCorruptError` naming ``path`` and
    ``page_id`` if it fails."""
    view = _byte_view(image)
    stored, epoch = _CHECKSUM.unpack_from(view, CHECKSUM_OFFSET)
    if epoch != FORMAT_EPOCH:
        raise PageCorruptError(f"format epoch {epoch}: rebuild the index",
                               path=path, page_id=page_id)
    actual = page_crc(view)
    if actual != stored:
        raise PageCorruptError(
            f"checksum mismatch: stored {stored:#010x}, computed "
            f"{actual:#010x}", path=path, page_id=page_id)
