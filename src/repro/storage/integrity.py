"""Page integrity: CRC32C checksums sealed into every page image.

Layout
------
Every page image starts with the 32-byte header of
:mod:`repro.storage.page`:

====================  ======  ========================================
bytes                 field   meaning
====================  ======  ========================================
``[0:8)``             pid     page id (``<q``)
``[8:12)``            level   tree level (``<i``)
``[12:16)``           count   entry count (``<i``)
``[16:20)``           crc     CRC32C of the image with this field zeroed
``[20:24)``           epoch   on-disk format epoch (``<I``; 0 = unsealed)
``[24:32)``           —       reserved (zero)
====================  ======  ========================================

The checksum lives in the header's formerly-reserved region rather than
after the entry payload, deliberately: the payload budget
(``page_payload``) is untouched, so fanout — and therefore every tree
shape and I/O count the paper's experiments depend on — is identical
with and without integrity checking.

The CRC covers the *entire* page image (header, entries, and padding)
with only the 4 CRC bytes themselves zeroed, so a flip anywhere —
including in the epoch field or the zero padding — is detected.  A page
whose crc and epoch are both zero is treated as *unsealed* (legacy,
written before checksums existed) and skipped; a sealed page can never
legally present that state because ``FORMAT_EPOCH`` is nonzero.
"""

from __future__ import annotations

import struct
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.storage.errors import PageCorruptError

#: Current on-disk format epoch stamped into sealed pages.  Bump when
#: the page layout changes incompatibly; readers can then dispatch.
FORMAT_EPOCH = 1

#: Byte offset of the (crc, epoch) pair inside the page header.
CHECKSUM_OFFSET = 16

_CHECKSUM = struct.Struct("<II")

# -- CRC32C (Castagnoli) ----------------------------------------------------
#
# Reflected, polynomial 0x1EDC6F41 (reversed 0x82F63B78) — the variant
# used by iSCSI, ext4 metadata, and LevelDB/RocksDB blocks.
#
# The byte-serial recurrence ``s = T[(s ^ b) & 0xFF] ^ (s >> 8)`` is
# linear over GF(2): the register after a buffer is the xor of what
# each byte alone would leave behind, and a zero byte leaves nothing.
# So instead of walking the bytes, the kernel *gathers* every byte's
# contribution from a table indexed by (distance to the end of its
# 256-byte chunk, byte value), xor-reduces each chunk, and carries the
# chunk partials forward with a table that advances a register over 256
# zero bytes.  8,192 Python-level steps per 8 KB page become 32.

_POLY = 0x82F63B78
_CHUNK = 256
_MASK = 0xFFFFFFFF


def _make_tables() -> Tuple[np.ndarray, List[List[int]]]:
    byte = np.arange(256, dtype=np.uint32)
    for _ in range(8):
        byte = np.where(byte & 1, (byte >> 1) ^ _POLY, byte >> 1) \
            .astype(np.uint32)
    # position[j, b]: the register left by byte b followed by
    # (_CHUNK - 1 - j) zero bytes, i.e. b's share of its chunk's CRC
    # when it sits at offset j.  Row 255 is the classic byte table and
    # each row above it advances the one below over one more zero byte.
    position = np.empty((_CHUNK, 256), dtype=np.uint32)
    position[_CHUNK - 1] = byte
    for j in range(_CHUNK - 2, -1, -1):
        below = position[j + 1]
        position[j] = byte[below & 0xFF] ^ (below >> 8)
    # A register byte k is consumed exactly like a data byte at offset
    # k, so rows 0..3 also advance a register over one whole chunk.
    advance = [position[k].tolist() for k in range(4)]
    return position.reshape(-1), advance


#: (256 * 256,) uint32, 256 KB: byte contributions by chunk offset.
#: Four 256-entry lists: one register byte each, advanced by one chunk.
_POSITION, _ADVANCE = _make_tables()

#: Bytes per gather.  Longer buffers chain passes through the seed;
#: the bound keeps the offset table and the temporaries (12 bytes per
#: input byte) small however large the input.
_PASS_BYTES = 1 << 15
#: ``position`` row offsets for a run of bytes, sliced so that the
#: run's last byte lands on row 255 whatever the run's length.
_ROW_OFFSETS = (np.arange(_PASS_BYTES + _CHUNK, dtype=np.intp)
                & (_CHUNK - 1)) << 8


def _registers(rows: np.ndarray, inits: List[int],
               blank_seal: bool) -> List[int]:
    """The raw CRC register of every row of an ``(n, width)`` uint8
    array after starting from ``inits``; ``width <= _PASS_BYTES``.

    ``blank_seal`` computes over the rows as if their checksum field
    held zeros: the four gathered contributions are dropped, which is
    what a zero byte contributes.  ``rows`` is only read.
    """
    n, width = rows.shape
    pad = -width % _CHUNK
    index = rows + _ROW_OFFSETS[pad:pad + width]
    # A register is consumed by the next four bytes it meets: xor it
    # into them and the run can start from an all-zero register (whose
    # advance over the virtual left padding is free).  What a run
    # shorter than four bytes leaves unconsumed shifts out below.
    lead = min(4, width)
    index[:, :lead] ^= np.array(inits, dtype="<u4").view(np.uint8) \
        .reshape(n, 4)[:, :lead]
    shares = _POSITION.take(index)
    if blank_seal:
        shares[:, CHECKSUM_OFFSET:CHECKSUM_OFFSET + 4] = 0
    head = width % _CHUNK
    partials = np.bitwise_xor.reduce(
        shares[:, head:].reshape(n, -1, _CHUNK), axis=2)
    if head:
        partials = np.concatenate(
            (np.bitwise_xor.reduce(shares[:, :head], axis=1)[:, None],
             partials), axis=1)
    a0, a1, a2, a3 = _ADVANCE
    out = []
    for init, row in zip(inits, partials.tolist()):
        reg = 0
        for partial in row:
            reg = (a0[reg & 0xFF] ^ a1[(reg >> 8) & 0xFF]
                   ^ a2[(reg >> 16) & 0xFF] ^ a3[reg >> 24] ^ partial)
        out.append(reg ^ (init >> (8 * width)))
    return out


def crc32c_many(blocks: np.ndarray, crc: int = 0, *,
                blank_seal: bool = False) -> np.ndarray:
    """CRC32C of many equal-length byte blocks at once.

    ``blocks`` is an ``(n, size)`` uint8 array — any strides, read-only
    is fine, it is never copied whole or written; returns an ``(n,)``
    uint32 array, each element the CRC32C of one row continued from the
    seed ``crc``.  With ``blank_seal`` the page-header checksum field
    (bytes ``[16, 20)``) counts as zeros whatever it holds.
    """
    blocks = np.asarray(blocks)
    if blocks.ndim != 2 or blocks.dtype != np.uint8:
        raise ValueError("blocks must be a 2-D (n, size) uint8 array")
    n, size = blocks.shape
    if blank_seal and size < CHECKSUM_OFFSET + 8:
        raise ValueError(f"rows of {size} bytes cannot hold a seal")
    out = np.empty(n, dtype=np.uint32)
    width = min(size, _PASS_BYTES)
    step = max(1, _PASS_BYTES // max(width, 1))
    for lo in range(0, n, step):
        regs = [crc ^ _MASK] * min(step, n - lo)
        for at in range(0, size, _PASS_BYTES):
            regs = _registers(blocks[lo:lo + step, at:at + _PASS_BYTES],
                              regs, blank_seal and at == 0)
        out[lo:lo + step] = regs
    return out ^ np.uint32(_MASK)


def _as_rows(data: Any) -> np.ndarray:
    """One buffer (or uint8 array) as a ``(1, size)`` uint8 view."""
    row = data if isinstance(data, np.ndarray) \
        else np.frombuffer(data, dtype=np.uint8)
    return row.reshape(1, -1)


def crc32c(data: Any, crc: int = 0) -> int:
    """CRC32C of ``data``; chainable via the ``crc`` seed.

    ``data`` is anything exposing bytes — ``bytes``, ``bytearray``, a
    memoryview or mmap slice, a uint8 array (read-only and strided
    included): the one-row case of :func:`crc32c_many`.
    """
    return int(crc32c_many(_as_rows(data), crc)[0])


# -- sealing and verification ----------------------------------------------


def seal_images(images: np.ndarray, epoch: int = FORMAT_EPOCH) -> np.ndarray:
    """Seal an ``(n, page_size)`` array of page images in place.

    Stamps ``epoch`` into every row's header, then the CRC32C of the
    row with its checksum field counted as zeros.
    """
    images[:, CHECKSUM_OFFSET + 4:CHECKSUM_OFFSET + 8] = np.frombuffer(
        struct.pack("<I", epoch), dtype=np.uint8)
    crcs = crc32c_many(images, blank_seal=True)
    images[:, CHECKSUM_OFFSET:CHECKSUM_OFFSET + 4] = (
        crcs.astype("<u4").view(np.uint8).reshape(-1, 4))
    return images


def seal_image(image: bytes, epoch: int = FORMAT_EPOCH) -> bytes:
    """Return ``image`` with (crc, epoch) spliced into its header."""
    return seal_images(_as_rows(bytearray(image)), epoch).tobytes()


def stored_seal(image: Any) -> Tuple[int, int]:
    """The (crc, epoch) pair stored in a page image's header."""
    return _CHECKSUM.unpack_from(image, CHECKSUM_OFFSET)


def verify_images(images: np.ndarray) -> List[Optional[str]]:
    """Seal check for an ``(n, page_size)`` image array; no mutation.

    Returns one item per row: None where the stored CRC32C matches the
    image contents, else what is wrong — the message of the
    :class:`PageCorruptError` the caller raises (or quarantines) for
    that page.  Unsealed rows (crc == epoch == 0, i.e. written before
    checksums existed) pass.  The checksum field is zeroed *virtually*,
    so the input may be a read-only view straight over an mmap.
    """
    computed = crc32c_many(images, blank_seal=True).tolist()
    seals = np.ascontiguousarray(
        images[:, CHECKSUM_OFFSET:CHECKSUM_OFFSET + 8]).view("<u4").tolist()
    return [None if stored == actual or (stored == 0 and epoch == 0)
            else (f"checksum mismatch: stored {stored:#010x}, computed "
                  f"{actual:#010x} (epoch {epoch})")
            for (stored, epoch), actual in zip(seals, computed)]


def verify_image(image: Any, *, path: Optional[str] = None,
                 page_id: Optional[int] = None) -> int:
    """Check a page image's seal; returns its epoch (0 = unsealed).

    ``image`` is any buffer holding the whole page — bytes, an mmap
    slice, a row of a stacked image array — and is never copied: this
    is the one-row case of :func:`verify_images`.  Raises
    :class:`PageCorruptError` on mismatch.
    """
    rows = _as_rows(image)
    fault = verify_images(rows)[0]
    if fault is not None:
        raise PageCorruptError(fault, path=path, page_id=page_id)
    epoch = rows[0, CHECKSUM_OFFSET + 4:CHECKSUM_OFFSET + 8]
    return int.from_bytes(epoch.tobytes(), "little")
