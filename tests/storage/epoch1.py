"""Files in format epoch 1, forged to prove that they are refused.

Epoch 1 sealed every page, superblock and WAL record with CRC32C
(Castagnoli) instead of CRC-32, and wrote WAL version 1; every other
byte is what epoch 2 writes.  The functions here reseal files the
current code wrote exactly as an epoch-1 writer sealed them, so tests
can hand real epoch-1 files to every reader.  The byte-at-a-time table
loop below is the textbook CRC32C; forging these fixtures is its only
job.
"""

import json
import struct

_POLY = 0x82F63B78


def _make_table():
    table = []
    for crc in range(256):
        for _ in range(8):
            crc = (crc >> 1) ^ _POLY if crc & 1 else crc >> 1
        table.append(crc)
    return tuple(table)


_TABLE = _make_table()

#: a WAL record header: magic, lsn, txn, type, page id, payload length,
#: crc (over the header with crc zeroed, then the payload).
_RECORD = struct.Struct("<IQQIqII")
_WAL_HEADER = 16
_REC_PAGE = 1


def reference_crc32c(data, crc=0):
    """CRC32C (Castagnoli, reflected) one byte at a time."""
    crc ^= 0xFFFFFFFF
    for byte in bytes(data):
        crc = _TABLE[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


def epoch1_page(image):
    """A page image sealed as epoch 1: epoch 1 stamped at [20, 24), then
    the CRC32C of the image with [16, 20) zeroed stored there."""
    image = bytes(image)
    stamped = image[:16] + struct.pack("<II", 0, 1) + image[24:]
    return (stamped[:16] + struct.pack("<I", reference_crc32c(stamped))
            + stamped[20:])


def epoch1_superblock(page0):
    """A superblock page sealed as epoch 1: the CRC32C of all but its
    last 8 bytes, then epoch 1, in those 8 bytes."""
    body = bytes(page0)[:-8]
    return body + struct.pack("<II", reference_crc32c(body), 1)


def forge_index(path):
    """Reseal a saved index in place as epoch 1; never-written (all
    zero) slots stay zero, as an epoch-1 writer left them."""
    with open(path, "rb") as f:
        raw = f.read()
    (hlen,) = struct.unpack_from("<I", raw, 0)
    page_size = json.loads(raw[4:4 + hlen])["page_size"]
    parts = [epoch1_superblock(raw[:page_size])]
    for start in range(page_size, len(raw), page_size):
        image = raw[start:start + page_size]
        parts.append(epoch1_page(image) if any(image) else image)
    with open(path, "wb") as f:
        f.write(b"".join(parts))


def forge_wal(path):
    """Rewrite a write-ahead log in place as WAL version 1: version 1
    in the file header, page and superblock payloads sealed as epoch 1,
    every record's crc the CRC32C of its zeroed header and payload."""
    with open(path, "rb") as f:
        raw = f.read()
    (page_size,) = struct.unpack_from("<I", raw, _WAL_HEADER + 4)
    parts = [raw[:_WAL_HEADER], struct.pack("<II", 1, page_size)]
    offset = _WAL_HEADER + 8
    while offset < len(raw):
        fields = _RECORD.unpack_from(raw, offset)[:6]
        start = offset + _RECORD.size
        payload = raw[start:start + fields[5]]
        if fields[3] == _REC_PAGE:
            payload = epoch1_page(payload)
        elif payload:
            payload = epoch1_superblock(payload)
        crc = reference_crc32c(_RECORD.pack(*fields, 0) + payload)
        parts.append(_RECORD.pack(*fields, crc) + payload)
        offset = start + fields[5]
    with open(path, "wb") as f:
        f.write(b"".join(parts))
