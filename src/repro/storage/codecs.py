"""Binary codecs for keys, predicates, and node pages.

Codecs serve two purposes.  First, they define the *size in bytes* of
every stored predicate, which determines fanout and therefore tree height
— the central trade-off of the paper (Table 3).  Second, they provide a
real serialization path so trees can be persisted and reloaded, and so
tests can verify that what we account for is what we would actually
store.

Three layers: a predicate codec fixes the row layout of one bounding
predicate and checks a stacked block of rows; the leaf and inner body
codecs pack a whole page body at once; :class:`NodeCodec` is the one
page codec.  Every page image the page files, the WAL and
``save_tree`` write comes from :meth:`NodeCodec.encode_nodes`, and
every page any of them reads back goes through
:meth:`NodeCodec.decode_node`.

All numbers are stored as little-endian ``float64`` / ``int64``
(``NUMBER_SIZE`` = 8 bytes), matching the paper's "numbers" unit.
"""

from __future__ import annotations

import struct
from typing import Any, Optional, Sequence, Tuple

import numpy as np

from repro.constants import NUMBER_SIZE
from repro.gist.node import Node
from repro.storage.errors import PageCorruptError, PageMissingError
from repro.storage.integrity import seal_images, verify_image
from repro.storage.page import PAGE_HEADER_SIZE


class Codec:
    """A fixed-size predicate row layout: ``size`` bytes, ``numbers``
    little-endian float64 columns."""

    #: encoded size in bytes (fixed for all values)
    size: int

    def block_error(self, block: np.ndarray, /) -> Optional[Tuple[int, str]]:
        """What no predicate of this family can be, in a stacked block.

        ``block`` is an ``(n, numbers)`` float64 matrix, one predicate
        per row (an inner page body without its child column).
        Returns the first offending ``(row, reason)``, or None when
        every row is well formed.
        """
        return None

    @property
    def numbers(self) -> int:
        """Size expressed in the paper's 'numbers stored' unit."""
        return self.size // NUMBER_SIZE


def _first_row(bad: np.ndarray, reason: str) -> Optional[Tuple[int, str]]:
    """``(first True row of bad, reason)``, or None when none is."""
    rows = bad.any(axis=1) if bad.ndim == 2 else bad
    return (int(rows.argmax()), reason) if rows.any() else None


def _earliest(*errors: Optional[Tuple[int, str]]
              ) -> Optional[Tuple[int, str]]:
    """The lowest-row error of several parts' ``block_error`` results."""
    found = [e for e in errors if e is not None]
    return min(found) if found else None


class RectCodec(Codec):
    """MBR predicate: ``2 * dim`` numbers (paper Table 3, MBR row)."""

    def __init__(self, dim: int) -> None:
        self.dim = dim
        self.size = 2 * dim * NUMBER_SIZE

    def block_error(self, block: np.ndarray) -> Optional[Tuple[int, str]]:
        return _first_row(
            block[:, :self.dim] > block[:, self.dim:2 * self.dim],
            "degenerate rect: lo exceeds hi")


class SphereCodec(Codec):
    """SS-tree predicate: center plus radius (``dim + 1`` numbers)."""

    def __init__(self, dim: int) -> None:
        self.dim = dim
        self.size = (dim + 1) * NUMBER_SIZE

    def block_error(self, block: np.ndarray) -> Optional[Tuple[int, str]]:
        return _first_row(block[:, self.dim] < 0, "negative radius")


class RectSphereCodec(Codec):
    """SR-tree predicate: MBR and sphere (``3 * dim + 1`` numbers)."""

    def __init__(self, dim: int) -> None:
        self.dim = dim
        self._rect = RectCodec(dim)
        self._sphere = SphereCodec(dim)
        self.size = self._rect.size + self._sphere.size

    def block_error(self, block: np.ndarray) -> Optional[Tuple[int, str]]:
        split = self._rect.numbers
        return _earliest(self._rect.block_error(block[:, :split]),
                         self._sphere.block_error(block[:, split:]))


class DualRectCodec(Codec):
    """MAP predicate: two MBRs, ``4 * dim`` numbers (Table 3, MAP row)."""

    def __init__(self, dim: int) -> None:
        self.dim = dim
        self._rect = RectCodec(dim)
        self.size = 2 * self._rect.size

    def block_error(self, block: np.ndarray) -> Optional[Tuple[int, str]]:
        split = self._rect.numbers
        return _earliest(self._rect.block_error(block[:, :split]),
                         self._rect.block_error(block[:, split:]))


class _BittenCodec(Codec):
    """An MBR followed by stored bite slots (the JB and XJB layouts).

    Subclasses say where the slots are (:meth:`bite_slots`) and write a
    block from the carve's arrays (:meth:`write`); every reader of a
    row's bites goes through :meth:`bite_rows`.
    """

    dim: int

    def bite_slots(self, block: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def bite_rows(self, block: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Every stored bite slot of a stacked block, as geometry.

        Returns ``(masks, inners, lo, hi, low_side, keep)``: the
        ``(n, slots)`` corner masks, the ``(n, slots, dim)`` inner
        points, bite bounds and low-side flags — each slot anchored at
        its row's MBR corner — and the ``(n, slots)`` mask of the
        slots that are bites (used, and of non-zero volume).
        """
        lo, hi = block[:, :self.dim], block[:, self.dim:2 * self.dim]
        masks, inners = self.bite_slots(block)
        at_hi = (masks[:, :, None] >> np.arange(self.dim) & 1).astype(bool)
        corners = np.where(at_hi, hi[:, None, :], lo[:, None, :])
        blo = np.minimum(corners, inners)
        bhi = np.maximum(corners, inners)
        keep = (masks >= 0) & ~np.any(bhi <= blo, axis=-1)
        return masks, inners, blo, bhi, ~at_hi, keep

    def write(self, lo: np.ndarray, hi: np.ndarray, keep: np.ndarray,
              inners: np.ndarray) -> np.ndarray:
        """The ``(n, numbers)`` block of the rects ``[lo, hi]`` (``(n,
        dim)`` each) with a bite at each corner ``keep`` (``(n,
        2**dim)``, in corner-mask order) flags, reaching to the matching
        inner point of ``inners`` (``(n, 2**dim, dim)``)."""
        raise NotImplementedError

    def _mbr_block(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """A zeroed block holding the rects ``[lo, hi]``."""
        block = np.zeros((len(lo), self.numbers))
        block[:, :self.dim], block[:, self.dim:2 * self.dim] = lo, hi
        return block


class JBCodec(_BittenCodec):
    """JB predicate: MBR plus one inner point per corner.

    ``(2 + 2**dim) * dim`` numbers (Table 3, JB row).  Corners are stored
    in mask order, so no corner identifiers are needed; a corner without a
    bite stores the corner point itself (a zero-volume bite).
    """

    def __init__(self, dim: int) -> None:
        self.dim = dim
        self._rect = RectCodec(dim)
        self.corners = 1 << dim
        self.size = self._rect.size + self.corners * dim * NUMBER_SIZE

    def write(self, lo: np.ndarray, hi: np.ndarray, keep: np.ndarray,
              inners: np.ndarray) -> np.ndarray:
        block = self._mbr_block(lo, hi)
        at_hi = np.arange(self.corners)[:, None] >> np.arange(self.dim) & 1
        corners = np.where(at_hi.astype(bool), hi[:, None, :], lo[:, None, :])
        block[:, 2 * self.dim:] = np.where(
            keep[:, :, None], inners, corners).reshape(len(lo), -1)
        return block

    def block_error(self, block: np.ndarray) -> Optional[Tuple[int, str]]:
        return self._rect.block_error(block)

    def bite_slots(self, block: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray]:
        """Every stored bite slot of a stacked predicate block.

        Returns ``(masks, inners)``: ``(n, slots)`` int64 corner masks
        (-1 marks an unused slot) and the ``(n, slots, dim)`` inner
        points, in stored slot order.
        """
        n = len(block)
        masks = np.broadcast_to(np.arange(self.corners), (n, self.corners))
        return masks, block[:, 2 * self.dim:].reshape(
            n, self.corners, self.dim)


class XJBCodec(_BittenCodec):
    """XJB predicate: MBR plus the top ``x`` bites.

    ``2 * dim + (dim + 1) * x`` numbers (Table 3, XJB row): each stored
    bite costs its inner point (``dim`` numbers) plus one number
    identifying the corner.  Bites fill the slots in corner-mask order;
    unused slots store a corner id of -1 and a zero inner point.
    """

    def __init__(self, dim: int, x: int) -> None:
        if x < 0 or x > (1 << dim):
            raise ValueError(f"x={x} out of range for dim={dim}")
        self.dim = dim
        self.x = x
        self._rect = RectCodec(dim)
        self.size = self._rect.size + (dim + 1) * x * NUMBER_SIZE

    def write(self, lo: np.ndarray, hi: np.ndarray, keep: np.ndarray,
              inners: np.ndarray) -> np.ndarray:
        count = int(keep.sum(axis=1).max(initial=0))
        if count > self.x:
            raise ValueError(
                f"predicate has {count} bites, codec allows {self.x}")
        block = self._mbr_block(lo, hi)
        slots = self._slots(block)
        # the kept corners first, in mask order
        masks = np.argsort(~keep, axis=1, kind="stable")[:, :self.x]
        used = np.take_along_axis(keep, masks, axis=1)
        slots[:, :, 0] = np.where(used, masks, -1)
        slots[:, :, 1:] = np.where(
            used[:, :, None],
            np.take_along_axis(inners, masks[:, :, None], axis=1), 0.0)
        return block

    def _slots(self, block: np.ndarray) -> np.ndarray:
        """The ``(n, x, 1 + dim)`` (corner id, inner point) slots."""
        return block[:, 2 * self.dim:].reshape(len(block), self.x,
                                               self.dim + 1)

    def block_error(self, block: np.ndarray) -> Optional[Tuple[int, str]]:
        return _earliest(
            self._rect.block_error(block),
            _first_row(self._slots(block)[:, :, 0] >= 1 << self.dim,
                       "bite corner id out of range"))

    def bite_slots(self, block: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray]:
        """See :meth:`JBCodec.bite_slots`; slots with a negative stored
        corner id come back as mask -1."""
        slots = self._slots(block)
        stored = slots[:, :, 0]
        masks = np.where(stored >= 0, stored, -1.0).astype(np.int64)
        return masks, slots[:, :, 1:]


class LeafBodyCodec:
    """A leaf page body: per entry a float64 key vector plus an int64
    record id, packed row after row.

    Leaf bodies are only ever encoded and decoded a page at a time
    (:meth:`encode_block` / :meth:`decode_block`): the SQ8 subclass's
    affine params are per page, so a per-entry form cannot exist.
    """

    #: identifies the leaf-page body format in the superblock (absent
    #: or ``"f64"`` means this codec — the v1 raw-float64 layout).
    codec_id = "f64"
    #: True when decode returns approximations of the encoded keys.
    lossy = False

    def __init__(self, dim: int) -> None:
        self.dim = dim
        #: per-entry bytes: ``dim`` float64 key numbers + one int64 rid.
        self.size = (dim + 1) * NUMBER_SIZE

    def body_bytes(self, count: int) -> int:
        """Encoded body size for ``count`` entries."""
        return count * self.size

    def capacity(self, page_size: int) -> int:
        """Entries that fit in one page of ``page_size`` bytes."""
        return (page_size - PAGE_HEADER_SIZE) // self.size

    def encode_block(self, keys: np.ndarray, rids: Sequence[int]) -> bytes:
        """All of a leaf's entries as one buffer, in one shot: the keys
        land via a single dtype view, not one ``tobytes`` per entry."""
        n = len(rids)
        if n == 0:
            return b""
        keys = np.ascontiguousarray(keys, dtype="<f8")
        if keys.shape != (n, self.dim):
            raise ValueError(
                f"expected ({n}, {self.dim}) keys, got {keys.shape}")
        key_bytes = self.dim * NUMBER_SIZE
        buf = np.empty((n, self.size), dtype=np.uint8)
        buf[:, :key_bytes] = keys.view(np.uint8).reshape(n, -1)
        buf[:, key_bytes:] = np.ascontiguousarray(
            rids, dtype="<i8").view(np.uint8).reshape(n, -1)
        return buf.tobytes()

    def decode_block(self, body: Any,
                     count: int) -> Tuple[np.ndarray, np.ndarray]:
        """Inverse of :meth:`encode_block`: stacked arrays, zero-copy.

        ``body`` is any buffer holding ``count`` packed entries (a bytes
        object, an mmap slice, a page-image row); the result is a
        ``(count, dim)`` float64 key matrix and a ``(count,)`` int64 rid
        vector, both *views* over ``body`` — no per-entry objects, no
        copies.
        """
        if count == 0:
            return (np.empty((0, self.dim), dtype=np.float64),
                    np.empty(0, dtype=np.int64))
        per = self.dim + 1
        keys = np.frombuffer(body, dtype="<f8",
                             count=count * per).reshape(count, per)
        rids = np.frombuffer(body, dtype="<i8",
                             count=count * per).reshape(count, per)
        return keys[:, :self.dim], rids[:, self.dim]


class QuantizedKeys:
    """A lazily dequantized block of SQ8 leaf keys.

    Wraps the raw ``(count, dim)`` uint8 code matrix together with the
    page's affine parameters.  Nothing is converted to float64 until
    :meth:`dequantize` is called — decode stays a pure view operation,
    and bound kernels choose when (and whether) to pay for the floats.
    """

    __slots__ = ("codes", "mins", "maxs", "scales")

    def __init__(self, codes: np.ndarray, mins: np.ndarray,
                 maxs: np.ndarray) -> None:
        self.codes = codes
        self.mins = mins
        self.maxs = maxs
        self.scales = (maxs - mins) / 255.0

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def shape(self) -> Tuple[int, int]:
        return (len(self.codes), self.codes.shape[1])

    def dequantize(self) -> np.ndarray:
        """Cell centers as float64, clipped into ``[mins, maxs]``.

        The clip guarantees every reconstructed key stays inside the
        page's exact key bounding box (float rounding in
        ``min + 255 * scale`` could otherwise overshoot ``max`` by an
        ulp and escape a parent MBR that was fit to the originals).
        """
        out = self.mins + self.codes * self.scales
        np.clip(out, self.mins, self.maxs, out=out)
        return out

    def half_widths(self) -> np.ndarray:
        """Per-dimension quantization-cell half widths (``scale / 2``).

        Any key encoded into this page lies within ``half_widths`` of
        its reconstruction along every axis — the tolerance treecheck
        grants a quantized leaf before it flags ``QUANT_BOUND_ESCAPE``.
        """
        return self.scales * 0.5


class QuantizedLeafCodec(LeafBodyCodec):
    """SQ8 leaf-page body: 8-bit keys + delta-packed RIDs.

    Body layout (all little-endian)::

        mins      dim * f8   per-dimension affine minimum
        maxs      dim * f8   per-dimension affine maximum
        rid_base  1 * i8     smallest RID on the page
        codes     count * dim * u8   round((key - min) / scale)
        offsets   count * u4        rid - rid_base, ascending

    where ``scale = (max - min) / 255`` per dimension.  Entries are
    stored sorted by RID so the u4 offsets are non-decreasing (strictly
    increasing when RIDs are unique — treecheck's ``RID_ORDER`` code).
    Decoding reconstructs ``min + code * scale``: within ``scale / 2``
    of the original along every axis, and (after clipping) never
    outside the page's exact key bounding box.

    Per-entry ``size`` is ``dim + 4`` bytes against the float64 codec's
    ``8 * dim + 8`` — at dim=5, 9 bytes vs 48, so pages hold ~5.3x more
    entries net of the ``(2 * dim + 1) * 8``-byte page preamble.
    """

    codec_id = "sq8"
    lossy = True

    #: RID spread representable by the u4 offsets of one page.
    RID_RANGE = 1 << 32

    def __init__(self, dim: int) -> None:  # noqa: super-init-not-called
        self.dim = dim
        #: per-entry bytes: ``dim`` u8 codes + one u4 RID offset.
        self.size = dim + 4
        #: fixed per-page overhead: mins, maxs, rid_base.
        self.preamble = (2 * dim + 1) * NUMBER_SIZE

    def body_bytes(self, count: int) -> int:
        """Encoded body size for ``count`` entries (0 for an empty leaf)."""
        return self.preamble + count * self.size if count else 0

    def capacity(self, page_size: int) -> int:
        """Entries that fit in one page of ``page_size`` bytes."""
        return (page_size - PAGE_HEADER_SIZE - self.preamble) // self.size

    def encode_block(self, keys: np.ndarray, rids: Sequence[int]) -> bytes:
        """Quantize one leaf's entries into a page body.

        Entries are reordered by ascending RID (leaf entry order is not
        a tree invariant).  Raises ``ValueError`` on non-finite keys or
        a RID spread the u4 offsets cannot represent.
        """
        n = len(rids)
        if n == 0:
            return b""
        keys = np.ascontiguousarray(keys, dtype="<f8")
        if keys.shape != (n, self.dim):
            raise ValueError(
                f"expected ({n}, {self.dim}) keys, got {keys.shape}")
        if not np.isfinite(keys).all():
            raise ValueError("SQ8 keys must be finite (got NaN or inf)")
        rid_arr = np.ascontiguousarray(rids, dtype="<i8")
        order = np.argsort(rid_arr, kind="stable")
        rid_arr = rid_arr[order]
        keys = keys[order]
        rid_base = int(rid_arr[0])
        offsets = rid_arr - rid_base
        if int(offsets[-1]) >= self.RID_RANGE:
            raise ValueError(
                f"RID spread {int(offsets[-1])} exceeds the u4 offset "
                f"range of one SQ8 page")
        mins = keys.min(axis=0)
        maxs = keys.max(axis=0)
        scales = (maxs - mins) / 255.0
        codes = np.zeros_like(keys)
        np.divide(keys - mins, scales, out=codes, where=scales > 0)
        codes = np.clip(np.rint(codes), 0, 255).astype(np.uint8)
        return (mins.astype("<f8").tobytes()
                + maxs.astype("<f8").tobytes()
                + struct.pack("<q", rid_base)
                + codes.tobytes()
                + offsets.astype("<u4").tobytes())

    def decode_block(self, body: Any,
                     count: int) -> Tuple[Any, np.ndarray]:
        """Inverse of :meth:`encode_block`, still zero-copy.

        Returns a :class:`QuantizedKeys` (codes stay a uint8 view over
        ``body``; no float64 is materialized here) and the int64 RID
        vector.  Raises :class:`PageCorruptError` on a truncated body
        or damaged affine params.
        """
        if count == 0:
            return (np.empty((0, self.dim), dtype=np.float64),
                    np.empty(0, dtype=np.int64))
        view = memoryview(body)
        if view.nbytes < self.body_bytes(count):
            raise PageCorruptError(
                f"truncated SQ8 body: {view.nbytes} bytes < "
                f"{self.body_bytes(count)} needed for {count} entries")
        mins = np.frombuffer(body, dtype="<f8", count=self.dim)
        maxs = np.frombuffer(body, dtype="<f8", count=self.dim,
                             offset=self.dim * NUMBER_SIZE)
        if (not np.isfinite(mins).all() or not np.isfinite(maxs).all()
                or bool((maxs < mins).any())):
            raise PageCorruptError("damaged SQ8 affine params")
        rid_base = struct.unpack_from("<q", body, 2 * self.dim * NUMBER_SIZE)[0]
        codes = np.frombuffer(body, dtype=np.uint8, count=count * self.dim,
                              offset=self.preamble).reshape(count, self.dim)
        offsets = np.frombuffer(body, dtype="<u4", count=count,
                                offset=self.preamble + count * self.dim)
        rids = rid_base + offsets.astype(np.int64)
        return QuantizedKeys(codes, mins, maxs), rids


#: leaf codecs by superblock ``leaf_codec`` field value.
LEAF_CODECS = {"f64": LeafBodyCodec, "sq8": QuantizedLeafCodec}


def make_leaf_codec(codec_id: str, dim: int) -> LeafBodyCodec:
    """The leaf codec registered under ``codec_id`` (see ``LEAF_CODECS``)."""
    try:
        cls = LEAF_CODECS[codec_id]
    except KeyError:
        raise ValueError(
            f"unknown leaf codec {codec_id!r}; "
            f"known: {sorted(LEAF_CODECS)}") from None
    return cls(dim)


class InnerBodyCodec:
    """An inner page body: per entry one encoded predicate plus an
    int64 child page id, packed row after row."""

    def __init__(self, pred_codec: Codec) -> None:
        self.pred_codec = pred_codec
        self.size = pred_codec.size + NUMBER_SIZE

    def encode_block(self, preds: np.ndarray, children: np.ndarray) -> bytes:
        """A whole inner page body from its ``(n, numbers)`` float64
        predicate matrix and ``(n,)`` child ids — the inverse of
        :meth:`decode_block`, bit for bit."""
        n = len(children)
        pred_bytes = self.pred_codec.size
        buf = np.empty((n, self.size), dtype=np.uint8)
        buf[:, :pred_bytes] = np.ascontiguousarray(
            preds, dtype="<f8").view(np.uint8).reshape(n, pred_bytes)
        buf[:, pred_bytes:] = np.ascontiguousarray(
            children, dtype="<i8").view(np.uint8).reshape(n, NUMBER_SIZE)
        return buf.tobytes()

    def decode_block(self, body: Any,
                     count: int) -> Tuple[np.ndarray, np.ndarray]:
        """A whole inner page body as stacked arrays, zero-copy.

        ``body`` is any buffer holding ``count`` packed entries.
        Returns the ``(count, numbers)`` float64 predicate matrix —
        columns in the predicate codec's layout — and the ``(count,)``
        int64 child ids, both *views* over ``body``: no predicate
        object is built.  Raises :class:`PageCorruptError` naming the
        page offset of the first entry that is cut short, holds a
        non-finite number, or fails the predicate codec's
        :meth:`~Codec.block_error` check.
        """
        per = self.size // NUMBER_SIZE
        held = memoryview(body).nbytes // self.size
        if held < count:
            raise PageCorruptError(
                f"undecodable entry at offset "
                f"{PAGE_HEADER_SIZE + held * self.size}: body ends "
                f"inside entry {held} of {count}")
        preds = np.frombuffer(body, dtype="<f8", count=count * per) \
            .reshape(count, per)[:, :-1]
        children = np.frombuffer(body, dtype="<i8", count=count * per) \
            .reshape(count, per)[:, -1]
        error = _first_row(~np.isfinite(preds), "non-finite number") \
            or self.pred_codec.block_error(preds)
        if error is not None:
            row, reason = error
            raise PageCorruptError(
                f"undecodable entry at offset "
                f"{PAGE_HEADER_SIZE + row * self.size}: {reason}")
        return preds, children


#: the head of every page header: page id, level, entry count.
_HEADER = struct.Struct("<qii")


class NodeCodec:
    """The one page-image codec: every page the repo writes comes from
    :meth:`encode_nodes`, every page it reads goes through
    :meth:`decode_node`.

    Every encoded image is sealed with a CRC-32 + format-epoch pair in
    the header's reserved region (see :mod:`repro.storage.integrity`)
    and every decode verifies it, raising
    :class:`~repro.storage.errors.PageCorruptError` on damage or on an
    image of another format epoch.
    """

    def __init__(self, page_size: int, leaf_codec: LeafBodyCodec,
                 index_codec: InnerBodyCodec) -> None:
        self.page_size = page_size
        self.leaf_codec = leaf_codec
        self.index_codec = index_codec

    def encode_nodes(self, nodes: Sequence[Node]) -> np.ndarray:
        """Encode nodes into an ``(n, page_size)`` uint8 image array.

        Leaf bodies go through the leaf codec's :meth:`encode_block`,
        inner bodies — the node's :meth:`~Node.pred_block` and child
        ids — through the index codec's.  All rows are sealed by one
        batched CRC pass.
        Raises ``ValueError`` when a node's entries overflow the page.
        """
        images = np.zeros((len(nodes), self.page_size), dtype=np.uint8)
        for image, node in zip(images, nodes):
            count = len(node)
            if node.level == 0:
                body = self.leaf_codec.encode_block(node.keys_array(),
                                                    node.rid_array())
            else:
                body = self.index_codec.encode_block(node.pred_block(),
                                                     node.child_array())
            end = PAGE_HEADER_SIZE + len(body)
            if end > self.page_size:
                raise ValueError(
                    f"node {node.page_id} overflows page: {end} > "
                    f"{self.page_size} bytes")
            image[:_HEADER.size] = np.frombuffer(
                _HEADER.pack(node.page_id, node.level, count),
                dtype=np.uint8)
            image[PAGE_HEADER_SIZE:end] = np.frombuffer(body, dtype=np.uint8)
        seal_images(images)
        return images

    def decode_node(self, image: Any, page_id: int, *,
                    path: Optional[str] = None) -> Node:
        """Decode the page image (any buffer) read from slot ``page_id``.

        Zero-copy: the body's ``decode_block`` arrays are views over
        ``image``, wrapped in a lazy :meth:`Node.leaf_from_arrays` or
        :meth:`Node.inner_from_block`; per-entry objects materialize
        only on demand.
        Raises :class:`PageMissingError` for a freed slot (page id -1)
        and :class:`PageCorruptError` on truncation, a failed seal, a
        slot holding another page, an impossible count or a bad body.
        """
        nbytes = memoryview(image).nbytes
        if nbytes < self.page_size:
            raise PageCorruptError(
                f"truncated page image: {nbytes} of "
                f"{self.page_size} bytes", path=path, page_id=page_id)
        verify_image(image, path=path, page_id=page_id)
        pid, level, count = _HEADER.unpack_from(image, 0)
        if pid == -1:
            raise PageMissingError("slot was freed", path=path,
                                   page_id=page_id)
        if pid != page_id:
            raise PageCorruptError(f"slot holds page {pid}",
                                   path=path, page_id=page_id)
        codec: Any = self.leaf_codec if level == 0 else self.index_codec
        body_bytes = (codec.body_bytes(count) if level == 0
                      else count * codec.size)
        if count < 0 or PAGE_HEADER_SIZE + body_bytes > nbytes:
            raise PageCorruptError(
                f"entry count {count} overflows page "
                f"(level {level}, {codec.size}-byte entries)",
                path=path, page_id=page_id)
        body = image[PAGE_HEADER_SIZE:PAGE_HEADER_SIZE + body_bytes]
        try:
            if level == 0:
                keys, rids = codec.decode_block(body, count)
                return Node.leaf_from_arrays(page_id, keys, rids)
            preds, children = codec.decode_block(body, count)
        except PageCorruptError as exc:
            raise PageCorruptError(str(exc), path=path,
                                   page_id=page_id) from None
        return Node.inner_from_block(page_id, level, preds, children)
