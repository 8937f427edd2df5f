"""Structural validation for GiST trees, and on-disk index scrubbing.

These checks encode the invariants section 2.1 of the paper states for
any GiST: height balance, bounding predicates that hold for everything
beneath them, leaves partitioning the stored RIDs, and page-budget
compliance.  Tests call :func:`validate_tree` after every build and
mutation sequence.

:func:`scrub_file` is the fsck counterpart for *saved* indexes: it walks
a file written by :func:`repro.gist.persist.save_tree` page by page,
verifying the superblock and every slot's checksum, and classifies each
slot as ok / corrupt / free / orphaned without ever loading the tree.
Wired into the CLI as ``python -m repro fsck <index>``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional

import numpy as np


class TreeInvariantError(AssertionError):
    """A structural invariant was violated."""


def validate_tree(tree: Any, expected_size: Optional[int] = None,
                  check_fill: bool = True) -> Any:
    """Raise :class:`TreeInvariantError` on any broken invariant.

    The raising form of :func:`repro.analysis.treecheck.check_tree`
    (``check_fill=False`` skips the minimum-fanout bound), plus a check
    that the leaves hold ``expected_size`` entries when one is given.
    The error message lists every violation found; a clean tree returns
    its :class:`~repro.analysis.treecheck.CheckReport`, whose
    ``tree_summary`` is the amdb report.
    """
    from repro.analysis.treecheck import check_tree

    report = check_tree(tree, check_fill=check_fill)
    problems = [v.render() for v in report.violations]
    if expected_size is not None and report.keys_checked != expected_size:
        problems.append(f"expected {expected_size} items, found "
                        f"{report.keys_checked}")
    if problems:
        raise TreeInvariantError("\n".join(problems))
    return report


@dataclass
class SlotReport:
    """Verdict for one page slot of a saved index file."""

    slot: int
    #: "ok" | "corrupt" | "free" | "orphaned"
    status: str
    level: Optional[int] = None
    entries: Optional[int] = None
    detail: str = ""


@dataclass
class ScrubReport:
    """What an fsck pass over a saved index found."""

    path: str
    page_size: int = 0
    num_slots: int = 0
    superblock_ok: bool = False
    detail: str = ""
    slots: List[SlotReport] = field(default_factory=list)

    def _with_status(self, status: str) -> List[SlotReport]:
        return [s for s in self.slots if s.status == status]

    @property
    def ok_slots(self) -> List[SlotReport]:
        return self._with_status("ok")

    @property
    def corrupt_slots(self) -> List[SlotReport]:
        return self._with_status("corrupt")

    @property
    def free_slots(self) -> List[SlotReport]:
        return self._with_status("free")

    @property
    def orphaned_slots(self) -> List[SlotReport]:
        return self._with_status("orphaned")

    @property
    def clean(self) -> bool:
        """No corruption, no orphans, superblock verified."""
        return (self.superblock_ok and not self.corrupt_slots
                and not self.orphaned_slots)

    def format(self) -> str:
        lines = [f"fsck {self.path}"]
        if not self.superblock_ok:
            lines.append(f"superblock   : CORRUPT — {self.detail}")
            return "\n".join(lines)
        lines.append(f"superblock   : ok ({self.page_size}-byte pages, "
                     f"{self.num_slots} slots)")
        counts = {status: len(self._with_status(status))
                  for status in ("ok", "corrupt", "free", "orphaned")}
        lines.append("slots        : "
                     + ", ".join(f"{n} {s}" for s, n in counts.items()))
        for slot in self.corrupt_slots:
            lines.append(f"  slot {slot.slot}: CORRUPT — {slot.detail}")
        for slot in self.orphaned_slots:
            lines.append(f"  slot {slot.slot}: orphaned — {slot.detail}")
        lines.append(f"verdict      : {'clean' if self.clean else 'DAMAGED'}")
        return "\n".join(lines)


def scrub_file(path: str) -> ScrubReport:
    """fsck a saved index: classify every page slot of the file.

    Never raises on damage — damage is the *output*.  A slot is:

    - ``ok``: sealed image decodes, its stamped page id matches its
      slot, and it is reachable from the root;
    - ``corrupt``: checksum mismatch, undecodable image, stamped id
      disagreeing with the slot, or a truncated trailing slot;
    - ``free``: stamped page id -1 (a freed slot);
    - ``orphaned``: decodes fine but lies outside the superblock's
      node count or is unreachable from the root.
    """
    from repro.gist.persist import header_extension, read_superblock
    from repro.storage.codecs import (InnerBodyCodec, NodeCodec,
                                      make_leaf_codec)
    from repro.storage.errors import PageMissingError, StorageError

    report = ScrubReport(path=path)
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as exc:
        report.detail = f"unreadable: {exc}"
        return report

    try:
        header = read_superblock(raw, path)
    except StorageError as exc:
        report.detail = str(exc)
        return report
    try:
        extension = header_extension(header)
    except Exception as exc:
        # fsck's contract is "never raise on damage": a hostile
        # ext_config may fail inside any extension constructor, and all
        # of it must become a report, not a crash.
        report.detail = f"cannot rebuild extension: {exc}"
        return report

    page_size = header["page_size"]
    claimed_slots = header["num_slots"]
    codec = NodeCodec(page_size,
                      make_leaf_codec(header["leaf_codec"], extension.dim),
                      InnerBodyCodec(extension.pred_codec()))
    report.superblock_ok = True
    report.page_size = page_size
    num_slots, leftover = divmod(len(raw) - page_size, page_size)
    report.num_slots = num_slots

    # First pass: decode every slot.
    images = np.frombuffer(raw, dtype=np.uint8, count=num_slots * page_size,
                           offset=page_size).reshape(num_slots, page_size)
    decoded = {}
    for slot, image in enumerate(images, start=1):
        if not image.any():
            # Never-written gap (an aborted allocation's slot): not a
            # node, not damage.
            report.slots.append(SlotReport(slot, "free",
                                           detail="never written"))
            continue
        try:
            decoded[slot] = codec.decode_node(image, slot, path=path)
        except PageMissingError:
            report.slots.append(SlotReport(slot, "free"))
        except StorageError as exc:
            report.slots.append(SlotReport(slot, "corrupt",
                                           detail=str(exc)))
    if leftover:
        report.slots.append(SlotReport(
            num_slots + 1, "corrupt",
            detail=f"truncated trailing slot ({leftover} bytes)"))

    # Second pass: reachability from the root through decodable pages.
    reachable = set()
    stack = [header["root_slot"]] if header["root_slot"] else []
    while stack:
        slot = stack.pop()
        if slot in reachable or slot not in decoded:
            continue
        reachable.add(slot)
        if not decoded[slot].is_leaf:
            stack.extend(decoded[slot].children())

    for slot in sorted(decoded):
        node = decoded[slot]
        if slot > claimed_slots:
            status, detail = "orphaned", "slot beyond superblock slot count"
        elif slot not in reachable:
            status, detail = "orphaned", "unreachable from root"
        else:
            status, detail = "ok", ""
        report.slots.append(SlotReport(slot, status, level=node.level,
                                       entries=len(node), detail=detail))
    report.slots.sort(key=lambda s: s.slot)
    return report
