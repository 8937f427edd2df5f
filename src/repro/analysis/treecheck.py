"""treecheck: a structural verifier for built and saved indexes.

PR 1's ``fsck`` (:func:`repro.gist.validate.scrub_file`) verifies the
*page* format: superblock seal, per-slot CRCs, slot/page-id agreement.
This module extends verification to *index semantics* — the invariants
that make search over a tree exact:

- **BP containment** — every leaf key lies inside the bounding
  predicate its parent stores for the leaf, and every child predicate
  is covered by its parent's predicate (``BP_KEY_ESCAPE`` /
  ``BP_CHILD_ESCAPE``);
- **bite discipline** — every JB/XJB corner bite lies inside its
  predicate's MBR and removes no data point stored beneath the bitten
  node (``BITE_OUTSIDE_MBR`` / ``BITE_NONEMPTY``); a data point inside
  a bite is exactly the "sloppy predicate" that silently drops true
  nearest neighbors;
- **page census** — every stored page is reachable from the root
  exactly once (``PAGE_ORPHAN`` / ``PAGE_DUPLICATE`` /
  ``PAGE_MISSING``), and the tree's size matches the stored RIDs
  (``SIZE_MISMATCH`` / ``RID_DUPLICATE``);
- **quantized pages** — on SQ8 leaves (see
  :class:`repro.storage.codecs.QuantizedLeafCodec`) a reconstructed
  key may legally sit outside its parent predicate by up to the
  quantization-cell half diagonal; beyond that tolerance — or outside
  the page's own declared cell bounds — it is ``QUANT_BOUND_ESCAPE``,
  and the delta-packed RIDs must come back strictly increasing
  (``RID_ORDER``).  The bite checks shrink by the per-key cell half widths
  so only *certain* violations are flagged;
- **shape bounds** — per-level fanout within the AM family's page
  budget (``NODE_OVERFULL`` / ``NODE_UNDERFULL``), consistent levels
  (``LEVEL_MISMATCH``), and uniform leaf depth (``TREE_UNBALANCED``).

Violations are *reported*, never raised — damage is the output, as with
``scrub_file`` — through a :class:`CheckReport` that also carries the
amdb structural summary (:func:`repro.amdb.tree_report.tree_report`) so
per-node failures sit alongside the utilization metrics amdb already
computes.  ``repro fsck --deep`` wires :func:`deep_scrub` into the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.geometry.bites import in_bites

#: violation codes, stable identifiers the tests and CI assert on.
BP_KEY_ESCAPE = "BP_KEY_ESCAPE"
BP_CHILD_ESCAPE = "BP_CHILD_ESCAPE"
BITE_OUTSIDE_MBR = "BITE_OUTSIDE_MBR"
BITE_NONEMPTY = "BITE_NONEMPTY"
PAGE_ORPHAN = "PAGE_ORPHAN"
PAGE_MISSING = "PAGE_MISSING"
PAGE_DUPLICATE = "PAGE_DUPLICATE"
NODE_OVERFULL = "NODE_OVERFULL"
NODE_UNDERFULL = "NODE_UNDERFULL"
NODE_EMPTY = "NODE_EMPTY"
LEVEL_MISMATCH = "LEVEL_MISMATCH"
TREE_UNBALANCED = "TREE_UNBALANCED"
SIZE_MISMATCH = "SIZE_MISMATCH"
RID_DUPLICATE = "RID_DUPLICATE"
QUANT_BOUND_ESCAPE = "QUANT_BOUND_ESCAPE"
RID_ORDER = "RID_ORDER"

ALL_CODES = (
    BP_KEY_ESCAPE, BP_CHILD_ESCAPE, BITE_OUTSIDE_MBR, BITE_NONEMPTY,
    PAGE_ORPHAN, PAGE_MISSING, PAGE_DUPLICATE, NODE_OVERFULL,
    NODE_UNDERFULL, NODE_EMPTY, LEVEL_MISMATCH, TREE_UNBALANCED,
    SIZE_MISMATCH, RID_DUPLICATE, QUANT_BOUND_ESCAPE, RID_ORDER,
)


@dataclass(frozen=True)
class Violation:
    """One broken invariant at one node (or tree-wide, page_id None)."""

    code: str
    page_id: Optional[int]
    detail: str

    def render(self) -> str:
        where = f"page {self.page_id}" if self.page_id is not None \
            else "tree"
        return f"[{self.code}] {where}: {self.detail}"

    def to_dict(self) -> Dict[str, Any]:
        return {"code": self.code, "page_id": self.page_id,
                "detail": self.detail}


@dataclass
class CheckReport:
    """What one semantic verification pass over a tree found."""

    method: str
    path: Optional[str] = None
    nodes_checked: int = 0
    keys_checked: int = 0
    bites_checked: int = 0
    violations: List[Violation] = field(default_factory=list)
    #: amdb structural summary (None when the tree is too damaged).
    tree_summary: Optional[Any] = None

    @property
    def clean(self) -> bool:
        return not self.violations

    def codes(self) -> Set[str]:
        return {v.code for v in self.violations}

    def add(self, code: str, page_id: Optional[int], detail: str) -> None:
        self.violations.append(Violation(code, page_id, detail))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tool": "treecheck",
            "method": self.method,
            "path": self.path,
            "nodes_checked": self.nodes_checked,
            "keys_checked": self.keys_checked,
            "bites_checked": self.bites_checked,
            "clean": self.clean,
            "violations": [v.to_dict() for v in self.violations],
        }

    def format(self) -> str:
        target = self.path or f"<in-memory {self.method} tree>"
        lines = [f"treecheck {target}",
                 f"method       : {self.method}",
                 f"checked      : {self.nodes_checked} nodes, "
                 f"{self.keys_checked} keys, "
                 f"{self.bites_checked} bites"]
        summary = self.tree_summary
        if summary is not None and getattr(summary, "levels", None):
            util = [f"L{lvl.level} {lvl.mean_utilization:.2f}"
                    for lvl in summary.levels]
            lines.append("utilization  : " + ", ".join(util)
                         + "  (amdb per-level mean)")
        if self.violations:
            lines.append(f"violations   : {len(self.violations)}")
            lines.extend("  " + v.render() for v in self.violations)
        else:
            lines.append("violations   : none")
        lines.append(f"verdict      : "
                     f"{'clean' if self.clean else 'BROKEN'}")
        return "\n".join(lines)


def _row_dist(ext: Any, one: Any, key: np.ndarray) -> float:
    """The extension's tightest lower bound from ``key`` to the one
    predicate of node ``one``: its node bound, refined where the
    family refines."""
    bound = float(ext.min_dists_node(one, key)[0])
    return ext.refine_dist(one.pred_block()[0], key, bound)


def check_tree(tree: Any, path: Optional[str] = None,
               check_fill: bool = True) -> CheckReport:
    """Verify every semantic invariant of a built tree.

    Never raises on a broken tree — violations are the output.  With
    ``check_fill=False`` the minimum-fanout bound is skipped (useful for
    trees mid-mutation).
    """
    from repro.gist.extension import row_node
    from repro.storage.errors import StorageError

    report = CheckReport(method=tree.ext.name, path=path)
    store_pages = set(tree.store.page_ids())

    if tree.root_id is None:
        if tree.height != 0 or tree.size != 0:
            report.add(SIZE_MISMATCH, None,
                       f"empty tree records height {tree.height}, "
                       f"size {tree.size}")
        for page_id in sorted(store_pages):
            report.add(PAGE_ORPHAN, page_id,
                       "page stored but the tree is empty")
        return report

    ext = tree.ext
    reachable: Set[int] = set()
    rids: List[int] = []
    leaf_depths: Set[int] = set()

    def peek(page_id: int) -> Optional[Any]:
        try:
            return tree._peek(page_id)
        except StorageError as exc:
            report.add(PAGE_MISSING, page_id, str(exc))
            return None

    # JB/XJB rows are audited bite by bite, as the codec reads them
    codec = ext.pred_codec()
    bitten = hasattr(codec, "bite_rows")

    def check_bites(row: np.ndarray, child_keys: np.ndarray,
                    child_halfs: Optional[np.ndarray],
                    child_id: int) -> None:
        masks, _, blos, bhis, lows, keep = (
            part[0] for part in codec.bite_rows(row[None]))
        lo, hi = row[:ext.dim], row[ext.dim:2 * ext.dim]
        # Bites are carved with float arithmetic relative to the MBR
        # corners; containment is checked to a relative tolerance so an
        # ulp of carving noise is not reported as damage.
        tol = 1e-9 * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
        for mask, blo, bhi, low in zip(masks[keep].tolist(), blos[keep],
                                       bhis[keep], lows[keep]):
            report.bites_checked += 1
            if np.any(blo < lo - tol) or np.any(bhi > hi + tol):
                report.add(
                    BITE_OUTSIDE_MBR, child_id,
                    f"bite at corner 0b{mask:b} "
                    f"[{blo.tolist()}, {bhi.tolist()}] "
                    f"escapes the predicate MBR")
            if len(child_keys):
                removed = in_bites(child_keys, blo, bhi, low)
                if bool(removed.any()) and child_halfs is not None:
                    # Quantized keys are reconstructions: one may drift
                    # into a bite by up to its cell half width without
                    # the original having been inside.  Flag only when
                    # the whole cell box sits inside the bite — a
                    # violation no quantization error can explain.
                    sure = (np.all(child_keys - child_halfs > blo, axis=1)
                            & np.all(child_keys + child_halfs < bhi,
                                     axis=1))
                    removed = removed & sure
                if bool(removed.any()):
                    culprit = child_keys[int(np.argmax(removed))]
                    report.add(
                        BITE_NONEMPTY, child_id,
                        f"bite at corner 0b{mask:b} "
                        f"contains stored point "
                        f"{culprit.tolist()}; the predicate excludes "
                        f"covered data")

    def check_quantized_leaf(node: Any) -> None:
        """SQ8 integrity: RID order and cell-bound discipline."""
        block = node.quantized_block()
        if block is None or not len(node):
            return
        rid_arr = node.rid_array()
        if len(rid_arr) > 1 \
                and not bool((np.diff(rid_arr) > 0).all()):
            report.add(RID_ORDER, node.page_id,
                       "delta-packed RIDs are not strictly increasing")
        keys = node.keys_array()
        if bool((keys < block.mins).any()) \
                or bool((keys > block.maxs).any()):
            report.add(QUANT_BOUND_ESCAPE, node.page_id,
                       "reconstructed key outside the page's declared "
                       "quantization cell bounds")

    def walk(page_id: int, depth: int, expected_level: Optional[int]
             ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """DFS one subtree; returns the stacked keys stored beneath and
        their per-key quantization half widths (None when the whole
        subtree is exact)."""
        empty = (np.empty((0, ext.dim), dtype=np.float64), None)
        if page_id in reachable:
            report.add(PAGE_DUPLICATE, page_id,
                       "page referenced from more than one parent")
            return empty
        node = peek(page_id)
        if node is None:
            return empty
        reachable.add(page_id)
        report.nodes_checked += 1

        if expected_level is not None and node.level != expected_level:
            report.add(LEVEL_MISMATCH, page_id,
                       f"node at level {node.level}, expected "
                       f"{expected_level}")
        capacity = tree.capacity(node.level)
        if len(node) > capacity:
            report.add(NODE_OVERFULL, page_id,
                       f"{len(node)} entries exceed the page budget "
                       f"of {capacity}")
        is_root = page_id == tree.root_id
        if check_fill and not is_root \
                and len(node) < tree.min_entries(node.level):
            report.add(NODE_UNDERFULL, page_id,
                       f"{len(node)} entries under the minimum fanout "
                       f"of {tree.min_entries(node.level)}")

        if node.is_leaf:
            leaf_depths.add(depth)
            rids.extend(node.rids())
            report.keys_checked += len(node)
            check_quantized_leaf(node)
            if not len(node):
                return empty
            keys = node.keys_array()
            half = node.key_halfwidths()
            halfs = (np.broadcast_to(half, keys.shape)
                     if half is not None else None)
            return keys, halfs

        if not len(node):
            report.add(NODE_EMPTY, page_id, "inner node with no entries")
            return empty

        parts: List[np.ndarray] = []
        half_parts: List[Optional[np.ndarray]] = []
        for row, child_id in zip(node.pred_block(), node.children()):
            child_keys, child_halfs = walk(child_id, depth + 1,
                                           node.level - 1)
            parts.append(child_keys)
            half_parts.append(child_halfs)
            child = peek(child_id)
            if child is None:
                continue
            if child.is_leaf:
                half = child.key_halfwidths()
                qtol = (float(np.sqrt((half * half).sum())) + 1e-9
                        if half is not None else 0.0)
                one = row_node(row)
                for key, rid in zip(child.keys_array(), child.rids()):
                    if not ext.contains_node(one, key)[0]:
                        if half is not None:
                            if _row_dist(ext, one, key) <= qtol:
                                continue
                            report.add(
                                QUANT_BOUND_ESCAPE, child_id,
                                f"reconstructed key "
                                f"{np.asarray(key).tolist()} "
                                f"(rid {rid}) escapes the "
                                f"bounding predicate its parent "
                                f"{page_id} holds by more than the "
                                f"quantization tolerance {qtol:.3g}")
                            continue
                        report.add(
                            BP_KEY_ESCAPE, child_id,
                            f"stored key "
                            f"{np.asarray(key).tolist()} "
                            f"(rid {rid}) escapes the "
                            f"bounding predicate its parent "
                            f"{page_id} holds")
            else:
                for child_row, grandchild in zip(child.pred_block(),
                                                 child.children()):
                    if not ext.covers(row, child_row):
                        report.add(
                            BP_CHILD_ESCAPE, child_id,
                            f"child predicate (for page "
                            f"{grandchild}) is not covered by "
                            f"the predicate parent {page_id} holds")
            if bitten:
                check_bites(row, child_keys, child_halfs, child_id)
        if not parts:
            return empty
        all_keys = np.concatenate(parts)
        if any(h is not None for h in half_parts):
            all_halfs: Optional[np.ndarray] = np.concatenate(
                [h if h is not None else np.zeros_like(k)
                 for k, h in zip(parts, half_parts)])
        else:
            all_halfs = None
        return all_keys, all_halfs

    root = peek(tree.root_id)
    if root is not None:
        if root.level != tree.height - 1:
            report.add(LEVEL_MISMATCH, tree.root_id,
                       f"root level {root.level} inconsistent with "
                       f"height {tree.height}")
        walk(tree.root_id, 0, root.level)

    if len(leaf_depths) > 1:
        report.add(TREE_UNBALANCED, None,
                   f"leaves at depths {sorted(leaf_depths)}")
    if len(rids) != len(set(rids)):
        dupes = len(rids) - len(set(rids))
        report.add(RID_DUPLICATE, None,
                   f"{dupes} RID(s) stored in more than one leaf")
    if len(rids) != tree.size:
        report.add(SIZE_MISMATCH, None,
                   f"tree.size {tree.size} != stored entries "
                   f"{len(rids)}")
    for page_id in sorted(store_pages - reachable):
        report.add(PAGE_ORPHAN, page_id, "page unreachable from the root")

    from repro.amdb.tree_report import tree_report
    from repro.storage.errors import StorageError
    try:
        report.tree_summary = tree_report(tree)
    except StorageError:
        # A damaged page may defeat the amdb summary; the violations
        # above are the verdict, the summary is garnish.
        report.tree_summary = None
    return report


@dataclass
class DeepReport:
    """``repro fsck --deep``: page-level scrub plus semantic check."""

    scrub: Any
    check: Optional[CheckReport] = None
    skipped: str = ""

    @property
    def clean(self) -> bool:
        return bool(self.scrub.clean and self.check is not None
                    and self.check.clean)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tool": "fsck-deep",
            "path": self.scrub.path,
            "scrub_clean": self.scrub.clean,
            "deep": self.check.to_dict() if self.check is not None
            else None,
            "skipped": self.skipped,
            "clean": self.clean,
        }

    def format(self) -> str:
        lines = [self.scrub.format()]
        if self.check is not None:
            lines.append("")
            lines.append(self.check.format())
        elif self.skipped:
            lines.append(f"deep check   : skipped — {self.skipped}")
        lines.append(f"deep verdict : {'clean' if self.clean else 'BROKEN'}")
        return "\n".join(lines)


def deep_scrub(path: str) -> DeepReport:
    """Scrub a saved index page-by-page, then verify index semantics.

    The semantic phase needs decodable pages, so it runs whenever the
    superblock verifies and no slot is corrupt.  Orphaned slots and a
    root, height or size that contradicts the pages do not block it:
    the pages load through :func:`~repro.gist.persist.load_pages`,
    without :func:`~repro.gist.persist.load_tree`'s census, so the deep
    check can localize them by page id.  Never raises on damage.
    """
    from repro.gist.persist import load_pages
    from repro.gist.validate import scrub_file
    from repro.storage.errors import StorageError

    scrub = scrub_file(path)
    report = DeepReport(scrub=scrub)
    if not scrub.superblock_ok:
        report.skipped = "superblock damaged"
        return report
    if scrub.corrupt_slots:
        report.skipped = (f"{len(scrub.corrupt_slots)} corrupt slot(s); "
                          f"page-level damage defeats semantic checks")
        return report
    try:
        tree = load_pages(path)
    except (StorageError, ValueError) as exc:
        report.skipped = f"tree does not load: {exc}"
        return report
    report.check = check_tree(tree, path=path)
    return report
