"""The MAP / aMAP access method (paper section 5.1).

A MAP (Minimum Area Predicate) bounds a node with *two* hyper-rectangles
chosen to minimize the total enclosed volume, counting overlap once.
The idealized MAP examines every bipartition of the bounded items; aMAP
(approximate MAP) samples 1024 random bipartitions and keeps the best —
the construction actually used in the paper's experiments.

Unlike R-tree node-split heuristics, overlap between the two rectangles
is acceptable (they belong to the *same* predicate), so the objective is
total covered volume, not overlap minimization.
"""

from __future__ import annotations

from typing import Any, Sequence, Tuple

import numpy as np

from repro.constants import AMAP_SAMPLES
from repro.ams.rtree import RTreeExtension, holds_box
from repro.geometry.rect import min_dists_to_rects, rects_contain_point
from repro.gist.extension import Tokens
from repro.gist.node import Node
from repro.storage.codecs import DualRectCodec


#: How far into each sort order :func:`_side_bounds` looks before a
#: full-width scan.  A random bipartition has no item of a given side
#: among the first r of an order with probability 2**-r (at 24: once or
#: twice per 221,231-blob build); the rows that do miss are the axis
#: sweeps, which select their items *in* sort order.  12 to 24 time
#: alike, 48 costs 15 % more.  At most 255: a rank is a uint8.
_HEAD = 24


def _side_bounds(masks: np.ndarray, los: np.ndarray, his: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(lo1, hi1, lo2, hi2)``: per candidate row of ``masks``, the MBR
    of the items it selects and of the items it leaves out.

    Every candidate scored at once, as order statistics rather than
    float reductions: a side's bound in dimension d is the *first* of
    its items in d-sorted order.  With the masks transposed once to
    item-major bytes, the first ``_HEAD`` items of all ``2 * dim`` sort
    orders are one row gather; tagging each byte with its rank (255
    where the item is on the other side) makes "first item of the side"
    a ``uint8`` minimum over the head.  A row whose side has no item in
    the head reduces to 255 and is scanned at full width — a fallback,
    not a wider head, because those rows are the few axis sweeps and
    every row would pay for the width.  Picks elements, never computes,
    so the result is bit-identical to a masked min/max reduction (the
    oracle in ``tests/core/test_amap.py``).
    """
    C, n = masks.shape
    dim = los.shape[1]
    head = min(_HEAD, n, 255)
    asc = np.argsort(los, axis=0, kind="stable")
    desc = np.argsort(-his, axis=0, kind="stable")
    orders = np.concatenate((asc.T, desc.T))            # (2 * dim, n)
    vals = np.concatenate((los[asc, np.arange(dim)].T,
                           his[desc, np.arange(dim)].T))
    # tags[s, j]: 0 where item j is on side s of a row (0 = selected,
    # 1 = left out), 255 where it is on the other side.
    flags = np.ascontiguousarray(masks.T).view(np.uint8)
    tags = np.empty((2, n, C), dtype=np.uint8)
    np.subtract(flags, 1, out=tags[0])
    np.negative(flags, out=tags[1])
    ranked = tags[:, orders[:, :head]]                  # (2, 2 * dim, head, C)
    ranked |= np.arange(head, dtype=np.uint8)[:, None]
    first = np.minimum.reduce(ranked, axis=2)
    pick = first.astype(np.intp)
    missed = np.flatnonzero(first == 255)
    if len(missed):
        side, k, c = np.unravel_index(missed, first.shape)
        rows = masks[c] ^ side[:, None].astype(bool)
        pick[side, k, c] = np.take_along_axis(rows, orders[k],
                                              axis=1).argmax(axis=1)
    pick += np.arange(2 * dim)[:, None] * n
    bounds = vals.ravel()[pick]                         # (2, 2 * dim, C)
    return (bounds[0, :dim].T, bounds[0, dim:].T,
            bounds[1, :dim].T, bounds[1, dim:].T)


def covered_volume(row: np.ndarray) -> float:
    """Total volume of an aMAP row's two rects, their overlap counted
    once."""
    lo1, hi1, lo2, hi2 = np.hsplit(row, 4)
    edges = np.minimum(hi1, hi2) - np.maximum(lo1, lo2)
    inter = 0.0 if np.any(edges < 0) else float(np.prod(edges))
    return (float(np.prod(hi1 - lo1)) + float(np.prod(hi2 - lo2))
            - inter)


def best_bipartition(los: np.ndarray, his: np.ndarray, samples: int,
                     rng: np.random.Generator) -> np.ndarray:
    """The aMAP row ``[lo1, hi1, lo2, hi2]``: the minimum-total-volume
    pair of MBRs over random bipartitions.

    ``los``/``his`` give each item's own bounds (equal for points).  The
    all-in-one split (both rectangles the MBR) is always a candidate,
    so aMAP never does worse than the plain MBR on covered volume.
    """
    n = len(los)
    whole = np.concatenate((los.min(axis=0), his.max(axis=0)))
    best = np.concatenate((whole, whole))
    best_vol = covered_volume(best)
    if n < 2:
        return best

    dim = los.shape[1]
    masks = rng.integers(0, 2, size=(samples, n), dtype=np.int8).astype(bool)
    # Random bipartitions alone essentially never separate coherent
    # groups of more than a few dozen items, so the candidate pool also
    # includes axis-sweep bipartitions (cut the items sorted along each
    # dimension at a few quantiles) — still bipartitions, so still MAP.
    sweeps = []
    orders = np.argsort((los + his) / 2.0, axis=0, kind="stable")
    for d in range(dim):
        for frac in (0.25, 0.5, 0.75):
            cut = int(n * frac)
            if 0 < cut < n:
                mask = np.zeros(n, dtype=bool)
                mask[orders[:cut, d]] = True
                sweeps.append(mask)
    if sweeps:
        masks = np.concatenate([masks, np.stack(sweeps)])
    # Discard degenerate all-true / all-false samples.
    keep = masks.any(axis=1) & ~masks.all(axis=1)
    masks = masks[keep]
    if len(masks) == 0:
        return best

    lo1, hi1, lo2, hi2 = _side_bounds(masks, los, his)
    vol1 = np.prod(hi1 - lo1, axis=1)
    vol2 = np.prod(hi2 - lo2, axis=1)
    inter = np.clip(np.minimum(hi1, hi2) - np.maximum(lo1, lo2), 0.0, None)
    total = vol1 + vol2 - np.prod(inter, axis=1)

    i = int(np.argmin(total))
    if total[i] < best_vol:
        best = np.concatenate((lo1[i], hi1[i], lo2[i], hi2[i]))
    return best


class AMapExtension(RTreeExtension):
    """aMAP: R-tree chassis with dual-rectangle rows
    ``[lo1, hi1, lo2, hi2]``.

    Routing (penalty, split) treats the predicate as its overall MBR; the
    dual rectangles only sharpen the NN distance.
    """

    name = "amap"

    def __init__(self, dim: int, samples: int = AMAP_SAMPLES,
                 seed: int = 0):
        super().__init__(dim)
        self.samples = samples
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    # -- predicate construction --------------------------------------------
    #
    # Bulk builds key the sampling RNG to the node's (level, index)
    # position, so a node's predicate depends only on the seed and its
    # place in the tree, not on what was built before it — the property
    # the golden page-file digests (tests/storage/test_golden_format.py)
    # rest on.  Insert-time recomputes draw from one shared stream.

    def _bulk_rng(self, token: Tuple[int, int]) -> np.random.Generator:
        level, index = token
        return np.random.default_rng((self.seed, level, index))

    def preds_for_nodes(self, nodes: Sequence[Node],
                        tokens: Tokens = None) -> np.ndarray:
        rngs = [self._rng] * len(nodes) if tokens is None \
            else [self._bulk_rng(token) for token in tokens]
        # Inner nodes stack their child footprints through the node
        # cache ("rect_bounds"), so the first queries inherit them.
        return np.stack([best_bipartition(*self.split_bounds(node),
                                          self.samples, rng)
                         for node, rng in zip(nodes, rngs)])

    def block_bounds(self, block: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray]:
        lo1, hi1, lo2, hi2 = np.hsplit(block, 4)
        return np.minimum(lo1, lo2), np.maximum(hi1, hi2)

    # -- algebra ---------------------------------------------------------------

    def contains_node(self, node: Node, point: np.ndarray) -> np.ndarray:
        lo1, hi1, lo2, hi2 = self._dual_bounds(node)
        return (rects_contain_point(point, lo1, hi1)
                | rects_contain_point(point, lo2, hi2))

    def covers(self, row: np.ndarray, child_row: np.ndarray) -> bool:
        lo, hi = self.row_bounds(child_row)
        return holds_box(row, lo, hi) or holds_box(row[2 * self.dim:], lo, hi)

    # -- incremental adjust ----------------------------------------------------
    #
    # Online inserts widen whichever of the two rectangles grows by the
    # smaller volume — a greedy stand-in for re-running the bipartition
    # sampler, which would reshuffle the shared RNG stream and cost a
    # thousand candidate evaluations per touched ancestor.  Both rects
    # only ever grow, so everything the old predicate admitted stays
    # admitted.

    def _grown(self, row: np.ndarray, lo: np.ndarray,
               hi: np.ndarray) -> np.ndarray:
        """``row`` with the rect that grows less widened over
        ``[lo, hi]`` (the first on a tie)."""
        r1, r2 = np.hsplit(row, 2)
        g1, g2 = (np.concatenate((np.minimum(r[:self.dim], lo),
                                  np.maximum(r[self.dim:], hi)))
                  for r in (r1, r2))
        if _volume(g1) - _volume(r1) <= _volume(g2) - _volume(r2):
            return np.concatenate((g1, r2))
        return np.concatenate((r1, g2))

    def widen_key(self, row: np.ndarray, key: np.ndarray) -> Any:
        if self.covers_key(row, key):
            return row
        return self._grown(row, key, key)

    def widen(self, row: np.ndarray, child_row: np.ndarray) -> Any:
        if self.covers(row, child_row):
            return row
        return self._grown(row, *self.row_bounds(child_row))

    # -- distances ---------------------------------------------------------------

    def _dual_bounds(self, node: Node):
        """``(lo1, hi1, lo2, hi2)`` memoized on the node: the codec's
        column layout of its predicate block."""
        return node.cached("amap_bounds",
                           lambda: tuple(np.hsplit(node.pred_block(), 4)))

    def min_dists_node(self, node: Node, q: np.ndarray) -> np.ndarray:
        lo1, hi1, lo2, hi2 = self._dual_bounds(node)
        return np.minimum(min_dists_to_rects(q, lo1, hi1),
                          min_dists_to_rects(q, lo2, hi2))

    # -- storage --------------------------------------------------------------------

    def pred_codec(self) -> DualRectCodec:
        return DualRectCodec(self.dim)

    def config(self) -> dict:
        return {"samples": self.samples, "seed": self.seed}


def _volume(row: np.ndarray) -> float:
    """Volume of the rect row ``[lo, hi]``."""
    lo, hi = np.hsplit(row, 2)
    return float(np.prod(hi - lo))
