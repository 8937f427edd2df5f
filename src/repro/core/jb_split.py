"""A split heuristic for bitten trees (paper section 8, future work #1).

"Designing and implementing insertion and splitting algorithms for XJB
and JB" — Guttman's quadratic split optimizes MBR volume, but a bitten
predicate profits most when a split leaves a clean *void* between the
two groups: the void becomes carvable bite volume on both sides.  The
gap split cuts at the largest empty interval of any single dimension's
projection (respecting minimum fill), falling back to the quadratic
split when no usable gap exists.
"""

from __future__ import annotations

from typing import Any, Tuple

import numpy as np

from repro.ams.splits import quadratic_split


def gap_split(los: np.ndarray, his: np.ndarray,
              min_entries: int) -> Tuple[Any, Any]:
    """Split at the largest projection gap across all dimensions.

    ``los``/``his`` are the ``(n, dim)`` entry footprints (equal for
    points); the result is two index arrays.  For each dimension the
    footprints are ordered by center; the
    gap between consecutive footprints (next.lo - prev.hi, clipped at
    zero) is evaluated for every cut position allowed by
    ``min_entries``, and the globally largest gap wins.  Zero best gap
    (everything overlaps everywhere) falls back to Guttman's quadratic
    split.
    """
    n = len(los)
    if n < 2:
        raise ValueError("cannot split fewer than two entries")
    min_entries = max(1, min(min_entries, n // 2))

    centers = (los + his) / 2.0
    dim = los.shape[1]

    best_gap = 0.0
    best: Any = None
    for d in range(dim):
        order = np.argsort(centers[:, d], kind="stable")
        sorted_hi = his[order, d]
        sorted_lo = los[order, d]
        # Gap after position i: the void between the running maximum of
        # upper edges and the next footprint's lower edge.
        running_hi = np.maximum.accumulate(sorted_hi)
        gaps = sorted_lo[1:] - running_hi[:-1]
        for cut in range(min_entries, n - min_entries + 1):
            gap = float(gaps[cut - 1])
            if gap > best_gap:
                best_gap = gap
                best = (order, cut)

    if best is None:
        return quadratic_split(los, his, min_entries)
    order, cut = best
    return order[:cut], order[cut:]
