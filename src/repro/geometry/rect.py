"""Kernels over stacked axis-aligned rectangles (MBRs).

The MBR is the bounding predicate of the classic R-tree [Guttman 84]
and the base component of the paper's MAP, JB and XJB predicates.  A
node's rectangles are two ``(n, dim)`` ``float64`` arrays ``lo`` and
``hi``; each is the closed box ``[lo[i], hi[i]]``.
"""

from __future__ import annotations

import numpy as np


def rects_contain_point(point, lo: np.ndarray,
                        hi: np.ndarray) -> np.ndarray:
    """Which stacked closed boxes hold ``point``."""
    p = np.asarray(point, dtype=np.float64)
    return ((p >= lo) & (p <= hi)).all(axis=1)


def min_dists_to_rects(point, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Euclidean distance from ``point`` to the nearest point of each
    stacked box (0 inside)."""
    p = np.asarray(point, dtype=np.float64)
    delta = np.maximum(np.maximum(lo - p, p - hi), 0.0)
    return np.sqrt(np.einsum("ij,ij->i", delta, delta))
