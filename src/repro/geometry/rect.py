"""Axis-aligned minimum bounding rectangles (MBRs).

A :class:`Rect` is the bounding predicate of the classic R-tree [Guttman 84]
and the base component of the paper's MAP, JB and XJB predicates.  All
coordinates are ``float64``; rectangles are closed boxes ``[lo, hi]``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


class Rect:
    """A closed axis-aligned box ``[lo, hi]`` in ``dim`` dimensions."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lo and hi must be 1-D arrays of equal length")
        if np.any(lo > hi):
            raise ValueError(f"degenerate rect: lo {lo} exceeds hi {hi}")
        self.lo = lo
        self.hi = hi

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_points(cls, points) -> "Rect":
        """Minimum bounding rectangle of a non-empty ``(n, dim)`` array."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        if pts.size == 0:
            raise ValueError("cannot bound an empty point set")
        return cls(pts.min(axis=0), pts.max(axis=0))

    @classmethod
    def from_rects(cls, rects: Iterable["Rect"]) -> "Rect":
        """Minimum bounding rectangle of a non-empty collection of rects."""
        rects = list(rects)
        if not rects:
            raise ValueError("cannot bound an empty rect set")
        lo = np.minimum.reduce([r.lo for r in rects])
        hi = np.maximum.reduce([r.hi for r in rects])
        return cls(lo, hi)

    @classmethod
    def point(cls, p) -> "Rect":
        """Degenerate rectangle containing exactly one point."""
        p = np.asarray(p, dtype=np.float64)
        return cls(p, p.copy())

    # -- basic properties --------------------------------------------------

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    @property
    def center(self) -> np.ndarray:
        return (self.lo + self.hi) / 2.0

    @property
    def extents(self) -> np.ndarray:
        return self.hi - self.lo

    def volume(self) -> float:
        return float(np.prod(self.hi - self.lo))

    # -- containment and intersection ---------------------------------------

    def contains_point(self, p) -> bool:
        p = np.asarray(p, dtype=np.float64)
        return bool(np.all(p >= self.lo) and np.all(p <= self.hi))

    def contains_points(self, pts) -> np.ndarray:
        """Vectorized containment test for an ``(n, dim)`` array."""
        pts = np.asarray(pts, dtype=np.float64)
        return np.all((pts >= self.lo) & (pts <= self.hi), axis=1)

    def contains_rect(self, other: "Rect") -> bool:
        return bool(np.all(other.lo >= self.lo) and np.all(other.hi <= self.hi))

    def intersection_volume(self, other: "Rect") -> float:
        edges = np.minimum(self.hi, other.hi) - np.maximum(self.lo, other.lo)
        if np.any(edges < 0):
            return 0.0
        return float(np.prod(edges))

    # -- union ----------------------------------------------------------------

    def union(self, other: "Rect") -> "Rect":
        return Rect(np.minimum(self.lo, other.lo), np.maximum(self.hi, other.hi))

    def union_point(self, p) -> "Rect":
        p = np.asarray(p, dtype=np.float64)
        return Rect(np.minimum(self.lo, p), np.maximum(self.hi, p))

    # -- distances -------------------------------------------------------------

    def min_dist(self, p) -> float:
        """Euclidean distance from ``p`` to the nearest point of the box."""
        p = np.asarray(p, dtype=np.float64)
        delta = np.maximum(np.maximum(self.lo - p, p - self.hi), 0.0)
        return float(np.linalg.norm(delta))

    def clamp(self, p) -> np.ndarray:
        """The point of the box nearest to ``p``."""
        p = np.asarray(p, dtype=np.float64)
        return np.clip(p, self.lo, self.hi)

    def corner(self, mask: int) -> np.ndarray:
        """Corner point identified by a bitmask (bit ``d`` set ⇒ ``hi[d]``)."""
        out = self.lo.copy()
        for d in range(self.dim):
            if mask >> d & 1:
                out[d] = self.hi[d]
        return out

    def corners(self) -> np.ndarray:
        """All ``2**dim`` corner points as a ``(2**dim, dim)`` array."""
        return np.stack([self.corner(m) for m in range(1 << self.dim)])

    # -- misc --------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Rect)
                and np.array_equal(self.lo, other.lo)
                and np.array_equal(self.hi, other.hi))

    def __hash__(self):
        return hash((self.lo.tobytes(), self.hi.tobytes()))

    def __repr__(self) -> str:
        return f"Rect(lo={self.lo.tolist()}, hi={self.hi.tolist()})"


def rects_contain_point(point, lo: np.ndarray,
                        hi: np.ndarray) -> np.ndarray:
    """Vectorized :meth:`Rect.contains_point` against stacked bounds."""
    p = np.asarray(point, dtype=np.float64)
    return ((p >= lo) & (p <= hi)).all(axis=1)


def min_dists_to_rects(point, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Vectorized :meth:`Rect.min_dist` against stacked bounds arrays."""
    p = np.asarray(point, dtype=np.float64)
    delta = np.maximum(np.maximum(lo - p, p - hi), 0.0)
    return np.sqrt(np.einsum("ij,ij->i", delta, delta))
