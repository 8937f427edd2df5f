"""Shape objects of the test oracle: one rectangle or ball per object.

``src/`` holds every predicate as a row of bounds and answers with
stacked-array kernels (:mod:`repro.geometry.rect`, the sphere kernels of
:mod:`repro.ams.sstree`).  These classes are the scalar forms those
kernels replaced, kept here so tests can state a predicate one shape at
a time: :func:`tests.gist.oracle.pred_object` turns a row into them,
:mod:`tests.geometry.bite_oracle` carves its bites from a :class:`Rect`,
and the differentials hold the row kernels equal to them.
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

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    @property
    def extents(self) -> np.ndarray:
        return self.hi - self.lo

    def volume(self) -> float:
        return float(np.prod(self.hi - self.lo))

    def contains_point(self, p) -> bool:
        p = np.asarray(p, dtype=np.float64)
        return bool(np.all(p >= self.lo) and np.all(p <= self.hi))

    def contains_points(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=np.float64)
        return np.all((pts >= self.lo) & (pts <= self.hi), axis=1)

    def intersection_volume(self, other: "Rect") -> float:
        edges = np.minimum(self.hi, other.hi) - np.maximum(self.lo, other.lo)
        if np.any(edges < 0):
            return 0.0
        return float(np.prod(edges))

    def union(self, other: "Rect") -> "Rect":
        return Rect(np.minimum(self.lo, other.lo), np.maximum(self.hi, other.hi))

    def union_point(self, p) -> "Rect":
        p = np.asarray(p, dtype=np.float64)
        return Rect(np.minimum(self.lo, p), np.maximum(self.hi, p))

    def min_dist(self, p) -> float:
        """Euclidean distance from ``p`` to the nearest point of the box."""
        p = np.asarray(p, dtype=np.float64)
        delta = np.maximum(np.maximum(self.lo - p, p - self.hi), 0.0)
        return float(np.linalg.norm(delta))

    def corner(self, mask: int) -> np.ndarray:
        """Corner point identified by a bitmask (bit ``d`` set ⇒ ``hi[d]``)."""
        out = self.lo.copy()
        for d in range(self.dim):
            if mask >> d & 1:
                out[d] = self.hi[d]
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, Rect)
                and np.array_equal(self.lo, other.lo)
                and np.array_equal(self.hi, other.hi))

    def __hash__(self):
        return hash((self.lo.tobytes(), self.hi.tobytes()))

    def __repr__(self) -> str:
        return f"Rect(lo={self.lo.tolist()}, hi={self.hi.tolist()})"


class Sphere:
    """A closed ball with ``center`` and non-negative ``radius``: the
    SS-tree's predicate and the SR-tree's second part."""

    __slots__ = ("center", "radius")

    def __init__(self, center, radius: float):
        center = np.asarray(center, dtype=np.float64)
        if center.ndim != 1:
            raise ValueError("center must be a 1-D array")
        if radius < 0:
            raise ValueError(f"negative radius: {radius}")
        self.center = center
        self.radius = float(radius)

    @classmethod
    def from_points(cls, points) -> "Sphere":
        """Centroid-centered ball covering a non-empty point set.

        This is the SS-tree construction: the center is the centroid (not
        the minimum enclosing ball center) and the radius the max distance.
        """
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        if pts.size == 0:
            raise ValueError("cannot bound an empty point set")
        center = pts.mean(axis=0)
        radius = float(np.sqrt(((pts - center) ** 2).sum(axis=1).max()))
        return cls(center, radius)

    @classmethod
    def from_spheres(cls, spheres: Iterable["Sphere"]) -> "Sphere":
        """Ball covering child balls, centered at their centroid."""
        spheres = list(spheres)
        if not spheres:
            raise ValueError("cannot bound an empty sphere set")
        centers = np.stack([s.center for s in spheres])
        center = centers.mean(axis=0)
        dists = np.sqrt(((centers - center) ** 2).sum(axis=1))
        radius = float(max(d + s.radius for d, s in zip(dists, spheres)))
        return cls(center, radius)

    def contains_point(self, p) -> bool:
        p = np.asarray(p, dtype=np.float64)
        # Tolerate float rounding at the surface: a point used to *build*
        # the sphere must always test as contained.
        return float(np.linalg.norm(p - self.center)) <= self.radius * (1 + 1e-12) + 1e-12

    def contains_points(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=np.float64)
        d = np.sqrt(((pts - self.center) ** 2).sum(axis=1))
        return d <= self.radius * (1 + 1e-12) + 1e-12

    def min_dist(self, p) -> float:
        p = np.asarray(p, dtype=np.float64)
        return max(0.0, float(np.linalg.norm(p - self.center)) - self.radius)
