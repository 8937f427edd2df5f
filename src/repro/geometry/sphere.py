"""Bounding spheres, the predicate family of the SS-tree and SR-tree.

The SS-tree [White & Jain 96] bounds each subtree with a sphere centered at
the centroid of the contained points; the SR-tree [Katayama & Satoh 97]
stores a sphere *and* an MBR and searches their intersection.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


class Sphere:
    """A closed ball with ``center`` and non-negative ``radius``."""

    __slots__ = ("center", "radius")

    def __init__(self, center, radius: float):
        center = np.asarray(center, dtype=np.float64)
        if center.ndim != 1:
            raise ValueError("center must be a 1-D array")
        if radius < 0:
            raise ValueError(f"negative radius: {radius}")
        self.center = center
        self.radius = float(radius)

    # -- constructors -----------------------------------------------------

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
    def from_spheres(cls, spheres: Iterable["Sphere"],
                     weights=None) -> "Sphere":
        """Ball covering child balls, centered at their (weighted) centroid.

        ``weights`` are the child subtree cardinalities when known, which
        keeps the center close to the true centroid of the underlying data
        as in the SS-tree paper.
        """
        spheres = list(spheres)
        if not spheres:
            raise ValueError("cannot bound an empty sphere set")
        centers = np.stack([s.center for s in spheres])
        if weights is None:
            center = centers.mean(axis=0)
        else:
            w = np.asarray(weights, dtype=np.float64)
            center = (centers * w[:, None]).sum(axis=0) / w.sum()
        dists = np.sqrt(((centers - center) ** 2).sum(axis=1))
        radius = float(max(d + s.radius for d, s in zip(dists, spheres)))
        return cls(center, radius)

    @classmethod
    def point(cls, p) -> "Sphere":
        return cls(np.asarray(p, dtype=np.float64), 0.0)

    # -- properties --------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def volume(self) -> float:
        """Volume of the ball (exact n-ball formula via log-gamma)."""
        from math import lgamma, pi, exp, log
        d = self.dim
        if self.radius == 0.0:
            return 0.0
        log_v = (d / 2.0) * log(pi) - lgamma(d / 2.0 + 1.0) \
            + d * log(self.radius)
        return exp(log_v)

    # -- predicates -------------------------------------------------------

    def contains_point(self, p) -> bool:
        p = np.asarray(p, dtype=np.float64)
        # Tolerate float rounding at the surface: a point used to *build*
        # the sphere must always test as contained.
        return float(np.linalg.norm(p - self.center)) <= self.radius * (1 + 1e-12) + 1e-12

    def contains_points(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=np.float64)
        d = np.sqrt(((pts - self.center) ** 2).sum(axis=1))
        return d <= self.radius * (1 + 1e-12) + 1e-12

    def contains_sphere(self, other: "Sphere") -> bool:
        gap = float(np.linalg.norm(other.center - self.center))
        return gap + other.radius <= self.radius * (1 + 1e-12) + 1e-12

    def intersects_sphere(self, other: "Sphere") -> bool:
        gap = float(np.linalg.norm(other.center - self.center))
        return gap <= self.radius + other.radius

    # -- distances ----------------------------------------------------------

    def min_dist(self, p) -> float:
        p = np.asarray(p, dtype=np.float64)
        return max(0.0, float(np.linalg.norm(p - self.center)) - self.radius)

    def max_dist(self, p) -> float:
        p = np.asarray(p, dtype=np.float64)
        return float(np.linalg.norm(p - self.center)) + self.radius

    # -- misc -----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Sphere)
                and np.array_equal(self.center, other.center)
                and self.radius == other.radius)

    def __hash__(self):
        return hash((self.center.tobytes(), self.radius))

    def __repr__(self) -> str:
        return f"Sphere(center={self.center.tolist()}, radius={self.radius})"


def stack_spheres(spheres: Sequence[Sphere]):
    """Stack sphere parameters into ``(n, dim)`` centers and ``(n,)`` radii."""
    centers = np.stack([s.center for s in spheres])
    radii = np.array([s.radius for s in spheres])
    return centers, radii
