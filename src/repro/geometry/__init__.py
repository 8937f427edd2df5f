"""Axis-aligned geometric primitives used by bounding predicates.

Everything in this package works on ``numpy`` ``float64`` arrays and is
dimension-agnostic.  The three primitive families are:

- :class:`~repro.geometry.rect.Rect` — minimum bounding rectangles;
- :class:`~repro.geometry.sphere.Sphere` — bounding spheres;
- :mod:`~repro.geometry.bites` — rectangular corner "bites" removed from a
  rectangle, the geometry behind the paper's JB and XJB predicates, held
  as arrays (:func:`~repro.geometry.bites.carve_rows`).
"""

from repro.geometry.rect import Rect
from repro.geometry.sphere import Sphere

__all__ = ["Rect", "Sphere"]
