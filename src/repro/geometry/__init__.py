"""Axis-aligned geometry kernels behind the bounding predicates.

Everything in this package works on stacked ``numpy`` ``float64`` arrays
and is dimension-agnostic; a shape is a row of bounds, never an object:

- :mod:`~repro.geometry.rect` — containment and distance against stacked
  ``(lo, hi)`` rectangle bounds;
- :mod:`~repro.geometry.bites` — rectangular corner "bites" removed from a
  rectangle, the geometry behind the paper's JB and XJB predicates, held
  as arrays (:func:`~repro.geometry.bites.carve_rows`).

The sphere kernels of the SS- and SR-trees live beside their extension
in :mod:`repro.ams.sstree`.
"""
