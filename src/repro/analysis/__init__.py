"""Semantic verification of a built index: treecheck.

Following the paper's amdb philosophy of *measuring* access method
health instead of assuming it, :mod:`repro.analysis.treecheck` extends
the page-level ``fsck`` to index semantics: bounding-predicate
containment, JB/XJB bite emptiness, reachability against the
superblock census, and fanout bounds (``repro fsck --deep``).

The repo's coding conventions (determinism, writes through the WAL,
typed storage errors, zero-copy reads, page-file protocol conformance)
are tests, not shipped code: ``tests/conventions/``.
"""

from repro.analysis.treecheck import (CheckReport, DeepReport, Violation,
                                      check_tree, deep_scrub)

__all__ = [
    "CheckReport",
    "DeepReport",
    "Violation",
    "check_tree",
    "deep_scrub",
]
