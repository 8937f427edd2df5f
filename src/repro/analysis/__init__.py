"""Static analysis for the repro codebase: amlint + treecheck.

Performance and robustness work accumulated invariants that were
documented but enforced by nothing — determinism of builds, writes
through the WAL wrapper, the typed storage exception discipline, the
zero-copy serving contract, and the on-disk page format.  Following the
paper's amdb philosophy of *measuring* access method health instead of
assuming it, this package machine-checks those invariants:

- :mod:`repro.analysis.amlint` — an AST-based linter with repo-specific
  per-node rules (``repro lint``).  Each rule has a stable ID, a
  severity, and per-line ``# amlint: disable=RULE`` suppressions;
  output is human or JSON.  Orderings along control-flow paths (the
  WAL commit, the serving worker's post-fork reopen) are pinned by
  runtime tests, not lint rules.
- :mod:`repro.analysis.treecheck` — a structural verifier that extends
  the page-level ``fsck`` to index semantics: bounding-predicate
  containment, JB/XJB bite emptiness, reachability against the
  superblock census, and fanout bounds (``repro fsck --deep``).
"""

from repro.analysis.amlint import (Finding, LintReport, findings_to_json,
                                   format_findings, lint_paths, lint_sources)
from repro.analysis.rules import ALL_RULES, RULES_BY_ID
from repro.analysis.treecheck import (CheckReport, DeepReport, Violation,
                                      check_tree, deep_scrub)

__all__ = [
    "Finding",
    "LintReport",
    "lint_paths",
    "lint_sources",
    "findings_to_json",
    "format_findings",
    "ALL_RULES",
    "RULES_BY_ID",
    "CheckReport",
    "DeepReport",
    "Violation",
    "check_tree",
    "deep_scrub",
]
