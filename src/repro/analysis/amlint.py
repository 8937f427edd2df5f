"""amlint: an AST-based invariant linter for the repro codebase.

The engine is deliberately small: every rule is an object with a stable
ID, a severity, a path scope, and a ``check`` hook that walks a parsed
module (or, for cross-file rules, the whole collection of parsed
modules) and yields :class:`Finding` objects.  The engine owns what is
common to all rules:

- **discovery** — directories are walked for ``*.py`` files; files are
  parsed once and shared by every rule;
- **scoping** — each file's path is normalized to a package-relative
  form (``bulk/loader.py``) so rules can target the subsystems whose
  invariants they encode;
- **suppressions** — a ``# amlint: disable=RULE1,RULE2`` comment on a
  line suppresses findings of those rules on that line; an unknown rule
  ID inside a suppression is itself an ERROR (:data:`SUPPRESSION_RULE`),
  so stale suppressions cannot rot silently;
- **output** — findings render as one-per-line human text or as a JSON
  document (the CI artifact format).

The exit-code contract: ERROR findings fail the build, WARNING findings
inform.  ``repro lint`` wires this into the CLI.
"""

from __future__ import annotations

import ast
import io
import json
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

#: severity levels, in increasing order of consequence.
WARNING = "warning"
ERROR = "error"

#: pseudo-rule reported when a file cannot be parsed at all.
PARSE_RULE = "REP000"
#: pseudo-rule reported for unknown rule IDs inside suppressions.
SUPPRESSION_RULE = "REP001"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str

    def to_dict(self) -> Dict[str, object]:
        return {"rule": self.rule, "severity": self.severity,
                "path": self.path, "line": self.line, "col": self.col,
                "message": self.message}

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.severity.upper()} {self.rule} {self.message}")


@dataclass
class ModuleSource:
    """One parsed Python file, shared by all rules."""

    path: str
    #: package-relative posix path ("bulk/loader.py") used for scoping.
    relpath: str
    text: str
    tree: ast.Module
    #: line number -> rule IDs suppressed on that line ("all" = every rule).
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: List[Finding]
    files_checked: int

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == ERROR]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == WARNING]

    @property
    def exit_code(self) -> int:
        """1 if any ERROR finding survived suppression, else 0."""
        return 1 if self.errors else 0


#: the ID list after ``disable=``: comma-separated identifiers.  The
#: list pattern (rather than one greedy character class) is what lets a
#: trailing prose justification — ``# amlint: disable=REP101 because
#: the bench stamps wall time`` — suppress REP101 instead of producing
#: a bogus ``REP101 because ...`` token that suppresses nothing *and*
#: trips the unknown-rule check.
_SUPPRESS_RE = re.compile(
    r"#\s*amlint:\s*disable=([A-Za-z0-9_-]+(?:\s*,\s*[A-Za-z0-9_-]+)*)")


def parse_suppressions(text: str) -> Dict[int, Set[str]]:
    """Map line numbers to the rule IDs suppressed on them.

    Only real ``#`` comments count — tokenized, so a docstring that
    *documents* the suppression syntax suppresses nothing.  A line may
    carry several IDs (``disable=REP601,REP701``) and several
    ``disable=`` clauses; each ID is validated individually downstream.
    """
    out: Dict[int, Set[str]] = {}
    try:
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type != tokenize.COMMENT:
                continue
            ids: Set[str] = set()
            for match in _SUPPRESS_RE.finditer(tok.string):
                ids.update(token.strip()
                           for token in match.group(1).split(","))
            ids.discard("")
            if ids:
                out[tok.start[0]] = ids
    except (tokenize.TokenError, IndentationError):
        pass  # unparseable files already carry a REP000 finding
    return out


def module_relpath(path: str) -> str:
    """Normalize ``path`` to the package-relative form rules scope on.

    ``src/repro/bulk/loader.py`` becomes ``bulk/loader.py``; a lint
    fixture laid out as ``tests/analysis/fixtures/bulk/x.py`` becomes
    ``bulk/x.py`` so the fixtures exercise exactly the scoping the real
    tree gets.  Files under neither anchor keep their basename.
    """
    parts = os.path.normpath(os.path.abspath(path)).split(os.sep)
    for anchor in ("repro", "fixtures"):
        if anchor in parts:
            idx = len(parts) - 1 - parts[::-1].index(anchor)
            tail = parts[idx + 1:]
            if tail:
                return "/".join(tail)
    return parts[-1]


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``*.py`` files."""
    found: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                dirnames[:] = [d for d in dirnames
                               if d not in ("__pycache__", ".git")]
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        found.append(os.path.join(dirpath, name))
        else:
            found.append(path)
    return found


def load_source(path: str) -> Tuple[Optional[ModuleSource], Optional[Finding]]:
    """Parse one file; an unreadable or unparseable file is a finding."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        return None, Finding(PARSE_RULE, ERROR, path, 0, 0,
                             f"cannot read file: {exc}")
    try:
        tree = ast.parse(text, filename=path)
    except SyntaxError as exc:
        return None, Finding(PARSE_RULE, ERROR, path, exc.lineno or 0,
                             exc.offset or 0, f"syntax error: {exc.msg}")
    return ModuleSource(path=path, relpath=module_relpath(path),
                        text=text, tree=tree,
                        suppressions=parse_suppressions(text)), None


def _known_rule_ids(rules: Sequence[Any]) -> Set[str]:
    ids = {str(getattr(rule, "id")) for rule in rules}
    ids.update({PARSE_RULE, SUPPRESSION_RULE, "all"})
    return ids


def lint_sources(modules: Sequence[ModuleSource],
                 rules: Optional[Sequence[Any]] = None) -> List[Finding]:
    """Run every rule over parsed modules and apply suppressions."""
    if rules is None:
        from repro.analysis.rules import ALL_RULES
        rules = ALL_RULES
    raw: List[Finding] = []
    for rule in rules:
        if getattr(rule, "project", False):
            raw.extend(rule.check_project(modules))
        else:
            for module in modules:
                if rule.applies_to(module.relpath):
                    raw.extend(rule.check(module))

    known = _known_rule_ids(rules)
    by_path = {module.path: module for module in modules}
    kept: List[Finding] = []
    for finding in raw:
        module = by_path.get(finding.path)
        if module is not None:
            disabled = module.suppressions.get(finding.line, set())
            if finding.rule in disabled or "all" in disabled:
                continue
        kept.append(finding)

    # Unknown rule IDs inside suppression comments are findings in their
    # own right: a typo'd suppression silently disables nothing, which
    # is worse than no suppression at all.
    for module in modules:
        for lineno, ids in sorted(module.suppressions.items()):
            for rule_id in sorted(ids - known):
                if SUPPRESSION_RULE in ids:
                    continue
                kept.append(Finding(
                    SUPPRESSION_RULE, ERROR, module.path, lineno, 0,
                    f"suppression names unknown rule {rule_id!r}"))

    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return kept


def lint_paths(paths: Sequence[str],
               rules: Optional[Sequence[Any]] = None) -> LintReport:
    """Lint files and directories; the one-call entry the CLI uses."""
    modules: List[ModuleSource] = []
    findings: List[Finding] = []
    files = iter_python_files(paths)
    for path in files:
        module, problem = load_source(path)
        if problem is not None:
            findings.append(problem)
        if module is not None:
            modules.append(module)
    findings.extend(lint_sources(modules, rules))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return LintReport(findings=findings, files_checked=len(files))


# ---------------------------------------------------------------------------
# baselines: land WARNING-tier (or newly strict) rules without blocking
# ---------------------------------------------------------------------------

def finding_fingerprint(finding: Finding) -> str:
    """A stable identity for baseline comparison.

    Keyed on (rule, package-relative path, message) — deliberately NOT
    the line number, so unrelated edits shifting a known finding down
    the file do not resurrect it as "new".  Two identical findings in
    one file share a fingerprint; the baseline waves off both, which is
    the right trade for a don't-block-on-old-debt mechanism.
    """
    return f"{finding.rule}|{module_relpath(finding.path)}|{finding.message}"


def baseline_document(report: LintReport) -> str:
    """Serialize the report's finding fingerprints as a baseline file."""
    doc = {
        "tool": "amlint-baseline",
        "fingerprints": sorted({finding_fingerprint(f)
                                for f in report.findings}),
    }
    return json.dumps(doc, indent=2) + "\n"


def load_baseline(path: str) -> Set[str]:
    """Read a baseline file; missing file means an empty baseline."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        return set()
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"unreadable baseline {path}: {exc}") from exc
    return {str(fp) for fp in doc.get("fingerprints", [])}


def apply_baseline(report: LintReport,
                   fingerprints: Set[str]) -> Tuple[LintReport, int]:
    """Drop findings the baseline already acknowledges.

    Returns the filtered report plus the number of findings waved off;
    the caller's exit code then reflects only *new* errors.
    """
    kept = [f for f in report.findings
            if finding_fingerprint(f) not in fingerprints]
    waved = len(report.findings) - len(kept)
    return LintReport(findings=kept,
                      files_checked=report.files_checked), waved


def format_findings(report: LintReport) -> str:
    """Human-readable rendering, one finding per line plus a summary."""
    lines = [finding.render() for finding in report.findings]
    lines.append(f"amlint: {len(report.errors)} error(s), "
                 f"{len(report.warnings)} warning(s) across "
                 f"{report.files_checked} file(s)")
    return "\n".join(lines)


def findings_to_json(report: LintReport) -> str:
    """The CI artifact format: a stable JSON document."""
    doc = {
        "tool": "amlint",
        "files_checked": report.files_checked,
        "errors": len(report.errors),
        "warnings": len(report.warnings),
        "findings": [finding.to_dict() for finding in report.findings],
    }
    return json.dumps(doc, indent=2) + "\n"
