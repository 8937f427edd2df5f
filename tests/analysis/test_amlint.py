"""amlint engine and rule-catalog tests.

Every rule gets a positive fixture (must fire, with the documented rule
ID and an exit code of 1) and a negative fixture (must stay silent);
the suppression machinery gets both directions — a known rule ID is
honored in place, an unknown one is itself an ERROR.  The fixtures live
under ``fixtures/`` in a directory layout that reproduces the package
scoping of the real tree (see ``fixtures/README.md``).
"""

import json
import re
from pathlib import Path

import pytest

from repro.analysis import (findings_to_json, format_findings, lint_paths,
                            lint_sources)
from repro.analysis.amlint import (ERROR, SUPPRESSION_RULE, WARNING,
                                   load_source, module_relpath,
                                   parse_suppressions)
from repro.analysis.rules import ALL_RULES, RULES_BY_ID

FIXTURES = Path(__file__).parent / "fixtures"
REPO = Path(__file__).resolve().parents[2]
REPO_SRC = REPO / "src" / "repro"


def lint_fixtures(*names):
    return lint_paths([str(FIXTURES / name) for name in names])


# ---------------------------------------------------------------------------
# per-rule positive + negative fixtures
# ---------------------------------------------------------------------------

# Rows are keyed by a fixed slot that is part of the test id, so
# retiring a rule does not rename its neighbours' tests (the missing
# slots held retired fork-safety, resource-lifecycle and WAL-ordering
# rules).
POSITIVE = {
    0: ("REP101", ["bulk/bad_wallclock.py"], 2),
    1: ("REP102", ["geometry/bad_rng.py"], 2),
    6: ("REP104", ["gist/mutable.py"], 2),
    7: ("REP301", ["storage/bad_except.py"], 2),
    8: ("REP302", ["storage/bad_raise.py"], 3),
    9: ("REP401", ["storage/codecs.py"], 3),
    10: ("REP501", ["storage/__init__.py", "storage/badstore.py"], 2),
}

NEGATIVE = {
    0: ("REP101", ["bulk/good_wallclock.py"]),
    1: ("REP102", ["geometry/good_rng.py"]),
    6: ("REP104", ["gist/tree.py"]),
    7: ("REP301", ["storage/good_except.py"]),
    8: ("REP302", ["storage/good_raise.py"]),
    9: ("REP401", ["storage/diskfile.py"]),
    10: ("REP402", ["storage/diskfile.py"]),
    11: ("REP403", ["gist/good_dequant.py"]),
    12: ("REP501", ["storage/__init__.py", "storage/goodstore.py"]),
}


def _slotted(rows):
    """``pytest.param`` per row, id ``RULE-fixtures<slot>[-count]``."""
    return [pytest.param(*row, id="-".join(
                [row[0], f"fixtures{slot}", *map(str, row[2:])]))
            for slot, row in rows.items()]


@pytest.mark.parametrize("rule_id,fixtures,count", _slotted(POSITIVE))
def test_rule_fires_on_positive_fixture(rule_id, fixtures, count):
    report = lint_fixtures(*fixtures)
    hits = [f for f in report.findings if f.rule == rule_id]
    assert len(hits) == count, format_findings(report)
    assert all(f.severity == ERROR for f in hits)
    assert report.exit_code == 1


@pytest.mark.parametrize("rule_id,fixtures", _slotted(NEGATIVE))
def test_rule_stays_silent_on_negative_fixture(rule_id, fixtures):
    report = lint_fixtures(*fixtures)
    hits = [f for f in report.findings if f.rule == rule_id]
    assert hits == [], format_findings(report)


def test_eager_dequantize_is_a_warning_in_hot_paths_only():
    report = lint_fixtures("gist/bad_dequant.py")
    rep403 = [f for f in report.findings if f.rule == "REP403"]
    assert len(rep403) == 2, format_findings(report)
    assert all(f.severity == WARNING for f in rep403)
    # Warnings alone never fail the build.
    assert report.exit_code == 0


def test_copy_in_decode_is_a_warning_not_an_error():
    report = lint_fixtures("storage/codecs.py")
    rep402 = [f for f in report.findings if f.rule == "REP402"]
    assert len(rep402) == 1
    assert rep402[0].severity == WARNING
    # Warnings alone never fail the build; the fixture still exits 1,
    # but only because of its REP401 errors.
    assert all(f.rule != "REP402" for f in report.errors)


def test_out_of_scope_file_is_untouched():
    report = lint_fixtures("amdb/outside_scope.py")
    assert report.findings == [], format_findings(report)
    assert report.exit_code == 0


def test_encode_paths_are_exempt_from_zero_copy():
    report = lint_fixtures("storage/codecs.py")
    # encode_block's .tobytes() lives on line 20; every REP401 finding
    # must sit inside decode_block instead.
    assert all(f.line < 18 for f in report.findings if f.rule == "REP401")


# ---------------------------------------------------------------------------
# every ERROR rule fires on a one-line mutation of the live tree
# ---------------------------------------------------------------------------

# (rule, files copied from src/repro, anchor, replacement): the last
# file listed is the one mutated.  The fixtures above pin each rule's
# shape; these pin that the rule still reaches the real code it was
# written to guard.
LIVE_MUTATIONS = [
    ("REP101", ["bulk/loader.py"],
     "t_start = time.perf_counter()", "t_start = time.time()"),
    ("REP102", ["geometry/bites.py"],
     "default_rng(seed)", "default_rng()"),
    ("REP104", ["gist/tree.py"],
     "self.store.write(node)", "self.store.base.write(node)"),
    ("REP301", ["storage/diskfile.py"],
     "except BufferError:", "except Exception:"),
    ("REP302", ["storage/diskfile.py"],
     'raise PageMissingError("page ids start at 1"',
     'raise KeyError("page ids start at 1"'),
    ("REP401", ["storage/diskfile.py"],
     "return memoryview(self._map)[start:start + self.page_size]",
     "return bytes(memoryview(self._map)[start:start + self.page_size])"),
    ("REP501", ["storage/__init__.py", "storage/diskfile.py"],
     "def read_many(self, page_ids: Sequence[int]) -> List[Node]:",
     "def read_many(self, page_ids: Sequence[int],\n"
     "                  limit: int) -> List[Node]:"),
]


@pytest.mark.parametrize("rule_id,relpaths,old,new", LIVE_MUTATIONS,
                         ids=[row[0] for row in LIVE_MUTATIONS])
def test_rule_fires_on_mutated_live_source(tmp_path, rule_id, relpaths,
                                           old, new):
    # A ``repro`` path component gives the copies the real scoping.
    copies = []
    for relpath in relpaths:
        copy = tmp_path / "repro" / relpath
        copy.parent.mkdir(parents=True, exist_ok=True)
        copy.write_text((REPO_SRC / relpath).read_text())
        copies.append(str(copy))
    clean = lint_paths(copies)
    assert clean.errors == [], format_findings(clean)

    mutated = Path(copies[-1])
    source = mutated.read_text()
    assert old in source, f"mutation anchor missing in {relpaths[-1]}"
    mutated.write_text(source.replace(old, new, 1))
    report = lint_paths(copies)
    assert {f.rule for f in report.errors} == {rule_id}, \
        format_findings(report)
    assert report.exit_code == 1


# ---------------------------------------------------------------------------
# suppressions
# ---------------------------------------------------------------------------

def test_known_suppression_is_honored():
    report = lint_fixtures("bulk/suppressed_ok.py")
    assert report.findings == [], format_findings(report)
    assert report.exit_code == 0


def test_unknown_rule_in_suppression_is_an_error():
    report = lint_fixtures("bulk/suppressed_unknown.py")
    rules = [f.rule for f in report.findings]
    # The REP101 part of the comment still suppresses...
    assert "REP101" not in rules
    # ...but the typo'd ID is an ERROR finding of its own.
    assert rules == [SUPPRESSION_RULE]
    assert report.errors and report.exit_code == 1
    assert "REP9999" in report.findings[0].message


def test_disable_all_suppresses_every_rule(tmp_path):
    scoped = tmp_path / "fixtures" / "bulk"
    scoped.mkdir(parents=True)
    target = scoped / "clock.py"
    target.write_text(
        "import time\n\n\n"
        "def stamp():\n"
        "    return time.time()  # amlint: disable=all\n")
    report = lint_paths([str(target)])
    assert report.findings == [], format_findings(report)


def test_docstrings_never_suppress():
    # Only real comments count: a docstring that *documents* the
    # suppression syntax maps no lines.
    text = ('"""Docs: write `# amlint: disable=REP101` on the line."""\n'
            "x = 1  # amlint: disable=REP102\n")
    assert parse_suppressions(text) == {2: {"REP102"}}


def test_suppression_parses_multiple_ids():
    text = "y = 2  # amlint: disable=REP101, REP302,REP401\n"
    assert parse_suppressions(text) == {1: {"REP101", "REP302", "REP401"}}


# ---------------------------------------------------------------------------
# engine mechanics
# ---------------------------------------------------------------------------

def test_module_relpath_anchors_on_package_and_fixtures():
    assert module_relpath("src/repro/bulk/loader.py") == "bulk/loader.py"
    assert module_relpath(
        "tests/analysis/fixtures/bulk/loader.py") == "bulk/loader.py"
    assert module_relpath("/somewhere/else/script.py") == "script.py"


def test_unparseable_file_is_a_parse_finding(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def oops(:\n")
    report = lint_paths([str(bad)])
    assert [f.rule for f in report.findings] == ["REP000"]
    assert report.exit_code == 1


def test_rule_catalog_is_complete():
    ids = [rule.id for rule in ALL_RULES]
    assert ids == sorted(set(ids)), "rule IDs must be unique and ordered"
    assert set(RULES_BY_ID) == set(ids)
    for rule in ALL_RULES:
        assert rule.id.startswith("REP") and rule.title


def test_documented_catalogs_match_the_rules():
    """The rules.py docstring table and DESIGN.md section 10's catalog
    bullets name exactly the rules amlint runs, so retiring or adding a
    rule cannot leave stale docs.  REP000 (parse failure) and REP001
    (unknown suppression) are engine codes, not rules."""
    import repro.analysis.rules as rules_module
    engine_codes = {"REP000", "REP001"}
    table = set(re.findall(r"^``(REP\d{3})``", rules_module.__doc__ or "",
                           re.MULTILINE))
    design = (REPO / "DESIGN.md").read_text()
    section = design[design.index("\n## 10. "):design.index("\n## 11. ")]
    bullets = set(re.findall(r"^- `(REP\d{3})`", section, re.MULTILINE))
    assert table - engine_codes == set(RULES_BY_ID)
    assert bullets - engine_codes == set(RULES_BY_ID)


def test_lint_sources_accepts_explicit_rule_subset():
    module, problem = load_source(
        str(FIXTURES / "storage" / "bad_raise.py"))
    assert problem is None
    only_301 = [RULES_BY_ID["REP301"]]
    assert lint_sources([module], only_301) == []
    only_302 = [RULES_BY_ID["REP302"]]
    assert {f.rule for f in lint_sources([module], only_302)} == {"REP302"}


def test_json_document_shape():
    report = lint_fixtures("storage/bad_except.py")
    doc = json.loads(findings_to_json(report))
    assert doc["tool"] == "amlint"
    assert doc["errors"] == len(report.errors) == 2
    assert doc["files_checked"] == 1
    for finding in doc["findings"]:
        assert set(finding) == {"rule", "severity", "path", "line", "col",
                                "message"}


# ---------------------------------------------------------------------------
# the CLI contract and the tree itself
# ---------------------------------------------------------------------------

def test_cli_lint_exits_nonzero_with_rule_id_in_json(capsys):
    from repro.cli import main
    rc = main(["lint", str(FIXTURES / "bulk" / "bad_wallclock.py"),
               "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 1
    doc = json.loads(out)
    assert {f["rule"] for f in doc["findings"]} == {"REP101"}


def test_cli_lint_writes_json_artifact(tmp_path, capsys):
    from repro.cli import main
    artifact = tmp_path / "findings.json"
    rc = main(["lint", str(FIXTURES / "storage" / "codecs.py"),
               "--json", str(artifact)])
    capsys.readouterr()
    assert rc == 1
    doc = json.loads(artifact.read_text())
    assert "REP401" in {f["rule"] for f in doc["findings"]}


def test_repo_source_tree_is_lint_clean():
    """The acceptance bar: ``repro lint src/`` exits 0 on this tree."""
    report = lint_paths([str(REPO_SRC)])
    assert report.errors == [], format_findings(report)
    assert report.exit_code == 0
