"""amlint engine and rule-catalog tests.

Every rule gets a positive fixture (must fire, with the documented rule
ID and an exit code of 1) and a negative fixture (must stay silent);
the suppression machinery gets both directions — a known rule ID is
honored in place, an unknown one is itself an ERROR.  The fixtures live
under ``fixtures/`` in a directory layout that reproduces the package
scoping of the real tree (see ``fixtures/README.md``).
"""

import json
from pathlib import Path

import pytest

from repro.analysis import (findings_to_json, format_findings, lint_paths,
                            lint_sources)
from repro.analysis.amlint import (ERROR, SUPPRESSION_RULE, WARNING,
                                   load_source, module_relpath,
                                   parse_suppressions)
from repro.analysis.rules import ALL_RULES, RULES_BY_ID

FIXTURES = Path(__file__).parent / "fixtures"
REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def lint_fixtures(*names):
    return lint_paths([str(FIXTURES / name) for name in names])


# ---------------------------------------------------------------------------
# per-rule positive + negative fixtures
# ---------------------------------------------------------------------------

POSITIVE = [
    ("REP101", ["bulk/bad_wallclock.py"], 2),
    ("REP102", ["geometry/bad_rng.py"], 2),
    ("REP201", ["fork_unsafe/fixtures/bulk/loader.py"], 1),
    ("REP202", ["fork_unsafe/fixtures/bulk/loader.py"], 2),
    ("REP203", ["serving/bad_daemon.py"], 2),
    ("REP701", ["storage/wal_bad.py"], 2),
    ("REP104", ["gist/mutable.py"], 2),
    ("REP301", ["storage/bad_except.py"], 2),
    ("REP302", ["storage/bad_raise.py"], 3),
    ("REP401", ["storage/codecs.py"], 3),
    ("REP501", ["storage/__init__.py", "storage/badstore.py"], 2),
    ("REP205", ["serving/forked_acquirer.py"], 2),
    ("REP601", ["serving/leaky_fds.py"], 2),
    ("REP602", ["serving/leaky_segment.py"], 2),
    ("REP603", ["serving/leaky_process.py"], 1),
]

NEGATIVE = [
    ("REP101", ["bulk/good_wallclock.py"]),
    ("REP102", ["geometry/good_rng.py"]),
    ("REP201", ["bulk/loader.py"]),
    ("REP202", ["bulk/loader.py"]),
    ("REP203", ["serving/good_daemon.py"]),
    ("REP701", ["storage/wal_good.py"]),
    ("REP104", ["gist/tree.py"]),
    ("REP301", ["storage/good_except.py"]),
    ("REP302", ["storage/good_raise.py"]),
    ("REP401", ["storage/diskfile.py"]),
    ("REP402", ["storage/diskfile.py"]),
    ("REP403", ["gist/good_dequant.py"]),
    ("REP501", ["storage/__init__.py", "storage/goodstore.py"]),
    ("REP205", ["serving/forked_clean.py"]),
    ("REP601", ["serving/clean_fds.py"]),
    ("REP602", ["serving/clean_segment.py"]),
    ("REP603", ["serving/clean_process.py"]),
]


@pytest.mark.parametrize("rule_id,fixtures,count", POSITIVE)
def test_rule_fires_on_positive_fixture(rule_id, fixtures, count):
    report = lint_fixtures(*fixtures)
    hits = [f for f in report.findings if f.rule == rule_id]
    assert len(hits) == count, format_findings(report)
    assert all(f.severity == ERROR for f in hits)
    assert report.exit_code == 1


@pytest.mark.parametrize("rule_id,fixtures", NEGATIVE)
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


def test_cli_update_baseline_then_baseline_waives_everything(tmp_path,
                                                             capsys):
    from repro.cli import main
    target = str(FIXTURES / "bulk" / "bad_wallclock.py")
    baseline = tmp_path / "BASELINE.json"
    assert main(["lint", target,
                 "--update-baseline", str(baseline)]) == 0
    capsys.readouterr()
    doc = json.loads(baseline.read_text())
    assert doc["tool"] == "amlint-baseline"
    assert len(doc["fingerprints"]) > 0
    # Every finding is baselined: the same lint now exits 0...
    assert main(["lint", target, "--baseline", str(baseline)]) == 0
    assert "waived" in capsys.readouterr().out
    # ...but a file with findings outside the baseline still fails.
    assert main(["lint", target,
                 str(FIXTURES / "geometry" / "bad_rng.py"),
                 "--baseline", str(baseline)]) == 1
    capsys.readouterr()


def test_baseline_fingerprints_survive_line_drift(tmp_path):
    """Fingerprints carry no line numbers: shifting a finding down a
    file does not make it 'new'."""
    from repro.analysis.amlint import baseline_document, load_baseline
    source = (FIXTURES / "bulk" / "bad_wallclock.py").read_text()
    # A "fixtures" path component keeps the bulk/ scoping (see
    # module_relpath); a bare tmp dir would fall back to the basename.
    orig = tmp_path / "fixtures" / "bulk" / "w.py"
    orig.parent.mkdir(parents=True)
    orig.write_text(source)
    baseline = tmp_path / "b.json"
    baseline.write_text(baseline_document(lint_paths([str(orig)])))
    orig.write_text("# a comment pushing every line down\n" + source)
    from repro.analysis.amlint import apply_baseline
    report = lint_paths([str(orig)])
    filtered, waived = apply_baseline(report,
                                      load_baseline(str(baseline)))
    assert filtered.findings == []
    assert waived == len(report.findings) > 0


def test_missing_baseline_is_empty_and_bad_baseline_raises(tmp_path):
    from repro.analysis.amlint import load_baseline
    assert load_baseline(str(tmp_path / "nope.json")) == set()
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError):
        load_baseline(str(bad))


def test_repo_source_tree_is_lint_clean():
    """The acceptance bar: ``repro lint src/`` exits 0 on this tree."""
    report = lint_paths([str(REPO_SRC)])
    assert report.errors == [], format_findings(report)
    assert report.exit_code == 0
