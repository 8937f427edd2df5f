"""Tree structural reports and JSON/CSV export."""

import csv
import io
import json

import numpy as np
import pytest

from repro.amdb import (
    compute_losses,
    format_tree_report,
    profile_workload,
    report_to_dict,
    reports_to_csv,
    reports_to_json,
    tree_report,
)
from repro.bulk import bulk_load

from tests.conftest import make_ext


@pytest.fixture(scope="module")
def tree_and_reports():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(4000, 3))
    trees = {m: bulk_load(make_ext(m, 3), pts, page_size=2048)
             for m in ("rtree", "xjb")}
    reports = {}
    for m, tree in trees.items():
        prof = profile_workload(tree, pts[:8], 40)
        reports[m] = compute_losses(prof, keys=pts,
                                    rids=list(range(len(pts))))
    return trees, reports


class TestTreeReport:
    def test_level_totals(self, tree_and_reports):
        trees, _ = tree_and_reports
        tree = trees["rtree"]
        report = tree_report(tree)
        assert report.total_nodes == tree.num_nodes()
        leaf = next(l for l in report.levels if l.level == 0)
        assert leaf.entries == tree.size
        assert 0.0 < leaf.mean_fill <= 1.0

    def test_root_slack(self, tree_and_reports):
        trees, _ = tree_and_reports
        report = tree_report(trees["rtree"])
        assert 0.0 <= report.root_slack < 1.0

    def test_str_siblings_barely_overlap(self, tree_and_reports):
        trees, _ = tree_and_reports
        report = tree_report(trees["rtree"])
        level1 = next(l for l in report.levels if l.level == 1)
        assert level1.sibling_overlap < 0.25

    def test_levels_without_footprints_report_nan_overlap(self):
        """An SS-tree has no rect footprints, so its inner levels have
        no sibling overlap to average: NaN, with no RuntimeWarning."""
        pts = np.random.default_rng(1).normal(size=(600, 2))
        report = tree_report(bulk_load(make_ext("sstree", 2), pts,
                                       page_size=1024))
        inner = [lv for lv in report.levels if lv.level > 0]
        assert inner and all(np.isnan(lv.sibling_overlap) for lv in inner)

    def test_formatting(self, tree_and_reports):
        trees, _ = tree_and_reports
        text = format_tree_report(tree_report(trees["xjb"]))
        assert "xjb" in text
        assert "slack" in text
        assert "level" in text


class TestExport:
    def test_dict_roundtrips_through_json(self, tree_and_reports):
        _, reports = tree_and_reports
        d = report_to_dict(reports["rtree"])
        assert json.loads(json.dumps(d)) == d
        assert d["method"] == "rtree"
        assert d["total_ios"] == d["total_leaf_ios"] + d["total_inner_ios"]

    def test_per_query_payload_optional(self, tree_and_reports):
        _, reports = tree_and_reports
        slim = report_to_dict(reports["rtree"])
        fat = report_to_dict(reports["rtree"], include_per_query=True)
        assert "per_query" not in slim
        assert len(fat["per_query"]["leaf_ios"]) == 8

    def test_json_document(self, tree_and_reports):
        _, reports = tree_and_reports
        doc = json.loads(reports_to_json(reports))
        assert set(doc) == {"rtree", "xjb"}
        assert doc["xjb"]["height"] >= doc["rtree"]["height"]

    def test_csv_parses_back(self, tree_and_reports):
        _, reports = tree_and_reports
        text = reports_to_csv(list(reports.values()))
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 2
        assert {r["method"] for r in rows} == {"rtree", "xjb"}
        for row in rows:
            assert int(row["total_ios"]) == int(row["total_leaf_ios"]) \
                + int(row["total_inner_ios"])
