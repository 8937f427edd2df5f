"""The gap split for bitten trees (future work #1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.bulk import insertion_load
from repro.core.jb_split import gap_split
from repro.core.jbtree import JBExtension
from repro.core.xjb import XJBExtension
from repro.gist import validate_tree

from tests.gist.oracle import pred_object, row_for_keys


def _split(pts, min_entries):
    """The gap split of points, each its own box, as index lists."""
    a, b = gap_split(pts, pts, min_entries)
    return [int(i) for i in a], [int(i) for i in b]


class TestGapSplit:
    def test_cuts_at_the_obvious_void(self):
        xs = np.concatenate([np.linspace(0, 1, 8),
                             np.linspace(10, 11, 8)])
        pts = np.stack([xs, np.zeros(16)], axis=1)
        a, b = _split(pts, 3)
        groups = {tuple(sorted(a)), tuple(sorted(b))}
        assert groups == {tuple(range(8)), tuple(range(8, 16))}

    def test_respects_min_entries(self):
        # The biggest gap is after one element; min fill forbids it.
        xs = np.array([0.0, 100.0, 101.0, 102.0, 103.0, 104.0])
        pts = np.stack([xs, np.zeros(6)], axis=1)
        a, b = _split(pts, 2)
        assert min(len(a), len(b)) >= 2

    def test_falls_back_without_gaps(self):
        # Identical points: no gap anywhere -> quadratic fallback.
        pts = np.zeros((10, 2))
        a, b = _split(pts, 2)
        assert sorted(a + b) == list(range(10))
        assert min(len(a), len(b)) >= 2

    def test_single_entry_rejected(self):
        with pytest.raises(ValueError):
            _split(np.zeros((1, 2)), 1)

    @given(hnp.arrays(np.float64, st.tuples(st.integers(4, 40),
                                            st.just(3)),
                      elements=st.floats(-100, 100, width=32)),
           st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_partition_properties(self, pts, min_entries):
        entries = list(range(len(pts)))
        a, b = _split(pts, min_entries)
        assert sorted(a + b) == entries
        floor = min(min_entries, len(pts) // 2)
        assert len(a) >= floor and len(b) >= floor


class TestSplitMethodOnTrees:
    def test_insertion_with_gap_split_valid_and_exact(self):
        rng = np.random.default_rng(0)
        pts = np.concatenate([
            rng.normal(size=(400, 2)) * 0.3 + off
            for off in (0.0, 5.0, 10.0)])
        for cls in (JBExtension, XJBExtension):
            tree = insertion_load(cls(2), pts, page_size=2048,
                                  shuffle_seed=1)
            validate_tree(tree, expected_size=len(pts))
            q = pts[7]
            got = set(r for _, r in tree.knn(q, 15))
            d = np.sqrt(((pts - q) ** 2).sum(axis=1))
            want = set(np.argsort(d)[:15].tolist())
            dk = np.sort(d)[14]
            for rid in got ^ want:
                assert d[rid] == pytest.approx(dk)

    def test_gap_split_leaves_carvable_voids(self):
        """The point of the heuristic: more bite volume after splits."""
        rng = np.random.default_rng(1)
        pts = np.concatenate([
            rng.normal(size=(500, 2)) * 0.3 + off
            for off in (0.0, 4.0, 8.0, 12.0)])

        def mean_coverage(split_method):
            ext = JBExtension(2, split_method=split_method)
            tree = insertion_load(ext, pts, page_size=2048,
                                  shuffle_seed=2)
            fracs = [pred_object(ext, row_for_keys(ext, n.keys_array()))
                     .coverage_fraction(samples=500)
                     for n in tree.leaf_nodes() if len(n) > 3]
            return np.mean(fracs)

        # Gap splits should leave the predicates no fuller (usually
        # emptier) than quadratic splits.
        assert mean_coverage("gap") <= mean_coverage("quadratic") + 0.05

    def test_unknown_split_method_rejected(self):
        with pytest.raises(ValueError):
            JBExtension(2, split_method="psychic")

    def test_config_roundtrip(self, tmp_path):
        from repro.bulk import bulk_load
        from repro.gist.persist import load_tree, save_tree
        pts = np.random.default_rng(3).normal(size=(300, 2))
        tree = bulk_load(JBExtension(2, split_method="quadratic"), pts,
                         page_size=2048)
        path = str(tmp_path / "t.gist")
        save_tree(tree, path)
        reloaded = load_tree(path=path)
        assert reloaded.ext.split_method == "quadratic"