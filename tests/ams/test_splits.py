"""Split heuristics: both sides valid, nothing lost, minimums met."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.ams.splits import quadratic_split, variance_split


def _split(pts, min_entries):
    """The quadratic split of points: each is its own box."""
    a, b = quadratic_split(pts, pts, min_entries)
    return [int(i) for i in a], [int(i) for i in b]


class TestQuadraticSplit:
    def test_separated_clusters_split_cleanly(self):
        left = np.zeros((5, 2)) + [0.0, 0.0]
        right = np.zeros((5, 2)) + [100.0, 100.0]
        pts = np.concatenate([left, right])
        a, b = _split(pts, 2)
        groups = {tuple(sorted(a)), tuple(sorted(b))}
        assert groups == {(0, 1, 2, 3, 4), (5, 6, 7, 8, 9)}

    def test_split_of_two(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        a, b = _split(pts, 1)
        assert sorted(a + b) == [0, 1]
        assert len(a) == len(b) == 1

    def test_single_entry_rejected(self):
        with pytest.raises(ValueError):
            _split(np.zeros((1, 2)), 1)

    @given(hnp.arrays(np.float64, st.tuples(st.integers(4, 40), st.just(3)),
                      elements=st.floats(-50, 50, width=32)),
           st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_partition_properties(self, pts, min_entries):
        entries = list(range(len(pts)))
        a, b = _split(pts, min_entries)
        assert sorted(a + b) == entries
        floor = min(min_entries, len(pts) // 2)
        assert len(a) >= floor and len(b) >= floor


class TestVarianceSplit:
    def test_splits_along_max_variance_axis(self):
        pts = np.array([[float(x), 0.0] for x in range(10)])
        a, b = variance_split(pts, 2)
        # Split must separate low-x from high-x points.
        assert max(a) < min(b) or max(b) < min(a)

    def test_single_entry_rejected(self):
        with pytest.raises(ValueError):
            variance_split(np.zeros((1, 2)), 1)

    @given(hnp.arrays(np.float64, st.tuples(st.integers(4, 40), st.just(2)),
                      elements=st.floats(-50, 50, width=32)),
           st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_partition_properties(self, pts, min_entries):
        entries = list(range(len(pts)))
        a, b = variance_split(pts, min_entries)
        assert sorted(a.tolist() + b.tolist()) == entries
        floor = min(min_entries, len(pts) // 2)
        assert len(a) >= floor and len(b) >= floor
