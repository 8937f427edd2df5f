"""JB extension: full jagged-bites predicates (section 5.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.jbtree import JBExtension

from tests.gist.oracle import (brute_canonical, pred_object, row_for_keys,
                               row_for_rows)


def _pred(ext, keys):
    """The bitten rect a leaf holding ``keys`` is bounded by, and its
    row."""
    row = row_for_keys(ext, keys)
    return pred_object(ext, row), row


@pytest.fixture
def ext():
    return JBExtension(2)


class TestPredicates:
    def test_pred_for_keys_conservative(self, ext):
        rng = np.random.default_rng(0)
        keys = rng.normal(size=(50, 2))
        pred, _ = _pred(ext, keys)
        assert pred.contains_points(keys).all()

    def test_diagonal_data_gets_bites(self, ext):
        keys = np.array([[float(i), float(i)] for i in range(20)])
        pred, _ = _pred(ext, keys)
        assert len(pred.bites) >= 2
        assert pred.volume() < 0.6 * pred.rect.volume()

    def test_inner_pred_covers_children(self, ext):
        rng = np.random.default_rng(1)
        children = [row_for_keys(ext, rng.normal(size=(10, 2)) + off)
                    for off in (0.0, 5.0, 10.0)]
        parent = row_for_rows(ext, children)
        for child in children:
            assert ext.covers(parent, child)

    def test_refine_dist_tightens(self, ext):
        keys = np.array([[float(i), float(i)] for i in range(20)])
        pred, row = _pred(ext, keys)
        q = np.array([22.0, -3.0])
        cheap = pred.rect.min_dist(q)
        tight = ext.refine_dist(row, q, cheap)
        assert tight > cheap
        true_min = np.sqrt(((keys - q) ** 2).sum(axis=1)).min()
        assert tight <= true_min + 1e-9

    def test_bite_methods_all_conservative(self):
        rng = np.random.default_rng(2)
        keys = rng.normal(size=(60, 3))
        for method in ("nibble", "sweep", "probe"):
            ext = JBExtension(3, bite_method=method)
            pred, _ = _pred(ext, keys)
            assert pred.contains_points(keys).all()

    def test_unknown_bite_method_rejected(self):
        for method in ("bogus", "both"):
            with pytest.raises(ValueError,
                               match="'nibble', 'sweep', 'probe'"):
                JBExtension(2, bite_method=method)


class TestConsistency:
    def test_range_search_exact_through_tree(self):
        from repro.bulk import bulk_load
        rng = np.random.default_rng(3)
        pts = np.stack([rng.uniform(0, 50, 3000),
                        rng.uniform(0, 50, 3000)], axis=1)
        pts[:, 1] = pts[:, 0] + rng.normal(scale=1.0, size=3000)
        tree = bulk_load(JBExtension(2), pts, page_size=2048)
        center = np.array([15.0, 15.0])
        k = int((np.sqrt(((pts - center) ** 2).sum(axis=1)) <= 5.0).sum())
        assert tree.knn(center, k) == brute_canonical(
            pts, np.arange(len(pts)), center, k)


class TestProperties:
    @given(hnp.arrays(np.float64, st.tuples(st.integers(3, 40), st.just(2)),
                      elements=st.floats(-100, 100, width=32)))
    @settings(max_examples=40, deadline=None)
    def test_refined_dist_never_exceeds_data_dist(self, keys):
        ext = JBExtension(2)
        pred, row = _pred(ext, keys[1:])
        q = keys[0] * 1.1 + 3.0
        tight = ext.refine_dist(row, q, pred.rect.min_dist(q))
        true_min = np.sqrt(((keys[1:] - q) ** 2).sum(axis=1)).min()
        assert tight <= true_min + 1e-7
