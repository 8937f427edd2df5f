"""The validator must actually catch corruption."""

import numpy as np
import pytest

from repro.bulk import bulk_load
from repro.gist import validate_tree
from repro.gist.validate import TreeInvariantError

from tests.conftest import make_ext


def _tree(n=800):
    pts = np.random.default_rng(0).normal(size=(n, 2))
    return bulk_load(make_ext("rtree", 2), pts, page_size=2048), pts


class TestDetection:
    def test_clean_tree_passes(self):
        tree, _ = _tree()
        validate_tree(tree, expected_size=800)

    def test_shrunken_bp_detected(self):
        tree, _ = _tree()
        root = tree._peek(tree.root_id)
        root.set_row(0, root.pred_block()[0] + 1e6)   # moved far off
        tree.store.write(root)
        with pytest.raises(TreeInvariantError):
            validate_tree(tree)

    def test_duplicate_rid_detected(self):
        tree, pts = _tree()
        leaf = next(tree.leaf_nodes())
        leaf.append(leaf.keys_array()[0], leaf.rids()[0])
        tree.store.write(leaf)
        tree.size += 1
        with pytest.raises(TreeInvariantError):
            validate_tree(tree)

    def test_size_mismatch_detected(self):
        tree, _ = _tree()
        tree.size += 1
        with pytest.raises(TreeInvariantError):
            validate_tree(tree)

    def test_expected_size_mismatch_detected(self):
        tree, _ = _tree()
        with pytest.raises(TreeInvariantError):
            validate_tree(tree, expected_size=1)

    def test_height_mismatch_detected(self):
        tree, _ = _tree()
        tree.height += 1
        with pytest.raises(TreeInvariantError):
            validate_tree(tree)

    def test_empty_tree_validates(self):
        tree = bulk_load(make_ext("rtree", 2), np.empty((0, 2)))
        validate_tree(tree, expected_size=0)
