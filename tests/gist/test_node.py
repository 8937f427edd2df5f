"""Node state (its page's arrays), row mutators and per-node caches."""

import numpy as np
import pytest

from repro.gist import Node


def _leaf(n=5):
    keys = np.stack([np.arange(float(n)), np.zeros(n)], axis=1)
    return Node.leaf_from_arrays(1, keys, np.arange(n, dtype=np.int64))


def _inner(n=3):
    block = np.array([[float(i), 0.0, i + 1.0, 1.0] for i in range(n)])
    return Node.inner_from_block(2, 1, block,
                                 np.arange(n, dtype=np.int64) + 10)


class TestAccessors:
    def test_leaf_properties(self):
        node = _leaf()
        assert node.is_leaf and len(node) == 5
        assert node.rids() == [0, 1, 2, 3, 4]
        assert node.keys_array().shape == (5, 2)
        assert node.rows() is node.keys_array()
        assert node.ids() is node.rid_array()

    def test_inner_properties(self):
        node = _inner()
        assert not node.is_leaf
        assert node.children() == [10, 11, 12]
        assert node.pred_block().shape == (3, 4)
        assert node.rows() is node.pred_block()
        assert node.ids() is node.child_array()

    def test_wrong_level_accessors_raise(self):
        with pytest.raises(ValueError):
            _inner().keys_array()
        with pytest.raises(ValueError):
            _inner().rids()
        with pytest.raises(ValueError):
            _leaf().pred_block()
        with pytest.raises(ValueError):
            _leaf().children()

    def test_find_child_index(self):
        node = _inner()
        assert node.find_child_index(11) == 1
        with pytest.raises(KeyError):
            node.find_child_index(99)


class TestCacheInvalidation:
    def test_keys_array_cached(self):
        node = _leaf()
        a = node.keys_array()
        assert node.keys_array() is a

    def test_add_entry_invalidates(self):
        node = _leaf()
        node.cache["anything"] = object()
        node.append(np.array([9.0, 9.0]), 99)
        assert node.cache == {}
        assert node.keys_array().shape == (6, 2)
        assert node.rids()[-1] == 99

    def test_remove_entry_invalidates(self):
        node = _leaf()
        node.cache["anything"] = object()
        node.remove(0)
        assert node.cache == {}
        assert node.keys_array().shape == (4, 2)
        assert node.rids() == [1, 2, 3, 4]

    def test_replace_entry_invalidates(self):
        node = _inner()
        node.cache["anything"] = object()
        node.set_row(2, np.array([7.0, 7.0, 8.0, 8.0]))
        assert node.cache == {}
        assert node.pred_block()[2].tolist() == [7.0, 7.0, 8.0, 8.0]
        assert node.children() == [10, 11, 12]     # the id stays

    def test_set_entries_invalidates(self):
        """Keeping an index subset (a split's half) keeps that order."""
        node = _leaf()
        node.cache["x"] = 1
        node.keep([3, 0])
        assert node.cache == {}
        assert node.rids() == [3, 0]
        assert node.keys_array()[:, 0].tolist() == [3.0, 0.0]

    def test_extension_caches_rebuild_after_mutation(self):
        from repro.ams import RTreeExtension
        ext = RTreeExtension(2)
        node = _inner()
        q = np.array([10.0, 0.5])
        before = ext.min_dists_node(node, q)
        node.append(np.array([9.5, 0.0, 10.5, 1.0]), 42)
        after = ext.min_dists_node(node, q)
        assert len(after) == len(before) + 1
        assert after[-1] == 0.0


class TestLazyLeaf:
    """`Node.leaf_from_arrays`: a leaf is the arrays it was given."""

    def _lazy(self, n=6):
        keys = np.arange(2.0 * n).reshape(n, 2)
        rids = np.arange(n, dtype=np.int64) + 50
        return Node.leaf_from_arrays(9, keys, rids), keys, rids

    def test_len_without_materializing(self):
        node, keys, _ = self._lazy()
        assert len(node) == len(keys)
        assert node.cache == {}

    def test_array_views_are_the_arrays_given(self):
        node, keys, rids = self._lazy()
        assert node.keys_array() is keys
        assert node.rid_array() is rids
        assert node.rids() == rids.tolist()
        assert node.cache == {}

    def test_entries_materialize_on_access(self):
        """A quantized leaf's float keys are built on first access and
        kept until the node mutates."""
        from repro.storage.codecs import QuantizedLeafCodec
        keys = np.random.default_rng(0).random((6, 2))
        codec = QuantizedLeafCodec(2)
        block, rids = codec.decode_block(
            codec.encode_block(keys, np.arange(6)), 6)
        node = Node.leaf_from_arrays(9, block, rids)
        assert node.cache == {}
        rows = node.rows()
        assert node.cache["keys"] is rows and node.keys_array() is rows
        assert np.abs(rows - keys).max() <= block.half_widths().max() + 1e-12
        node.append(keys[0], 6)
        assert "keys" not in node.cache and node.quantized_block() is None

    def test_materialized_equals_eager_construction(self):
        node, keys, rids = self._lazy()
        eager = Node(9, 0)
        for key, rid in zip(keys, rids):
            eager.append(key, int(rid))
        assert eager.keys_array().tobytes() == node.keys_array().tobytes()
        assert eager.rid_array().tobytes() == node.rid_array().tobytes()

    def test_mutation_works_on_lazy_node(self):
        node, keys, rids = self._lazy()
        node.append(np.array([99.0, 99.0]), 999)
        assert len(node) == len(rids) + 1
        assert node.rids() == rids.tolist() + [999]
        # new arrays, not an edit of the ones the node was given
        assert node.rid_array().tolist() == rids.tolist() + [999]
        assert node.keys_array()[-1].tolist() == [99.0, 99.0]
        assert np.array_equal(keys, np.arange(12.0).reshape(6, 2))
        assert len(rids) == 6

    def test_rid_array_builds_from_eager_entries(self):
        node = Node(1, 0)
        for i in range(4):
            node.append(np.array([float(i), 0.0]), i)
        assert node.rid_array().tolist() == [0, 1, 2, 3]
        assert node.rid_array().dtype == np.int64


class TestLazyInner:
    """`Node.inner_from_block`: an inner node is its page's block."""

    def _lazy(self):
        from repro.storage.codecs import (InnerBodyCodec, LeafBodyCodec,
                                          NodeCodec, RectCodec)
        eager = _inner(4)
        codec = NodeCodec(1024, LeafBodyCodec(2),
                          InnerBodyCodec(RectCodec(2)))
        node = codec.decode_node(codec.encode_nodes([eager])[0], 2)
        return node, eager

    def test_len_children_and_block_without_materializing(self):
        node, eager = self._lazy()
        assert len(node) == len(eager)
        assert node.children() == eager.children()
        assert node.child_array().dtype == np.int64
        assert node.pred_block().shape == (4, 4)
        assert node.pred_block().tobytes() == eager.pred_block().tobytes()
        assert node.cache == {}

    def test_mutation_edits_a_copy_of_the_block(self):
        """Each mutator keeps the node block-backed: it edits copies of
        the block and child arrays, the edited row is the row installed,
        and the page image the node was decoded from never changes."""
        from repro.storage.codecs import (InnerBodyCodec, LeafBodyCodec,
                                          NodeCodec, RectCodec)
        codec = NodeCodec(1024, LeafBodyCodec(2),
                          InnerBodyCodec(RectCodec(2)))
        image = codec.encode_nodes([_inner(4)])[0]
        before = image.tobytes()
        new = np.array([8.0, 0.0, 9.0, 1.0])
        for mutate, row, children in (
                (lambda n: n.append(new, 99), 4, [10, 11, 12, 13, 99]),
                (lambda n: n.set_row(1, new), 1, [10, 11, 12, 13]),
                (lambda n: n.remove(1), None, [10, 12, 13]),
                (lambda n: n.keep([3, 1]), None, [13, 11])):
            node = codec.decode_node(image, 2)
            kept = node.pred_block()[2].copy()
            mutate(node)
            assert node.children() == children
            assert node.cache == {}
            if row is not None:
                assert node.pred_block()[row].tolist() == new.tolist()
            if 12 in children:
                assert node.pred_block()[children.index(12)].tobytes() \
                    == kept.tobytes()
            assert image.tobytes() == before

    def test_eager_nodes_answer_the_same_accessors(self):
        """A node built row by row holds the same arrays a page decode
        would."""
        built = Node(2, 1)
        for row, child in zip(_inner(3).pred_block(), [10, 11, 12]):
            built.append(row, child)
        node, _ = self._lazy()
        assert built.pred_block().tobytes() == node.pred_block()[:3].tobytes()
        assert built.child_array().tolist() == [10, 11, 12]
