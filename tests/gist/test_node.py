"""Node state (its page's arrays), mutators and per-node caches."""

import numpy as np
import pytest

from repro.geometry import Rect
from repro.gist import IndexEntry, LeafEntry, Node
from repro.storage.codecs import RectCodec


def _leaf(n=5):
    entries = [LeafEntry(np.array([float(i), 0.0]), i) for i in range(n)]
    return Node.from_entries(1, 0, entries)


def _inner(n=3):
    entries = [IndexEntry(Rect([float(i), 0.0], [i + 1.0, 1.0]), i + 10)
               for i in range(n)]
    return Node.from_entries(2, 1, entries, RectCodec(2))


class TestAccessors:
    def test_leaf_properties(self):
        node = _leaf()
        assert node.is_leaf and len(node) == 5
        assert node.rids() == [0, 1, 2, 3, 4]
        assert node.keys_array().shape == (5, 2)

    def test_inner_properties(self):
        node = _inner()
        assert not node.is_leaf
        assert node.children() == [10, 11, 12]
        assert len(node.preds()) == 3

    def test_wrong_level_accessors_raise(self):
        with pytest.raises(ValueError):
            _inner().keys_array()
        with pytest.raises(ValueError):
            _inner().rids()
        with pytest.raises(ValueError):
            _leaf().preds()
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
        node.keys_array()
        node.add_entry(LeafEntry(np.array([9.0, 9.0]), 99))
        assert node.keys_array().shape == (6, 2)

    def test_remove_entry_invalidates(self):
        node = _leaf()
        node.keys_array()
        node.remove_entry_at(0)
        assert node.keys_array().shape == (4, 2)
        assert node.rids() == [1, 2, 3, 4]

    def test_replace_entry_invalidates(self):
        node = _leaf()
        node.cache["anything"] = object()
        node.replace_entry(2, LeafEntry(np.array([7.0, 7.0]), 77))
        assert node.cache == {}
        assert node.rids()[2] == 77

    def test_set_entries_invalidates(self):
        node = _leaf()
        node.cache["x"] = 1
        node.set_entries([LeafEntry(np.zeros(2), 0)])
        assert node.cache == {}
        assert len(node) == 1

    def test_extension_caches_rebuild_after_mutation(self):
        from repro.ams import RTreeExtension
        ext = RTreeExtension(2)
        node = _inner()
        q = np.array([10.0, 0.5])
        before = ext.min_dists_node(node, q)
        node.add_entry(IndexEntry(Rect([9.5, 0.0], [10.5, 1.0]), 42))
        after = ext.min_dists_node(node, q)
        assert len(after) == len(before) + 1
        assert after[-1] == 0.0


class TestLazyLeaf:
    """`Node.leaf_from_arrays`: array-backed leaves defer entry objects."""

    def _lazy(self, n=6):
        keys = np.arange(2.0 * n).reshape(n, 2)
        rids = np.arange(n, dtype=np.int64) + 50
        return Node.leaf_from_arrays(9, keys, rids), keys, rids

    def test_len_without_materializing(self):
        node, keys, _ = self._lazy()
        assert len(node) == len(keys)
        assert "entries" not in node.cache  # still lazy

    def test_array_views_are_the_arrays_given(self):
        node, keys, rids = self._lazy()
        assert node.keys_array() is keys
        assert node.rid_array() is rids
        assert node.rids() == rids.tolist()
        assert node.cache == {}

    def test_entries_materialize_on_access(self):
        node, keys, rids = self._lazy()
        entries = node.entries
        assert [e.rid for e in entries] == rids.tolist()
        assert all(np.array_equal(e.key, k)
                   for e, k in zip(entries, keys))
        assert node.entries is entries  # materialized once
        with pytest.raises(TypeError):
            entries[0] = entries[1]      # a view: mutators change nodes

    def test_materialized_equals_eager_construction(self):
        node, keys, rids = self._lazy()
        eager = Node.from_entries(9, 0, [LeafEntry(k, int(r))
                                         for k, r in zip(keys, rids)])
        assert [tuple(e.key) for e in node.entries] \
            == [tuple(e.key) for e in eager.entries]
        assert [e.rid for e in node.entries] \
            == [e.rid for e in eager.entries]
        assert np.array_equal(eager.keys_array(), keys)

    def test_mutation_works_on_lazy_node(self):
        node, keys, rids = self._lazy()
        node.add_entry(LeafEntry(np.array([99.0, 99.0]), 999))
        assert len(node) == len(rids) + 1
        assert node.rids() == rids.tolist() + [999]
        # new arrays, not an edit of the ones the node was given
        assert node.rid_array().tolist() == rids.tolist() + [999]
        assert node.keys_array()[-1].tolist() == [99.0, 99.0]
        assert np.array_equal(keys, np.arange(12.0).reshape(6, 2))
        assert len(rids) == 6

    def test_rid_array_builds_from_eager_entries(self):
        node = _leaf(4)
        assert node.rid_array().tolist() == [0, 1, 2, 3]
        assert node.rid_array().dtype == np.int64


class TestLazyInner:
    """`Node.inner_from_block`: block-backed inner nodes defer predicate
    objects, one at a time."""

    def _lazy(self):
        from repro.storage.codecs import (IndexEntryCodec, LeafEntryCodec,
                                          NodeCodec, RectCodec)
        eager = _inner(4)
        codec = NodeCodec(1024, LeafEntryCodec(2),
                          IndexEntryCodec(RectCodec(2)))
        node = codec.decode_node(codec.encode_nodes([eager])[0], 2)
        return node, eager

    def test_len_children_and_block_without_materializing(self):
        node, eager = self._lazy()
        assert len(node) == len(eager)
        assert node.children() == eager.children()
        assert node.child_array().dtype == np.int64
        assert node.pred_block().shape == (4, 4)
        assert node.cache == {} and node._preds == {}

    def test_pred_at_builds_only_the_entry_asked_for(self):
        node, eager = self._lazy()
        pred = node.pred_at(2)
        assert pred == eager.entries[2].pred
        assert node.pred_at(2) is pred
        assert list(node._preds) == [2]
        assert "entries" not in node.cache

    def test_entries_materialize_equal_to_eager_and_reuse_preds(self):
        node, eager = self._lazy()
        pred = node.pred_at(0)
        assert [tuple(e) for e in node.entries] \
            == [tuple(e) for e in eager.entries]
        assert node.entries[0].pred is pred
        assert node.pred_at(3) is node.entries[3].pred

    def test_mutation_edits_a_copy_of_the_block(self):
        """Each mutator keeps the node block-backed: it edits copies of
        the block and child arrays, the edited row is the codec's
        encoding of the installed predicate, ``pred_at`` returns that
        object (and shifts the ones already built), and the page image
        the node was decoded from never changes."""
        from repro.storage.codecs import (IndexEntryCodec, LeafEntryCodec,
                                          NodeCodec, RectCodec)
        codec = NodeCodec(1024, LeafEntryCodec(2),
                          IndexEntryCodec(RectCodec(2)))
        image = codec.encode_nodes([_inner(4)])[0]
        before = image.tobytes()
        rect_codec = codec.index_codec.pred_codec
        new = IndexEntry(Rect([8.0, 0.0], [9.0, 1.0]), 99)
        for mutate, row, children in (
                (lambda n: n.add_entry(new), 4, [10, 11, 12, 13, 99]),
                (lambda n: n.replace_entry(1, new), 1, [10, 99, 12, 13]),
                (lambda n: n.remove_entry_at(1), None, [10, 12, 13])):
            node = codec.decode_node(image, 2)
            built = node.pred_at(2)
            mutate(node)
            assert node.children() == children
            assert node.cache == {}
            if row is not None:
                assert node.pred_block()[row].tobytes() \
                    == rect_codec.encode(new.pred)
                assert node.pred_at(row) is new.pred
            assert node.pred_at(children.index(12)) is built
            assert image.tobytes() == before
            assert [e.child for e in node.entries] == children

    def test_eager_nodes_answer_the_same_accessors(self):
        """A node built from entry objects holds the same arrays a page
        decode would, and hands back the very predicates it was given."""
        eager = _inner(3)
        node, _ = self._lazy()
        assert eager.pred_block().tobytes() == node.pred_block()[:3].tobytes()
        assert eager.pred_at(1) is eager.entries[1].pred
        assert eager.child_array().tolist() == [10, 11, 12]
