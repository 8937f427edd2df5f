"""``contains_node``: the DELETE descent's one containment kernel.

Hypothesis differential: for every family, on an inner node built from
predicate rows and on the same node decoded from its page image,
``contains_node(node, p)`` must equal the per-entry loop it replaced:
each row decoded into its geometry objects, asked ``contains_point``
(:func:`tests.gist.oracle.object_contains`).  Keys sit on a small
integer grid, so probes on an MBR face or a bite's closed and open
faces are common, and every bite's faces are probed outright.

Plus the point of the kernel: a delete that does not underflow, on a
block-backed XJB tree, builds no predicate object at all.
"""

import itertools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gist.tree import GiST
from repro.storage.codecs import LeafBodyCodec, NodeCodec
from repro.storage.page import PAGE_HEADER_SIZE

from tests.conftest import ALL_METHODS, make_ext
from tests.geometry.bite_oracle import BittenRect
from tests.gist.oracle import (footprint, inner_node, object_contains,
                               pred_objects, row_for_keys)


def _block_backed(ext, node):
    """``node`` round-tripped through its page image."""
    probe = GiST(ext)
    size = PAGE_HEADER_SIZE + len(node) * probe.index_codec.size
    codec = NodeCodec(-(-size // 64) * 64, LeafBodyCodec(ext.dim),
                      probe.index_codec)
    decoded = codec.decode_node(codec.encode_nodes([node])[0], node.page_id)
    assert decoded.pred_block() is not None
    return decoded


def _face_probes(ext, preds):
    """Points on every footprint face and every bite's faces."""
    probes = []
    for pred in preds:
        boxes = []
        if isinstance(pred, BittenRect):
            boxes.append((pred.rect.lo, pred.rect.hi))
            boxes.extend((b.lo, b.hi) for b in pred.bites)
        elif hasattr(ext, "block_bounds"):
            rect = footprint(pred)
            boxes.append((rect.lo, rect.hi))
        for lo, hi in boxes:
            mid = (lo + hi) / 2.0
            probes.extend([lo, hi, mid])
            for d in range(ext.dim):
                for face in (lo[d], hi[d]):
                    point = mid.copy()
                    point[d] = face
                    probes.append(point)
    return probes


def _case(method, dim, seed, entries):
    """An inner node of ``entries`` predicates carved over grid keys,
    and probes: the keys and random grid points around them."""
    rng = np.random.default_rng(seed)
    ext = make_ext(method, dim)
    groups = [rng.integers(0, 4, size=(int(rng.integers(1, 9)), dim))
              .astype(np.float64) for _ in range(entries)]
    node = inner_node([row_for_keys(ext, keys) for keys in groups],
                      page_id=7)
    probes = list(np.concatenate(groups))
    probes += list(rng.integers(-1, 5, size=(8, dim)).astype(np.float64))
    return ext, node, probes


@st.composite
def nodes(draw):
    return _case(draw(st.sampled_from(ALL_METHODS)), draw(st.integers(1, 6)),
                 draw(st.integers(0, 2 ** 16)), draw(st.integers(1, 6)))


@given(nodes())
@example(_case("jb", 2, 0, 4))
@example(_case("xjb", 3, 0, 4))
@settings(max_examples=100, deadline=None)
def test_contains_node_matches_the_per_entry_loop(case):
    ext, node, probes = case
    decoded = _block_backed(ext, node)
    probes = probes + _face_probes(ext, pred_objects(ext, node))
    for form, point in itertools.product((node, decoded), probes):
        want = [object_contains(pred, point)
                for pred in pred_objects(ext, form)]
        got = ext.contains_node(form, point)
        assert got.dtype == bool and got.tolist() == want, (form, point)


def test_a_non_underflowing_delete_decodes_no_predicate(tmp_path,
                                                        monkeypatch):
    from repro.bulk import bulk_load
    from repro.gist.mutable import MutableTree
    from repro.core.jbtree import JBExtension
    from repro.gist.persist import save_tree

    keys = np.random.default_rng(3).random((3000, 3))
    path = str(tmp_path / "x.gist")
    save_tree(bulk_load(make_ext("xjb", 3), keys, page_size=1024,
                        fill=0.8), path)
    decoded = []
    row_bites = JBExtension._row_bites
    monkeypatch.setattr(JBExtension, "_row_bites",
                        lambda self, row: decoded.append(1)
                        or row_bites(self, row))
    with MutableTree.open(path) as mt:
        tree = mt.tree
        assert tree.height >= 3
        assert tree._peek(tree.root_id).pred_block() is not None
        leaf = next(n for n in tree.leaf_nodes()
                    if len(n) > tree.min_entries(0))
        rid = int(leaf.rid_array()[0])
        decoded.clear()
        assert mt.delete(keys[rid], rid)
        assert decoded == []
        assert not mt.delete(keys[rid], rid)
