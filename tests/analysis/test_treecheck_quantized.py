"""treecheck on quantized (SQ8) indexes: clean passes, planted damage.

Quantized trees need their own verification vocabulary: reconstructed
keys may legitimately sit outside a parent predicate by up to the
quantization tolerance (that is *not* corruption), while a key escaping
by more than the cell bound — or RID offsets that stopped increasing —
can only come from damage.  The positive half builds every family with
SQ8 leaves and asserts clean reports through ``fsck --deep``; the
negative half plants each documented violation by corrupting saved
pages (resealing the CRC, so only the semantic phase can object).
"""

import struct

import numpy as np
import pytest

from repro.analysis import check_tree, deep_scrub
from repro.analysis.treecheck import (BP_KEY_ESCAPE, QUANT_BOUND_ESCAPE,
                                      RID_ORDER)
from repro.bulk import bulk_load
from repro.core.api import make_extension
from repro.gist.persist import load_tree, save_tree
from repro.storage.codecs import make_leaf_codec
from repro.storage.integrity import seal_image
from tests.analysis.test_treecheck import METHODS, inner_above_leaves

N_POINTS = 1_500
DIM = 4
PAGE_SIZE = 2_048


def build_sq8(method, tmp_path, n=N_POINTS, seed=3):
    keys = np.random.default_rng(seed).normal(size=(n, DIM))
    ext = make_extension(method, DIM)
    tree = bulk_load(ext, keys, page_size=PAGE_SIZE,
                     leaf_codec=make_leaf_codec("sq8", DIM))
    path = str(tmp_path / f"{method}-sq8.gist")
    save_tree(tree, path)
    return path


# ---------------------------------------------------------------------------
# clean quantized trees verify clean
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("method", METHODS)
def test_fresh_sq8_build_has_zero_violations(method, tmp_path):
    path = build_sq8(method, tmp_path)
    deep = deep_scrub(path)
    assert deep.clean, deep.format()
    tree = load_tree(path=path)
    assert tree.leaf_codec.lossy
    report = check_tree(tree, path=path)
    assert report.clean, report.format()
    assert report.keys_checked == N_POINTS


# ---------------------------------------------------------------------------
# a shrunk parent predicate is QUANT_BOUND_ESCAPE, not BP_KEY_ESCAPE
# ---------------------------------------------------------------------------

def test_shrunk_parent_over_quantized_leaf_uses_quant_code(tmp_path):
    path = build_sq8("rtree", tmp_path)
    tree = load_tree(path=path)
    node = inner_above_leaves(tree)
    child = node.children()[0]
    lo, hi = np.hsplit(node.pred_block()[0], 2)
    # Far beyond any quantization tolerance: the low corner jumps most
    # of the way to the top.
    node.set_row(0, np.concatenate([lo + 0.9 * (hi - lo), hi]))
    tree.store.write(node)

    report = check_tree(tree)
    assert QUANT_BOUND_ESCAPE in report.codes(), report.format()
    # The float64 code must NOT fire: on a lossy leaf the verifier has
    # to attribute the escape to the quantized vocabulary.
    assert BP_KEY_ESCAPE not in report.codes()
    escapes = [v for v in report.violations
               if v.code == QUANT_BOUND_ESCAPE]
    assert all(v.page_id == child for v in escapes)


# ---------------------------------------------------------------------------
# scrambled RID offsets in the page body are RID_ORDER
# ---------------------------------------------------------------------------

def _corrupt_leaf_rid_order(path, tree):
    """Swap the first and last u4 RID offsets of a multi-entry leaf in
    the saved file, resealing the page so only treecheck can object."""
    codec = tree.leaf_codec
    page_size = tree.page_size
    leaf = next(n for n in tree.leaf_nodes() if len(n) >= 2)
    count = len(leaf)
    with open(path, "rb") as fh:
        raw = bytearray(fh.read())
    start = leaf.page_id * page_size
    page = bytearray(raw[start:start + page_size])
    offs = 32 + codec.preamble + count * codec.dim  # PAGE_HEADER_SIZE
    first = bytes(page[offs:offs + 4])
    last_at = offs + (count - 1) * 4
    last = bytes(page[last_at:last_at + 4])
    assert first != last
    page[offs:offs + 4] = last
    page[last_at:last_at + 4] = first
    raw[start:start + page_size] = seal_image(bytes(page))
    with open(path, "wb") as fh:
        fh.write(raw)
    return leaf.page_id


def test_scrambled_rid_offsets_are_rid_order(tmp_path):
    path = build_sq8("rtree", tmp_path)
    page_id = _corrupt_leaf_rid_order(path, load_tree(path=path))

    deep = deep_scrub(path)
    # Every page still seals: the byte-level scrub stays clean and the
    # damage is only visible to the quantized-leaf semantic check.
    assert deep.scrub.clean, deep.format()
    assert not deep.clean
    assert RID_ORDER in deep.check.codes(), deep.format()
    hits = [v for v in deep.check.violations if v.code == RID_ORDER]
    assert [v.page_id for v in hits] == [page_id]


# ---------------------------------------------------------------------------
# a poisoned float cache escaping the declared cell bounds
# ---------------------------------------------------------------------------

def test_keys_beyond_cell_bounds_are_quant_escape(tmp_path, monkeypatch):
    """The cell-bound discipline: if a leaf's float view ever diverges
    from its declared affine box (the bug class a broken dequantize or
    kernel cache would produce), the verifier says so by page id."""
    from repro.storage.codecs import QuantizedKeys

    path = build_sq8("rtree", tmp_path)
    tree = load_tree(path=path)
    leaf = next(n for n in tree.leaf_nodes() if len(n) >= 2)
    target = leaf.quantized_block()
    assert target is not None
    dequantize = QuantizedKeys.dequantize

    def broken(block):
        """Dequantize the target leaf's block with its first key thrown
        far outside the declared box."""
        keys = dequantize(block)
        if np.array_equal(block.mins, target.mins) \
                and np.array_equal(block.maxs, target.maxs):
            keys = keys.copy()
            keys[0] = block.maxs + 2.0 * (block.maxs - block.mins) + 1.0
        return keys

    # every page the check reads is decoded afresh, through this
    monkeypatch.setattr(QuantizedKeys, "dequantize", broken)
    report = check_tree(tree)
    assert QUANT_BOUND_ESCAPE in report.codes(), report.format()
    assert any(v.page_id == leaf.page_id for v in report.violations
               if v.code == QUANT_BOUND_ESCAPE)


def test_cli_fsck_deep_flags_quantized_damage(tmp_path, capsys):
    import json

    from repro.cli import main

    path = build_sq8("xjb", tmp_path)
    assert main(["fsck", path, "--deep"]) == 0
    capsys.readouterr()

    _corrupt_leaf_rid_order(path, load_tree(path=path))
    artifact = tmp_path / "deep.json"
    assert main(["fsck", path, "--deep", "--json", str(artifact)]) == 1
    assert "BROKEN" in capsys.readouterr().out
    doc = json.loads(artifact.read_text())
    assert RID_ORDER in {v["code"] for v in doc["deep"]["violations"]}
