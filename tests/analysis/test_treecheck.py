"""treecheck: clean trees verify clean, corrupted trees are localized.

The positive half builds every AM family the paper compares and asserts
a zero-violation report, in memory and through ``repro fsck --deep`` on
the saved file.  The negative half plants the three corruptions the
design calls out — a parent MBR shrunk so stored keys escape, a data
point inside a JB bite, an orphaned leaf page — plus a few structural
mutations, and asserts the documented violation codes come back.
"""

import importlib
import json
import struct

import numpy as np
import pytest

from repro.analysis import check_tree, deep_scrub
from repro.analysis.treecheck import (BITE_NONEMPTY, BP_KEY_ESCAPE,
                                      NODE_UNDERFULL, PAGE_DUPLICATE,
                                      PAGE_ORPHAN, SIZE_MISMATCH)
from repro.bulk import bulk_load
from repro.core.api import make_extension
from repro.gist.node import Node
from repro.gist.persist import load_tree, save_tree
from repro.storage.codecs import NodeCodec
from repro.storage.errors import PageCorruptError
from repro.storage.integrity import FORMAT_EPOCH, crc32

#: one method per access-method family the paper compares.
METHODS = ["rtree", "sstree", "srtree", "amap", "jb", "xjb"]
N_POINTS = 1_200
DIM = 4
PAGE_SIZE = 2_048


def build_tree(method, n=N_POINTS, seed=7):
    keys = np.random.default_rng(seed).normal(size=(n, DIM))
    ext = make_extension(method, DIM)
    return bulk_load(ext, keys, page_size=PAGE_SIZE)


def _shrunk(row):
    """An MBR row ``[lo, hi]`` with ``lo`` pulled halfway to ``hi``."""
    lo, hi = np.hsplit(row, 2)
    return np.concatenate([lo + 0.5 * (hi - lo), hi])


def inner_above_leaves(tree):
    """The leftmost level-1 node (its children are leaves)."""
    node = tree._peek(tree.root_id)
    while node.level > 1:
        node = tree._peek(node.children()[0])
    assert node.level == 1, "tree too shallow for corruption tests"
    return node


# ---------------------------------------------------------------------------
# clean trees: zero violations, in memory and through fsck --deep
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("method", METHODS)
def test_fresh_build_has_zero_violations(method, tmp_path):
    tree = build_tree(method)
    report = check_tree(tree)
    assert report.clean, report.format()
    assert report.nodes_checked > 1
    assert report.keys_checked == N_POINTS
    if method in ("jb", "xjb"):
        assert report.bites_checked > 0, \
            "bitten predicates must actually be exercised"

    path = str(tmp_path / f"{method}.gist")
    save_tree(tree, path)
    deep = deep_scrub(path)
    assert deep.clean, deep.format()
    assert deep.check is not None and deep.check.codes() == set()


def test_report_carries_the_amdb_summary():
    tree = build_tree("rtree")
    report = check_tree(tree)
    assert report.tree_summary is not None
    assert report.tree_summary.levels
    assert "utilization" in report.format()


def test_only_page_damage_drops_the_amdb_summary(monkeypatch):
    """A damaged page may defeat the summary; any other error in it is
    a bug and must surface."""
    amdb = importlib.import_module("repro.amdb.tree_report")
    tree = build_tree("rtree")

    def fail(exc):
        def tree_report(_tree):
            raise exc
        return tree_report

    monkeypatch.setattr(amdb, "tree_report", fail(ValueError("bug")))
    with pytest.raises(ValueError, match="bug"):
        check_tree(tree)
    monkeypatch.setattr(amdb, "tree_report",
                        fail(PageCorruptError("bad page", page_id=3)))
    report = check_tree(tree)
    assert report.tree_summary is None
    assert report.clean


# ---------------------------------------------------------------------------
# corruption 1: a parent MBR shrunk so stored keys escape it
# ---------------------------------------------------------------------------

def test_shrunk_parent_mbr_is_bp_escape(tmp_path):
    tree = build_tree("rtree")
    node = inner_above_leaves(tree)
    child = node.children()[0]
    # The MBR's low corner is attained by some stored key in every
    # dimension; pulling it halfway up guarantees an escape.
    node.set_row(0, _shrunk(node.pred_block()[0]))
    tree.store.write(node)

    report = check_tree(tree)
    assert BP_KEY_ESCAPE in report.codes(), report.format()
    escapes = [v for v in report.violations if v.code == BP_KEY_ESCAPE]
    assert all(v.page_id == child for v in escapes)

    # The same damage survives a save/load round trip into fsck --deep:
    # every page still seals correctly, so only the semantic phase sees it.
    path = str(tmp_path / "shrunk.gist")
    save_tree(tree, path)
    deep = deep_scrub(path)
    assert deep.scrub.clean, deep.format()
    assert not deep.clean
    assert BP_KEY_ESCAPE in deep.check.codes()


# ---------------------------------------------------------------------------
# corruption 2: a data point inside a JB bite
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("method", ["jb", "xjb"])
def test_data_point_in_bite_is_flagged(method, tmp_path):
    tree = build_tree(method)
    node = inner_above_leaves(tree)
    child = node.children()[0]
    lo, hi = np.hsplit(node.pred_block()[0][:2 * DIM], 2)
    # A bite at the low corner spanning the whole MBR, half-open at the
    # top: every stored key off the upper boundary now sits inside a
    # bite — exactly the sloppy predicate that silently drops true
    # nearest neighbors.
    keep = np.zeros((1, 1 << DIM), dtype=bool)
    keep[0, 0] = True
    inners = np.broadcast_to(hi, (1, 1 << DIM, DIM))
    node.set_row(0, tree.ext.pred_codec().write(lo[None], hi[None], keep,
                                                inners)[0])
    tree.store.write(node)

    report = check_tree(tree)
    assert BITE_NONEMPTY in report.codes(), report.format()
    bites = [v for v in report.violations if v.code == BITE_NONEMPTY]
    assert all(v.page_id == child for v in bites)

    path = str(tmp_path / f"{method}-bitten.gist")
    save_tree(tree, path)
    deep = deep_scrub(path)
    assert deep.scrub.clean and not deep.clean, deep.format()
    assert BITE_NONEMPTY in deep.check.codes()


# ---------------------------------------------------------------------------
# corruption 3: an orphaned leaf page in the saved file
# ---------------------------------------------------------------------------

def _append_orphan_leaf(path, tree):
    """Append a sealed leaf page no parent references, and grow the
    superblock's node count so the slot is inside the census."""
    with open(path, "rb") as fh:
        raw = fh.read()
    (hlen,) = struct.unpack_from("<I", raw, 0)
    header = json.loads(raw[4:4 + hlen])
    page_size = header["page_size"]
    header["num_nodes"] += 1
    if "num_slots" in header:
        header["num_slots"] = max(header["num_slots"], header["num_nodes"])
    orphan_slot = header["num_nodes"]

    codec = NodeCodec(page_size, tree.leaf_codec, tree.index_codec)
    leaf = next(tree.leaf_nodes())
    orphan = codec.encode_nodes([Node.leaf_from_arrays(
        orphan_slot, leaf.keys_array(), leaf.rid_array())])[0].tobytes()

    blob = json.dumps(header).encode()
    page0 = struct.pack("<I", len(blob)) + blob
    page0 += b"\x00" * (page_size - 8 - len(page0))
    page0 += struct.pack("<II", crc32(page0), FORMAT_EPOCH)
    with open(path, "wb") as fh:
        fh.write(page0 + raw[page_size:] + orphan)
    return orphan_slot


def test_orphaned_leaf_page_is_flagged(tmp_path):
    tree = build_tree("rtree")
    path = str(tmp_path / "orphan.gist")
    save_tree(tree, path)
    orphan_slot = _append_orphan_leaf(path, tree)

    deep = deep_scrub(path)
    # The page-level scrub already sees an unreachable slot; the deep
    # phase still runs (orphans are what it localizes) and pins the
    # orphan by page id.
    assert not deep.scrub.clean
    assert [s.slot for s in deep.scrub.orphaned_slots] == [orphan_slot]
    assert deep.check is not None
    orphans = [v for v in deep.check.violations if v.code == PAGE_ORPHAN]
    assert [v.page_id for v in orphans] == [orphan_slot]
    assert not deep.clean


# ---------------------------------------------------------------------------
# structural mutations: census and fill bounds
# ---------------------------------------------------------------------------

def test_duplicate_child_reference_is_flagged():
    tree = build_tree("rtree")
    node = inner_above_leaves(tree)
    assert len(node) >= 2
    children = node.child_array().copy()
    dropped = int(children[1])
    children[1] = children[0]
    tree.store.write(Node.inner_from_block(node.page_id, node.level,
                                           node.pred_block(), children))

    report = check_tree(tree)
    assert PAGE_DUPLICATE in report.codes(), report.format()
    # The no-longer-referenced leaf is now unreachable from the root.
    assert dropped in {v.page_id for v in report.violations
                      if v.code == PAGE_ORPHAN}


def test_underfull_leaf_respects_check_fill():
    tree = build_tree("rtree")
    node = inner_above_leaves(tree)
    leaf = tree._peek(node.children()[0])
    while len(leaf) > 1:
        leaf.remove(1)
    tree.store.write(leaf)

    report = check_tree(tree)
    assert NODE_UNDERFULL in report.codes(), report.format()
    assert SIZE_MISMATCH in report.codes()
    # Mid-mutation trees may legitimately be underfull; the size census
    # still has to balance.
    relaxed = check_tree(tree, check_fill=False)
    assert NODE_UNDERFULL not in relaxed.codes()
    assert SIZE_MISMATCH in relaxed.codes()


# ---------------------------------------------------------------------------
# the CLI contract
# ---------------------------------------------------------------------------

def test_cli_fsck_deep_verdicts(tmp_path, capsys):
    from repro.cli import main

    clean_path = str(tmp_path / "clean.gist")
    save_tree(build_tree("xjb"), clean_path)
    assert main(["fsck", clean_path, "--deep"]) == 0
    assert "deep verdict : clean" in capsys.readouterr().out

    broken = build_tree("rtree")
    node = inner_above_leaves(broken)
    node.set_row(0, _shrunk(node.pred_block()[0]))
    broken.store.write(node)
    broken_path = str(tmp_path / "broken.gist")
    save_tree(broken, broken_path)

    artifact = tmp_path / "deep.json"
    assert main(["fsck", broken_path, "--deep",
                 "--json", str(artifact)]) == 1
    assert "BROKEN" in capsys.readouterr().out
    doc = json.loads(artifact.read_text())
    assert doc["clean"] is False
    codes = {v["code"] for v in doc["deep"]["violations"]}
    assert BP_KEY_ESCAPE in codes


def test_loaded_tree_checks_clean(tmp_path):
    tree = build_tree("srtree")
    path = str(tmp_path / "roundtrip.gist")
    save_tree(tree, path)
    reloaded = load_tree(path=path)
    report = check_tree(reloaded, path=path)
    assert report.clean, report.format()
