"""Golden on-disk format: every byte the storage stack writes is pinned.

The digests below were taken on the commit *before* the CRC32C gather
kernel and the block-decoded inner nodes landed (PR 11, 2897acd), by
running :func:`build_all` against that commit's ``src/``.  Checksums
are part of every page image, WAL record and superblock trailer, so a
kernel that computed one bit differently — or any accidental change to
the page, record or superblock layout — changes a digest.  Because the
files rebuilt here are byte-identical to the ones that commit wrote,
passing ``repro fsck --deep`` and ``repro recover`` on them is passing
on files written by it.

The ``pages5d/*`` digests pin the paper's fan-out: 5-D keys on 8 KB
pages make 170-entry leaves, wider than aMAP's head of each sort order
and than XJB's bite budget, which the 700 3-D keys on 1 KB pages never
are.  They were taken on the commit before the head-of-order aMAP
scoring and the array-ranked bite carve landed (382ac24), by
running :func:`build_wide` against that commit's ``src/``.

The ``mutated5d/*`` digests pin what a durable insert/delete writes at
that fan-out: the data file and the WAL after :func:`build_mutated`'s
seeded sequence, which splits leaves and an inner node and condenses
an underflowing leaf for every family.  They were taken on the commit
before inner pages kept their predicate block through mutation and
DELETE descent screened children with ``contains_node`` (43eeb83), by
running :func:`build_mutated` against that commit's ``src/``.
"""

import hashlib
import shutil

import numpy as np
import pytest

from repro.bulk import bulk_load
from repro.cli import main
from repro.core.api import make_extension
from repro.gist.mutable import MutableTree
from repro.gist.persist import save_tree
from repro.gist.tree import GiST
from repro.storage.codecs import make_leaf_codec
from repro.storage.diskfile import FilePageFile

FAMILIES = ("rtree", "sstree", "srtree", "jb", "xjb", "amap")
CODECS = ("f64", "sq8")
DIM, PAGE, N = 3, 1024, 700

GOLDEN = {
    "mutated5d/amap-f64":
        "1406cb3efe6044c4b81328b31b85542990729c88034865bdeb2ed159dd4c5b19",
    "mutated5d/amap-f64.wal":
        "e79b93e119562785d6e927f7108804291eedf9843fbd5ded83cb2367bc23b013",
    "mutated5d/jb-f64":
        "3fabf9b4c2b7528e7fa885d7d724aaca0244065b422577cdee431801a515e906",
    "mutated5d/jb-f64.wal":
        "7cd54d2e166ad4238b11997ede0087f4332d600efb2d452cdc7abc9c70adae45",
    "mutated5d/rtree-f64":
        "d2b2efe2d331e9cc87d3ce6989c0c5419b79cab4b577adbba1ed169e9c461acd",
    "mutated5d/rtree-f64.wal":
        "568859b2cb9e26f5c0b4e6e7c0f1a6103bcc078c1978b953ca5721fbc24ab3fe",
    "mutated5d/srtree-f64":
        "003af3b789ef4ac8b1bc6ac2e183a36d6edc20989a88ca84695635bad5c940af",
    "mutated5d/srtree-f64.wal":
        "54258bca9dd04373f2edacb746250d81999dcc7f3621656e8b19ac8611f2a8ad",
    "mutated5d/sstree-f64":
        "8fbfb8f1a2806100ffe6e39f202b0a80a62088926113158896b9501e1538e76a",
    "mutated5d/sstree-f64.wal":
        "45c4911280a2cd07afe968320ef05a07e0e242545eb4bf938b7ee7dd03b35bbe",
    "mutated5d/xjb-f64":
        "29c43192e94736c131f139493cba15367773b1ef0e59a7a8c0248f02b4f36c5d",
    "mutated5d/xjb-f64.wal":
        "0ebf6558e6805c674e3a451e5f20860218451283d8dec4cf28455a6907845408",
    "pages/amap-f64":
        "8b78c8d598879adbf4b068b854d60159af9b3f1cef8021940245009279dd60d6",
    "pages/amap-sq8":
        "e9226d609ad4e31cfe0f2503cc8a17b3a3beef62e22d3c4bc20d3b3db666aedc",
    "pages/jb-f64":
        "bc713a7e9d0a424d58cba40a359d262898b8615a215f1848fe3750e0d23c6608",
    "pages/jb-sq8":
        "2ea6f3ddcb4c6bef8fed33425e50a0a1913c135ac3f1b1b2f71a75b00d6ab828",
    "pages/rtree-f64":
        "d0e239ae72436141ba75ef732e923ac1553e23beb71f68836e467423afc9baff",
    "pages/rtree-sq8":
        "760aa3d046012a14bb59c53cbf1aad6a6d895d45286ddb5c441197c3d3a1f312",
    "pages/srtree-f64":
        "4a0b7ee47fe820b14afdd5b096277b8de2b9aa7c0ff9f6d309af035131550d94",
    "pages/srtree-sq8":
        "a9b403eb912848725cf1f051c747ba0ed7038125794dcf5f89473af14bb0b32a",
    "pages/sstree-f64":
        "cd21498ff8cb41819e38620f38a00675e10c768283050408f34859b09adabeda",
    "pages/sstree-sq8":
        "85bdb8151696ced1c0fad668a79ee9ed1692aa58300707c46e3a464c615aaf2c",
    "pages/xjb-f64":
        "df6ac37c2774d5c4798da8c17953e0d3e0c7f68d6681d6af8ff9eb236ae513e8",
    "pages/xjb-sq8":
        "deb6848f9bdc20c71bffa4a255504fbf152f29f0d38060ce59f30a715ae5b2db",
    "pages5d/amap-f64":
        "daa5a3be7a0212124e2b6ead64b8f128654640e4e60caf3a4903cc05f1d61cc8",
    "pages5d/jb-f64":
        "b58628cc92d1177a374f45885ca760e82565dddbbacc160eceaef083667dcce0",
    "pages5d/xjb-f64":
        "d1a7e6adca647ad96dbd275b3be1e1a4341c432b917e4379c07131c3d71b72ca",
    "saved/amap-f64":
        "39dfce8317dfad59790ecd6f5ca82d321b44e31b7628744fc60363ddfaa445fe",
    "saved/amap-sq8":
        "b8062a84d85030164207960d686589eca33d871ae93ba83c8bf3b1897e376168",
    "saved/jb-f64":
        "200f170b14acda622cc9d0bceb7470703256ead657736ea2d6b80d0c783768a7",
    "saved/jb-sq8":
        "5d7ee0e16e686995556152cfa2e8eefcc396de013a3d290510cbf3b30bebc776",
    "saved/rtree-f64":
        "8f70672635c6b4f88d5a89506a4b3b8c27ef7dcec7fcd198acb4489390bec701",
    "saved/rtree-sq8":
        "7a5a8c3dc7a5b692a5d25a34e88c8b8c77a68edcfa02afa7eb78e8a38624425a",
    "saved/srtree-f64":
        "35c89de8d6e9ce3f313a27cbf684e253b53e31faada8e225ef61b4682c75ede9",
    "saved/srtree-sq8":
        "ea62fb4fd3ada4e9030e462dcbe756f507ac09c19a910b97fae56a8c84af20ad",
    "saved/sstree-f64":
        "f53d169071f952254d5599c79bba1b01fe6fbfb2e93aec3428db733dd6d16974",
    "saved/sstree-sq8":
        "77394faea33a1452f7e91efc312a99e474685a4e9c6f749321efbf67d3c6cbfb",
    "saved/xjb-f64":
        "ca38cb9977845d9db20ec67eee5d1a2be54b1e1f0bb87a33a4d8156e0d97b25e",
    "saved/xjb-sq8":
        "c3a5f9ae2b3f434b1fba3b6602fc3801d72410c2f5774a2c1d57a01f1afeedb0",
    "superblock":
        "8b37a0b8fb71258d236f9f82d86a204e620576ccfb4217599465a8a3f61d59f1",
    "wal/data":
        "ad53b749478ded3d359dd58407bde3e473c9be63954c314c71dcf268239ad543",
    "wal/segment":
        "4be5c70f8ae64617233b8d133af8d34640f5b1f280187a299ae2f32f646a13b9",
}


def _sha(path, length=-1):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read(length)).hexdigest()


def _vectors():
    return np.random.default_rng(20000301).random((N, DIM))


def build_wide(out):
    """The bitten and dual-rectangle families at the paper's fan-out."""
    keys = np.random.default_rng(20000302).random((4000, 5))
    digests = {}
    for family in ("amap", "jb", "xjb"):
        paged = str(out / f"{family}-5d.pages")
        ext = make_extension(family, 5)
        with FilePageFile.for_extension(paged, ext, page_size=8192,
                                        leaf_codec="f64") as store:
            bulk_load(ext, keys, page_size=8192, store=store)
            store.flush()
        digests[f"pages5d/{family}-f64"] = _sha(paged)
    return digests


def build_mutated(out):
    """Durable inserts and deletes on every family at 5-D / 8 KB pages.

    Each tree is bulk-loaded with exactly one full root of full leaves,
    so the first insert splits a leaf and the root.  Half the fresh keys
    are deleted again, then the smallest leaf loses keys until it
    underflows and is condensed.
    """
    digests = {}
    for family in FAMILIES:
        ext = make_extension(family, 5)
        probe = GiST(ext, page_size=8192)
        rng = np.random.default_rng(20000303)
        keys = rng.random((probe.leaf_capacity * probe.index_capacity, 5))
        fresh = rng.random((24, 5))
        path = str(out / f"{family}-5d-mutated.gist")
        save_tree(bulk_load(ext, keys, page_size=8192), path)
        with MutableTree.open(path) as tree:
            assert tree.tree.height == 2
            for i, key in enumerate(fresh):
                tree.insert(key, len(keys) + i)
            assert tree.tree.height == 3        # the full root split
            for i in range(0, len(fresh), 2):
                assert tree.delete(fresh[i], len(keys) + i)
            leaf = min(tree.tree.leaf_nodes(), key=len)
            spare = len(leaf) - tree.tree.min_entries(0) + 1
            for key, rid in list(zip(leaf.keys_array(),
                                     leaf.rid_array().tolist()))[:spare]:
                assert tree.delete(key, rid)
            assert leaf.page_id not in tree.wpf     # condensed away
        digests[f"mutated5d/{family}-f64"] = _sha(path)
        digests[f"mutated5d/{family}-f64.wal"] = _sha(path + ".wal")
    return digests


def build_all(out):
    """Write every pinned artefact under ``out``; name -> sha256."""
    digests = build_wide(out)
    digests.update(build_mutated(out))
    for family in FAMILIES:
        for codec in CODECS:
            # the batched write path: write_many + seal_images
            paged = str(out / f"{family}-{codec}.pages")
            ext = make_extension(family, DIM)
            with FilePageFile.for_extension(paged, ext, page_size=PAGE,
                                            leaf_codec=codec) as store:
                bulk_load(ext, _vectors(), page_size=PAGE, store=store,
                          leaf_codec=make_leaf_codec(codec, DIM))
                store.flush()
            digests[f"pages/{family}-{codec}"] = _sha(paged)
            # the page-at-a-time path: save_tree + seal_image
            saved = str(out / f"{family}-{codec}.gist")
            ext = make_extension(family, DIM)
            save_tree(bulk_load(ext, _vectors(), page_size=PAGE,
                                leaf_codec=make_leaf_codec(codec, DIM)),
                      saved)
            digests[f"saved/{family}-{codec}"] = _sha(saved)
    digests["superblock"] = _sha(str(out / "xjb-f64.gist"), PAGE)

    # one WAL segment after three commits, and the data file under it
    mutated = str(out / "mutated.gist")
    shutil.copy(str(out / "xjb-f64.gist"), mutated)
    keys = np.random.default_rng(5).random((3, DIM))
    with MutableTree.open(mutated) as tree:
        tree.insert(keys[0], 10_000)
        tree.insert(keys[1], 10_001)
        tree.delete(_vectors()[17], 17)
    digests["wal/segment"] = _sha(mutated + ".wal")
    digests["wal/data"] = _sha(mutated)
    return digests


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    return out, build_all(out)


def test_every_artefact_is_byte_identical_to_the_parents(built):
    _, digests = built
    assert sorted(digests) == sorted(GOLDEN)
    changed = {name: digest for name, digest in digests.items()
               if digest != GOLDEN[name]}
    assert not changed


@pytest.mark.parametrize("codec", CODECS)
@pytest.mark.parametrize("family", FAMILIES)
def test_deep_fsck_passes_on_the_pinned_files(built, family, codec,
                                              capsys):
    out, _ = built
    assert main(["fsck", str(out / f"{family}-{codec}.gist"),
                 "--deep"]) == 0
    assert "deep verdict : clean" in capsys.readouterr().out


def test_recover_replays_the_pinned_wal_segment(built, tmp_path, capsys):
    """A crash after the third commit's fsync but before any page was
    applied: the pre-mutation data file beside the pinned log.  Replay
    must rebuild exactly the pinned post-mutation file."""
    out, _ = built
    crashed = str(tmp_path / "crashed.gist")
    shutil.copy(str(out / "xjb-f64.gist"), crashed)
    shutil.copy(str(out / "mutated.gist.wal"), crashed + ".wal")
    assert main(["recover", crashed]) == 0
    assert "transactions : 3 replayed" in capsys.readouterr().out
    assert _sha(crashed) == GOLDEN["wal/data"]
    assert main(["fsck", crashed, "--deep"]) == 0
