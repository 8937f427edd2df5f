"""Golden on-disk format: every byte the storage stack writes is pinned.

Checksums are part of every page image, WAL record and superblock
trailer, so a seal that computed one bit differently — or any
accidental change to the page, record or superblock layout — changes a
digest.  The digests were re-taken once, deliberately, when format
epoch 2 replaced the CRC32C seal with the stdlib CRC-32 (zlib) and the
WAL went to version 2: built by :func:`build_all` before and after that
change, every artefact differed only in its seal bytes — each page
image's bytes ``[16, 24)`` (WAL payloads included), each superblock's
last 8 bytes, the WAL file header's version field and each WAL record's
crc field.  Because the files rebuilt here are byte-identical to the
pinned ones, passing ``repro fsck --deep`` and ``repro recover`` on
them is passing on the format as pinned.

The ``pages5d/*`` digests pin the paper's fan-out: 5-D keys on 8 KB
pages make 170-entry leaves, wider than aMAP's head of each sort order
and than XJB's bite budget, which the 700 3-D keys on 1 KB pages never
are.

The ``mutated5d/*`` digests pin what a durable insert/delete writes at
that fan-out: the data file and the WAL after :func:`build_mutated`'s
seeded sequence, which splits leaves and an inner node and condenses
an underflowing leaf for every family.

The ``inserted5d/*`` digests pin the plain insert path, which
:func:`build_inserted` drives on all seven families (the R*-tree
included): every predicate recomputed from its node's contents (aMAP
drawing from its shared RNG stream), splits, then deletes that
dissolve an inner node and reinsert its surviving children at level 1.
"""

import hashlib
import shutil

import numpy as np
import pytest

from repro.bulk import bulk_load, insertion_load
from repro.cli import main
from repro.core.api import make_extension
from repro.gist.mutable import MutableTree
from repro.gist.persist import load_tree, save_tree
from repro.gist.tree import GiST
from repro.storage.codecs import make_leaf_codec
from repro.storage.diskfile import FilePageFile
from repro.storage.errors import PageCorruptError

from tests.storage.epoch1 import forge_index, forge_wal

FAMILIES = ("rtree", "sstree", "srtree", "jb", "xjb", "amap")
CODECS = ("f64", "sq8")
DIM, PAGE, N = 3, 1024, 700

#: family -> (page size, keys) of :func:`build_inserted`: small pages
#: give every family three levels and inner nodes holding at least two
#: entries, so a dissolved inner node leaves orphans to reinsert.
INSERTED = {"rtree": (1024, 400), "rstar": (1024, 400),
            "sstree": (1024, 400), "srtree": (1024, 400),
            "amap": (1024, 400), "xjb": (4096, 1200), "jb": (8192, 1000)}

GOLDEN = {
    "inserted5d/amap":
        "254e01709b67add7e29854569af6a4c12797dc966c5fcee7c92f7024db450b66",
    "inserted5d/jb":
        "1d592a0061e0a2a9f298a1be26670ac34821aa7a62aaabba1d0e975893be2553",
    "inserted5d/rstar":
        "02df96f56eb298a49f955a5080729d5268538b6b918d6344f871eda0a863f9f9",
    "inserted5d/rtree":
        "b9c3507ee8f165b0d3036ddc054633833978842b0767963ba57e785366d95d47",
    "inserted5d/srtree":
        "0c943d7456ab1c857c5c1d0bedbccb7e4894967760fa1740f8e04ba16f778d46",
    "inserted5d/sstree":
        "1fdcde095aef60abea46c1bc2a1b5fa2db6873bada4f13f62a47a194a1e72c49",
    "inserted5d/xjb":
        "28f8417a123f007957b5d1446743a55ba0c547b7dba5608020723f8bf65c6b41",
    "mutated5d/amap-f64":
        "20be792ffff85198cb66a62ea1e791598e6f979f08bb0dbe69a040cef1a38b88",
    "mutated5d/amap-f64.wal":
        "da9c62197b22a4b13fcde7106e93794f5d77760fb886fd8dffde71d19f0b161d",
    "mutated5d/jb-f64":
        "ce71a767940cfab1baae1f91e62a5efd3878c54a85453ea35ef7c60d4c96633d",
    "mutated5d/jb-f64.wal":
        "118253530bba45911f6cf042707df38fc9de5bd12b8d272dfc5b23831c80f87a",
    "mutated5d/rtree-f64":
        "9ccf0578dfdc8c2711e0ace6e99fbaa6800abea48aeb67ba873879851b02139b",
    "mutated5d/rtree-f64.wal":
        "dd031f2cc609afd1d5ee15398f532c86907939577b38fe97e7ed3142d51f6ef8",
    "mutated5d/srtree-f64":
        "8ff369645914784e399c306f358cb5b41235537bac3f05a144a68ec1382b9334",
    "mutated5d/srtree-f64.wal":
        "be4295a5721c4b53a2643f6a381a402d0ea1f8093bebab8f0a56fafd55b030b6",
    "mutated5d/sstree-f64":
        "c52e96bebf3726d843141ad1fa62e01d7e7328c1c07987b7c0642dd939de1e9a",
    "mutated5d/sstree-f64.wal":
        "bc3cd9a403d9e3a58b820e32e529ac55e74338edf7434ae9ec61a91c2ea6b83b",
    "mutated5d/xjb-f64":
        "1e46ee6ec04b8d7c12763cd58c8e4aeee6e2d1deb317fb6890a0426a3a945a38",
    "mutated5d/xjb-f64.wal":
        "cccf7cff735296d07b08991fc17d7dc6e6aab6663df0c115cf4780e387a9ec34",
    "pages/amap-f64":
        "504e4ac553e1020ee0e994e8d4309a30cddac2867e8ebc97ab9dd961342e85bc",
    "pages/amap-sq8":
        "ad4f88e869f9c6a03b67f126cca3705b4472c9372b37cc019c369030ca59e200",
    "pages/jb-f64":
        "43ffe83c090638cac58dde1e00faf519740b473428ad63333bc75c58d118e81e",
    "pages/jb-sq8":
        "5e5a965c6d4ef3c834f5e78b4110dad718f38dc44462bbbd9f1a9b5af41fff4f",
    "pages/rtree-f64":
        "9e25bec384eaad6812ddc805888c6bf25d02e1c01ac47026b093213d0370c7a5",
    "pages/rtree-sq8":
        "4681e63e651bf56872b09279f83045734c5c40566e5212bff46a018c65990a23",
    "pages/srtree-f64":
        "1f69c13311e4858cedaa1d226825a2a67c3976e2edf52924acd7f79187143fe1",
    "pages/srtree-sq8":
        "63dbfd8084efa0dcb2161991a75612bf61724cc518ced10148a97159d9b614b9",
    "pages/sstree-f64":
        "384c42a02572fd3370b1e6c650753bc85232b62710385f9432998b0e0ac17e11",
    "pages/sstree-sq8":
        "5236432764362cb883cf081af314f92e73753e092ce67ce5001340d05643dd42",
    "pages/xjb-f64":
        "f830008043dea50c58b1158fdbf91a441bc972d68a7e84c552a613cf3fc71d32",
    "pages/xjb-sq8":
        "70d1d0d213386049cad745029358f06e7bf697ef49fcc114708f71ae32d28434",
    "pages5d/amap-f64":
        "3345b443f8036428450151e2a719a22400d173e9859ee13ab7fc1a3c31536dcf",
    "pages5d/jb-f64":
        "1f4079dbcfa3e5a2e929baf472f0788c22dffe49fb68c09efc0ee943780ddadb",
    "pages5d/xjb-f64":
        "4cfa1f242194c4cd00adab51d9d39865c671f050e3aba0f5cda70d1b84638a5d",
    "saved/amap-f64":
        "6dc06afee42992810314ce3e296d602b596aba9cee4b04f94a0ad5ce7e0965ae",
    "saved/amap-sq8":
        "79506637db8bdaa35a253a9486601e85e8ac92dfdf3fa5da78e0a176b4953c4f",
    "saved/jb-f64":
        "3368e5e5d2c39f0dc4c9913334fdf83d5d5d710c77ec144564a35730b065c693",
    "saved/jb-sq8":
        "1d1c411af6d8a9d0b4b12822d14f6b2c740016825f41fdfa6cf5b58aa876a37a",
    "saved/rtree-f64":
        "e5a1e24492a6300133defb25031e5acd7ef37fe9b3bbe7a9d44f471e764ae83e",
    "saved/rtree-sq8":
        "4c2f584bcf8912e010ea0c5f865d0234c1a525c750e62c8a687bb9488f834df2",
    "saved/srtree-f64":
        "b8648832fb702ed5c11f53564338e80650b0646057f6c2a25dc9ac1fa861848b",
    "saved/srtree-sq8":
        "2d49d77fb7dee1a327c0e21cf4d6841022930d589052f5c12401aa956cebb462",
    "saved/sstree-f64":
        "7c13cccde4bcbe5c88f686c4b525eb0fb13f067201e4624f5671308ccc4b8f59",
    "saved/sstree-sq8":
        "8eb28631c84cd84df4030036ca388531c2ef4339c311f90dbcb3ef241eee9b9f",
    "saved/xjb-f64":
        "30996bc20ce30db787752236f92bbc7e3c864682f647cca8a587d517542e2a03",
    "saved/xjb-sq8":
        "4415634096317ec7f3d7e64189d2a829c52749b28ad902a840532c51e782d977",
    "superblock":
        "d96c119d51aa8b762616a128dfa3277c6a426d37e3fa1cc9dc4ac6597998a90e",
    "wal/data":
        "b5d8891486ef782ca8da484b55edbce420414dd2e53cca4b94400d1641e77dc0",
    "wal/segment":
        "9d8883c18d221a3fc4b2cc82184b5af80254e0552ddcaf049b56530147db1049",
}


#: the same artefacts as format epoch 1 wrote them (CRC32C seals, WAL
#: version 1): their digests before epoch 2 replaced it.
EPOCH1 = {
    "saved/xjb-f64":
        "ca38cb9977845d9db20ec67eee5d1a2be54b1e1f0bb87a33a4d8156e0d97b25e",
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


def build_inserted(out):
    """Insertion-loaded 5-D trees, then deletes under the smallest
    non-root level-1 node until that page no longer holds a level-1
    node: it was dissolved and its remaining leaves reinserted."""
    digests = {}
    for family, (page, n) in INSERTED.items():
        keys = np.random.default_rng(20000304).random((n, 5))
        tree = insertion_load(make_extension(family, 5), keys,
                              page_size=page, shuffle_seed=7)
        assert tree.height >= 3
        inner = min((node for node in tree.iter_nodes(1)
                     if node.page_id != tree.root_id), key=len).page_id
        while True:
            nodes = {node.page_id: node for node in tree.iter_nodes()}
            node = nodes.get(inner)
            if node is None or node.level != 1:
                break
            leaf = min((nodes[c] for c in node.children()), key=len)
            assert tree.delete(leaf.keys_array()[0],
                               int(leaf.rid_array()[0]))
        path = str(out / f"{family}-5d-inserted.gist")
        save_tree(tree, path)
        digests[f"inserted5d/{family}"] = _sha(path)
    return digests


def build_all(out):
    """Write every pinned artefact under ``out``; name -> sha256."""
    digests = build_wide(out)
    digests.update(build_mutated(out))
    digests.update(build_inserted(out))
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


def test_forged_epoch1_files_are_what_epoch1_wrote_and_are_refused(
        built, tmp_path, capsys):
    """The epoch-1 forger reproduces the pinned epoch-1 files byte for
    byte, and the readers refuse them by name."""
    out, _ = built
    forged = {}
    for name, source, forge in (("saved/xjb-f64", "xjb-f64.gist",
                                 forge_index),
                                ("wal/data", "mutated.gist", forge_index),
                                ("wal/segment", "mutated.gist.wal",
                                 forge_wal)):
        forged[name] = str(tmp_path / source)
        shutil.copy(str(out / source), forged[name])
        forge(forged[name])
        assert _sha(forged[name]) == EPOCH1[name], name
    with pytest.raises(PageCorruptError,
                       match="format epoch 1: rebuild the index"):
        load_tree(path=forged["saved/xjb-f64"])
    assert main(["recover", forged["wal/data"]]) == 1
    assert "unsupported WAL version 1" in capsys.readouterr().out
    assert _sha(forged["wal/data"]) == EPOCH1["wal/data"]
    assert _sha(forged["wal/segment"]) == EPOCH1["wal/segment"]
