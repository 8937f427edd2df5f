"""mmap read path: bit-identical to pread, faults and all.

``FilePageFile(mmap_mode=True)`` serves page images as zero-copy views
of one shared mapping instead of per-page ``pread`` buffers.  The
contract is strict equivalence: same decoded nodes, same access
counters, same typed errors with the same messages, same quarantine
behavior — the only permitted difference is speed.  These tests open
pread and mmap stores over the *same* page file and hold every
observable to that.
"""

import itertools

import numpy as np
import pytest

from repro.bulk import bulk_load
from repro.gist import GiST, knn_search_batch
from repro.storage import PageCorruptError, PageMissingError
from repro.storage.diskfile import FilePageFile
from repro.storage.faults import FaultyPageFile

from tests.conftest import ALL_METHODS, make_ext
from tests.gist.oracle import pred_objects, stacked_geometry

#: JB-family predicates are large; they need roomier pages (see
#: tests/gist/test_batch_parity.py).
PAGE_SIZES = {"jb": 8192, "xjb": 4096}


def _page_size(method):
    return PAGE_SIZES.get(method, 2048)


def _build_file(tmp_path, method, points, name="pages.bin"):
    """Bulk-load ``points`` into a fresh page file; return
    (path, root_id, height, size)."""
    ext = make_ext(method, points.shape[1])
    path = str(tmp_path / name)
    store = FilePageFile.for_extension(path, ext,
                                       page_size=_page_size(method))
    tree = bulk_load(ext, points, page_size=_page_size(method),
                     store=store)
    facts = (tree.root_id, tree.height, tree.size)
    store.flush()
    store.close()
    return (path,) + facts


def _open(path, method, dim, mmap_mode):
    return FilePageFile.for_extension(path, make_ext(method, dim),
                                      page_size=_page_size(method),
                                      mmap_mode=mmap_mode)


def _adopt(store, method, dim, facts):
    root_id, height, size = facts
    tree = GiST(make_ext(method, dim), store=store,
                page_size=_page_size(method))
    tree.adopt(store.peek(root_id), height, size)
    return tree


def _corrupt_leaf(store):
    """Flip a bit in a deterministic leaf; return (page id, its rids).

    The rids identify stored points whose own queries must descend into
    the corrupt leaf — guaranteeing the fault is actually hit.
    """
    victim = sorted(pid for pid in store.page_ids()
                    if store.peek(pid).is_leaf)[3]
    resident = [int(r) for r in store.peek(victim).rid_array()]
    FaultyPageFile(store).corrupt_page(victim, bit=500 * 8)
    return victim, resident


def _nodes_equal(a, b):
    assert a.page_id == b.page_id
    assert a.level == b.level
    assert len(a) == len(b)
    if a.is_leaf:
        assert np.array_equal(a.keys_array(), b.keys_array())
        assert np.array_equal(a.rid_array(), b.rid_array())
    else:
        assert np.array_equal(a.pred_block(), b.pred_block())
        assert a.children() == b.children()


@pytest.fixture(scope="module")
def points():
    return np.random.default_rng(13).normal(size=(1200, 3))


class TestReadIdentity:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_knn_and_counters_match_pread(self, tmp_path, method,
                                          points):
        """Every AM family answers identically from the mapped file —
        result lists, tie order, and per-level read counts."""
        path, *facts = _build_file(tmp_path, method, points)
        queries = points[::200]
        results, levels = {}, {}
        for mode in (False, True):
            with _open(path, method, 3, mode) as store:
                tree = _adopt(store, method, 3, facts)
                results[mode] = [tree.knn(q, 15) for q in queries]
                levels[mode] = dict(store.stats.reads_by_level)
        assert results[True] == results[False]
        assert levels[True] == levels[False]

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_decoded_nodes_match_pread(self, tmp_path, method, points):
        path, *facts = _build_file(tmp_path, method, points)
        with _open(path, method, 3, False) as pread, \
                _open(path, method, 3, True) as mapped:
            for pid in sorted(pread.page_ids()):
                _nodes_equal(pread.read(pid), mapped.read(pid))

    def test_read_many_matches_sequential_reads(self, tmp_path, points):
        """``read_many`` is the plural of ``read``: same nodes in
        request order — duplicates included — and the same counters."""
        path, *facts = _build_file(tmp_path, "rtree", points)
        with _open(path, "rtree", 3, True) as mapped, \
                _open(path, "rtree", 3, True) as reference:
            pids = sorted(mapped.page_ids())
            request = pids[::3] + pids[:2] + pids[:2]   # dups on purpose
            many = mapped.read_many(request)
            solo = [reference.read(p) for p in request]
            for a, b in zip(many, solo):
                _nodes_equal(a, b)
            assert mapped.stats.reads == reference.stats.reads \
                == len(request)

    def test_read_many_raises_like_read(self, tmp_path, points):
        path, *facts = _build_file(tmp_path, "rtree", points)
        with _open(path, "rtree", 3, True) as mapped:
            good = sorted(mapped.page_ids())[0]
            with pytest.raises(PageMissingError) as batch_err:
                mapped.read_many([good, 9999, good])
            with pytest.raises(PageMissingError) as solo_err:
                mapped.read(9999)
            assert str(batch_err.value) == str(solo_err.value)
            # only the page before the failure was counted
            assert mapped.stats.reads == 1


class TestWriteCoherence:
    def test_writes_after_mapping_are_visible(self, tmp_path):
        from repro.gist.node import Node

        ext = make_ext("rtree", 2)
        store = FilePageFile.for_extension(str(tmp_path / "w.bin"), ext,
                                           page_size=1024,
                                           mmap_mode=True)
        first = Node(store.allocate(), 0)
        store.write(first)
        store.read(first.page_id)          # establishes the mapping
        second = Node(store.allocate(), 0)  # grows past the mapped end
        store.write(second)
        assert store.read(second.page_id).page_id == second.page_id
        store.free(first.page_id)
        with pytest.raises(PageMissingError, match="freed"):
            store.read(first.page_id)
        store.close()


class TestFaultParity:
    def test_corruption_raises_same_error_as_pread(self, tmp_path,
                                                   points):
        path, *facts = _build_file(tmp_path, "rtree", points)
        with _open(path, "rtree", 3, False) as pread:
            victim = sorted(pid for pid in pread.page_ids()
                            if pread.read(pid).is_leaf)[2]
            FaultyPageFile(pread).corrupt_page(victim, bit=500 * 8)
        errors = {}
        for mode in (False, True):
            with _open(path, "rtree", 3, mode) as store:
                with pytest.raises(PageCorruptError) as excinfo:
                    store.read(victim)
                errors[mode] = str(excinfo.value)
                with pytest.raises(PageCorruptError):
                    store.read_many([victim])
        assert errors[True] == errors[False]
        assert "stored 0x" in errors[True] and "computed 0x" in errors[True] \
            and f"page {victim}" in errors[True]

    def test_quarantine_report_matches_pread(self, tmp_path, points):
        """A corrupt leaf under quarantine degrades the mmap tree
        exactly as it degrades the pread tree: same pruned page, same
        report entries, same degraded answers."""
        trees, reports = {}, {}
        for mode, name in ((False, "p.bin"), (True, "m.bin")):
            path, *facts = _build_file(tmp_path, "rtree", points,
                                       name=name)
            store = _open(path, "rtree", 3, mode)
            tree = _adopt(store, "rtree", 3, facts)
            victim, resident = _corrupt_leaf(store)
            reports[mode] = tree.enable_quarantine()
            # queries at the victim's own points force the visit
            trees[mode] = [tree.knn(points[r], 10) for r in resident]
        assert reports[False].pages, "victim leaf was never visited"
        assert trees[True] == trees[False]
        assert (sorted(reports[True].pages) ==
                sorted(reports[False].pages))
        for pid in reports[True].pages:
            a, b = reports[True].pages[pid], reports[False].pages[pid]
            # the two trees live in different files, so compare the
            # error past its leading "<path>: " prefix
            assert (a.level, a.error.split(": ", 1)[1],
                    a.estimated_candidates_lost) == \
                (b.level, b.error.split(": ", 1)[1],
                 b.estimated_candidates_lost)

    def test_batched_engine_over_mmap_quarantines_identically(
            self, tmp_path, points):
        path_a, *facts = _build_file(tmp_path, "rtree", points,
                                     name="a.bin")
        path_b, *_ = _build_file(tmp_path, "rtree", points, name="b.bin")
        seq_store = _open(path_a, "rtree", 3, False)
        bat_store = _open(path_b, "rtree", 3, True)
        seq_tree = _adopt(seq_store, "rtree", 3, facts)
        bat_tree = _adopt(bat_store, "rtree", 3, facts)
        victim, resident = _corrupt_leaf(seq_store)
        _corrupt_leaf(bat_store)
        for tree in (seq_tree, bat_tree):
            tree.enable_quarantine()

        queries = np.concatenate([points[::150], points[resident[:4]]])
        expected = [seq_tree.knn(q, 10) for q in queries]
        got = knn_search_batch(bat_tree, queries, 10)

        assert got == expected
        assert bat_tree._quarantined == seq_tree._quarantined == {victim}
        assert (bat_tree.store.stats.reads_by_level
                == seq_tree.store.stats.reads_by_level)


def _inner_pages(store):
    return [pid for pid in sorted(store.page_ids())
            if not store.peek(pid).is_leaf]


class TestLazyInnerNode:
    """Inner pages decode as one block: geometry is sliced from the page
    body, and no predicate object is built."""

    @pytest.mark.parametrize("mmap_mode", [False, True])
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_block_geometry_equals_geometry_stacked_from_predicates(
            self, tmp_path, method, mmap_mode, points):
        """Every array an extension caches on a node — bounds, sphere
        and dual-rect parameters, the JB bite pack — is bit-identical
        whether sliced out of the block or stacked from decoded
        predicate objects (:func:`tests.gist.oracle.stacked_geometry`)."""
        path, *facts = _build_file(tmp_path, method, points)
        ext = make_ext(method, 3)
        queries = points[::300]
        with _open(path, method, 3, mmap_mode) as store:
            pages = _inner_pages(store)
            assert pages
            for pid in pages:
                lazy = store.read(pid)
                for q in queries:
                    cheap = ext.min_dists_node(lazy, q)
                    ext.refine_dists_node(lazy, q[None], cheap[None])
                    ext.penalties_node(lazy, q)
                want = stacked_geometry(ext,
                                        pred_objects(ext, store.read(pid)))
                assert sorted(lazy.cache) == sorted(want)
                for key, arrays in want.items():
                    assert len(lazy.cache[key]) == len(arrays), key
                    for a, b in zip(lazy.cache[key], arrays):
                        assert np.array_equal(a, b), key

    def test_predicates_materialize_one_at_a_time(self, tmp_path, points,
                                                   monkeypatch):
        """A node holds rows only, and a search builds no predicate
        object: the vectorized screen reads the node's bite pack, and
        the scalar ``refine_dist`` reads the bites of the one row it
        refines, one row per call, to the oracle's distance."""
        from repro.core.jbtree import JBExtension

        from tests.geometry.bite_oracle import decode
        path, *facts = _build_file(tmp_path, "xjb", points)
        ext = make_ext("xjb", 3)
        read = []
        row_bites = JBExtension._row_bites
        monkeypatch.setattr(JBExtension, "_row_bites",
                            lambda self, row: read.append(row.tobytes())
                            or row_bites(self, row))
        with _open(path, "xjb", 3, True) as store:
            node = store.read(_inner_pages(store)[0])
            q = points[0] + 5.0
            cheap = ext.min_dists_node(node, q)
            ext.refine_dists_node(node, q[None], cheap[None])
            assert read == []
            row = node.pred_block()[1]
            tight = ext.refine_dist(row, q, cheap[1])
            assert read == [row.tobytes()]
            assert tight == max(cheap[1], decode(ext.pred_codec(),
                                                 row).min_dist(q))

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_mutation_through_block_backed_inner_nodes_stays_sound(
            self, tmp_path, method):
        """MutableTree insert/delete through page-decoded inner nodes,
        whose blocks are rebuilt as their entries are added, removed and
        replaced (the next test pins the copies they edit): the tree
        stays sound and queryable."""
        from repro.analysis.treecheck import check_tree
        from repro.gist.mutable import MutableTree
        from repro.gist.persist import save_tree
        rng = np.random.default_rng(5)
        base = rng.normal(size=(400, 3))
        path = str(tmp_path / "m.gist")
        save_tree(bulk_load(make_ext(method, 3), base,
                            page_size=_page_size(method)), path)
        fresh = rng.normal(size=(40, 3)) * 3.0      # widens predicates
        with MutableTree.open(path, extension=make_ext(method, 3)) as mt:
            assert not mt.tree._peek(mt.tree.root_id).is_leaf
            for i, key in enumerate(fresh):
                mt.insert(key, 10_000 + i)
            for i in range(0, 40, 2):
                assert mt.delete(fresh[i], 10_000 + i)
            for i in range(0, 60, 3):
                assert mt.delete(base[i], i)
            report = check_tree(mt.tree, check_fill=False)
            assert report.clean, report.render()
            keep = np.ones(len(base), dtype=bool)
            keep[0:60:3] = False
            alive = np.concatenate([base[keep], fresh[1::2]])
            for q in alive[::37]:
                got = [d for d, _ in mt.tree.knn(q, 8)]
                want = np.sort(np.sqrt(((alive - q) ** 2).sum(axis=1)))[:8]
                assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_mutators_edit_copies_of_the_block_arrays(self, tmp_path,
                                                       points):
        """A mutated page-decoded node holds edited copies of its block:
        the edited row is the row installed, and the page bytes do not
        change until the node is written — over pread and mmap images."""
        for method, mmap_mode in itertools.product(("rtree", "xjb"),
                                                   (False, True)):
            path, *facts = _build_file(tmp_path, method, points,
                                       name=f"{method}-{mmap_mode}.bin")
            with _open(path, method, 3, mmap_mode) as store:
                pid = _inner_pages(store)[0]
                for mutate, at, edit in (
                        (lambda n, r: n.set_row(0, r), 0, lambda c: c),
                        (lambda n, r: n.append(r, 777), -1,
                         lambda c: c + [777]),
                        (lambda n, r: n.remove(0), None,
                         lambda c: c[1:])):
                    node = store.read(pid)
                    image = store._read_raw(pid)
                    children = node.children()
                    row = store.read(_inner_pages(store)[-1]).pred_block()[0]
                    mutate(node, row)
                    assert node.cache == {}
                    assert node.children() == edit(children)
                    if at is not None:
                        assert np.array_equal(node.pred_block()[at], row)
                    assert store._read_raw(pid) == image
                    store.write(node)
                    written = store.read(pid)
                    assert written.children() == node.children()
                    assert np.array_equal(written.pred_block(),
                                          node.pred_block())

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_damaged_inner_body_names_the_entry_offset(self, tmp_path,
                                                       method, points):
        """Damage the checksum cannot see (the page is resealed): a NaN
        in an entry, a value its constructor rejects, a body cut short
        — all typed errors naming the first bad entry's page offset."""
        import struct
        from repro.storage.integrity import seal_image
        from repro.storage.page import PAGE_HEADER_SIZE
        path, *facts = _build_file(tmp_path, method, points)
        with _open(path, method, 3, False) as store:
            pid = _inner_pages(store)[0]
            size = store.codec.index_codec.size
            image = store._read_raw(pid)
            count = struct.unpack_from("<i", image, 12)[0]
            assert count >= 2
            second = PAGE_HEADER_SIZE + size

            def reread(damaged):
                store._write_raw(pid, seal_image(bytes(damaged)))
                store.flush()
                return store.read(pid)

            poisoned = bytearray(image)
            struct.pack_into("<d", poisoned, second + 8, float("nan"))
            with pytest.raises(PageCorruptError) as err:
                reread(poisoned)
            assert f"page {pid}: undecodable entry at offset {second}: " \
                "non-finite number" in str(err.value)
            assert path in str(err.value)

            # first number of every family's predicate is a rect low
            # bound or a center; the number after the rect/center block
            # is a high bound or a radius — push it below.
            invalid = bytearray(image)
            if method == "sstree":
                struct.pack_into("<d", invalid, second + 3 * 8, -1.0)
            else:
                struct.pack_into("<d", invalid, second + 3 * 8, -1e9)
            with pytest.raises(PageCorruptError,
                               match=f"undecodable entry at offset "
                                     f"{second}: "):
                reread(invalid)

            body = image[PAGE_HEADER_SIZE:PAGE_HEADER_SIZE + count * size]
            with pytest.raises(PageCorruptError) as err:
                store.codec.index_codec.decode_block(body[:-5], count)
            last = PAGE_HEADER_SIZE + (count - 1) * size
            assert f"undecodable entry at offset {last}: body ends " \
                f"inside entry {count - 1} of {count}" in str(err.value)
            reread(image)                           # and back to sound
