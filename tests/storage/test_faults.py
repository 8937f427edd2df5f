"""Fault injection: deterministic failures, and the layers that mask them."""

import numpy as np
import pytest

from repro.ams import RTreeExtension
from repro.gist import GiST
from repro.gist.node import Node
from repro.storage import (BufferPool, PageCorruptError, RetryPolicy,
                           TransientIOError)
from repro.storage.diskfile import FilePageFile
from repro.storage.faults import FaultPolicy, FaultyPageFile

from tests.storage.test_diskfile_resilience import _FlakyFile


def _mem_store_with(n):
    """An in-memory tree's store (a resident pool over an anonymous page
    file): it exposes no raw slot access."""
    store = GiST(RTreeExtension(2), page_size=1024).store
    nodes = []
    for _ in range(n):
        node = Node(store.allocate(), 0)
        store.write(node)
        nodes.append(node)
    return store, nodes


def _disk_store(tmp_path, n=4, **kwargs):
    ext = RTreeExtension(2)
    store = FilePageFile.for_extension(str(tmp_path / "pages.bin"), ext,
                                       page_size=1024, **kwargs)
    nodes = []
    for i in range(n):
        node = Node(store.allocate(), 0)
        store.write(node)
        nodes.append(node)
    return store, nodes


class TestDeterminism:
    def test_same_seed_same_fault_sequence(self):
        def run(seed):
            store, nodes = _mem_store_with(1)
            faulty = FaultyPageFile(store, FaultPolicy(
                seed=seed, transient_read_rate=0.5))
            outcomes = []
            for _ in range(50):
                try:
                    faulty.read(nodes[0].page_id)
                    outcomes.append("ok")
                except TransientIOError:
                    outcomes.append("fault")
            return outcomes

        assert run(7) == run(7)
        assert run(7) != run(8)      # astronomically unlikely to collide
        assert "fault" in run(7) and "ok" in run(7)

    def test_max_faults_caps_injection(self):
        store, nodes = _mem_store_with(1)
        faulty = FaultyPageFile(store, FaultPolicy(
            transient_read_rate=1.0, max_faults=2))
        for _ in range(2):
            with pytest.raises(TransientIOError):
                faulty.read(nodes[0].page_id)
        faulty.read(nodes[0].page_id)    # budget exhausted: no more faults
        assert faulty.injected.transient == 2


class TestForcedTransients:
    def test_fail_next_reads_then_success(self):
        store, nodes = _mem_store_with(1)
        faulty = FaultyPageFile(store)
        faulty.fail_next_reads(nodes[0].page_id, 2)
        for _ in range(2):
            with pytest.raises(TransientIOError):
                faulty.read(nodes[0].page_id)
        assert faulty.read(nodes[0].page_id).page_id == nodes[0].page_id

    def test_transients_below_retry_budget_fully_masked(self, tmp_path):
        """The acceptance scenario: an interrupted slot read is retried
        where it arises, in the page file, and a pool in front sees
        only the page."""
        sleeps = []
        store, nodes = _disk_store(tmp_path,
                                   retry=RetryPolicy(attempts=4, seed=1),
                                   sleep=sleeps.append)
        store._file = _FlakyFile(store._file, failures=3)
        pool = BufferPool(store, capacity_pages=4)
        node = pool.read(nodes[0].page_id)     # 3 faults, 4th try wins
        assert node.page_id == nodes[0].page_id
        assert store._file.attempts == 4
        assert len(sleeps) == 3
        assert all(s > 0 for s in sleeps)
        assert sleeps[0] < sleeps[-1]          # backoff grew

    def test_transients_beyond_retry_budget_escape(self, tmp_path):
        """The pool retries nothing, so a read that keeps failing is
        attempted the page file's default budget of times, not that
        budget squared."""
        sleeps = []
        store, nodes = _disk_store(tmp_path, sleep=sleeps.append)
        store._file = _FlakyFile(store._file, failures=100)
        pool = BufferPool(store, capacity_pages=4)
        with pytest.raises(TransientIOError):
            pool.read(nodes[0].page_id)
        assert store._file.attempts == RetryPolicy().attempts == 4
        assert len(sleeps) == 3

    def test_backoff_delays_are_bounded_and_jittered(self):
        policy = RetryPolicy(attempts=6, base_delay=0.01, multiplier=4.0,
                             max_delay=0.05, jitter=0.25, seed=3)
        delays = list(policy.delays())
        assert len(delays) == 5
        assert all(d <= 0.05 * 1.25 for d in delays)
        assert list(policy.delays()) == delays   # deterministic


class TestBitFlips:
    def test_bitflip_on_disk_detected_by_checksum(self, tmp_path):
        store, nodes = _disk_store(tmp_path)
        faulty = FaultyPageFile(store, FaultPolicy(
            seed=5, bitflip_read_rate=1.0))
        with pytest.raises(PageCorruptError):
            faulty.read(nodes[0].page_id)
        assert faulty.injected.bitflips == 1
        # The flip was in-memory: the page itself is still fine.
        assert store.read(nodes[0].page_id).page_id == nodes[0].page_id

    def test_corrupt_page_is_persistent(self, tmp_path):
        store, nodes = _disk_store(tmp_path)
        faulty = FaultyPageFile(store)
        faulty.corrupt_page(nodes[1].page_id, bit=300 * 8)  # in the body
        with pytest.raises(PageCorruptError):
            store.read(nodes[1].page_id)
        # Header-only membership still answers True: present but corrupt.
        assert nodes[1].page_id in store

    def test_bitflip_without_raw_access_models_detection(self):
        store, nodes = _mem_store_with(1)
        faulty = FaultyPageFile(store, FaultPolicy(bitflip_read_rate=1.0))
        with pytest.raises(PageCorruptError):
            faulty.read(nodes[0].page_id)


def _wide_leaf(page_id):
    """A 30-entry leaf: its body crosses the middle of a page."""
    keys = np.stack([np.arange(30.0), np.zeros(30)], axis=1)
    return Node.leaf_from_arrays(page_id, keys, np.arange(30))


class TestWriteFaults:
    def test_torn_write_breaks_seal_on_disk(self, tmp_path):
        store, nodes = _disk_store(tmp_path)
        faulty = FaultyPageFile(store, FaultPolicy(torn_write_rate=1.0))
        # Payload must cross the page midpoint, or tearing the (all-zero)
        # tail is a no-op and the seal survives — which would be correct.
        nodes[0] = _wide_leaf(nodes[0].page_id)
        faulty.write(nodes[0])
        with pytest.raises(PageCorruptError):
            store.read(nodes[0].page_id)
        assert faulty.injected.torn == 1

    def test_dropped_write_serves_previous_version(self):
        store, nodes = _mem_store_with(1)
        faulty = FaultyPageFile(store, FaultPolicy(drop_write_rate=1.0))
        replacement = Node(nodes[0].page_id, 1)
        faulty.write(replacement)
        assert faulty.injected.dropped == 1
        assert store.read(nodes[0].page_id).level == 0   # lost write

    def test_write_many_matches_sequential_fault_accounting(self, tmp_path):
        """Batched writes take the per-node fault path: same seed, same
        torn/dropped sequence and the same injected counts as a loop of
        single writes."""
        def run(batched):
            subdir = tmp_path / ("batched" if batched else "sequential")
            subdir.mkdir()
            store, nodes = _disk_store(subdir, n=6)
            nodes = [_wide_leaf(node.page_id) for node in nodes]
            faulty = FaultyPageFile(store, FaultPolicy(
                seed=9, torn_write_rate=0.5, drop_write_rate=0.25))
            if batched:
                faulty.write_many(nodes)
            else:
                for node in nodes:
                    faulty.write(node)
            outcomes = []
            for node in nodes:
                try:
                    outcomes.append(store.read(node.page_id).page_id)
                except PageCorruptError:
                    outcomes.append("torn")
            counts = (faulty.injected.torn, faulty.injected.dropped)
            store.close()
            return outcomes, counts

        seq_outcomes, seq_counts = run(batched=False)
        bat_outcomes, bat_counts = run(batched=True)
        assert bat_outcomes == seq_outcomes
        assert bat_counts == seq_counts
        # The seed actually injected both fault kinds into this batch.
        assert bat_counts[0] > 0 and bat_counts[1] > 0

    def test_stale_read_returns_old_version(self):
        store, nodes = _mem_store_with(1)
        faulty = FaultyPageFile(store, FaultPolicy(stale_read_rate=1.0))
        replacement = Node(nodes[0].page_id, 1)
        faulty.write(replacement)
        assert faulty.read(nodes[0].page_id).level == 0  # the old node
        assert faulty.injected.stale == 1
        assert faulty.peek(nodes[0].page_id).level == 1  # peek honest

    def test_stale_read_is_booked_by_the_tree(self):
        """A query that is served a stale node still read a page: the
        tree books it and tells its listeners."""
        store = FilePageFile.for_extension(None, RTreeExtension(2),
                                           page_size=1024)
        faulty = FaultyPageFile(store, FaultPolicy(stale_read_rate=1.0,
                                                   seed=1))
        tree = GiST(RTreeExtension(2), store=faulty, page_size=1024)
        tree.insert(np.array([0.0, 0.0]), 0)
        tree.insert(np.array([1.0, 1.0]), 1)   # rewrites the root leaf
        seen = []
        tree.add_listener(lambda pid, lvl: seen.append((pid, lvl)))
        tree.knn(np.array([0.0, 0.0]), 1)
        assert faulty.injected.stale >= 1
        assert tree.stats.reads == 1
        assert seen == [(tree.root_id, 0)]
        store.close()


class TestPassthrough:
    def test_faultless_wrapper_is_transparent(self, tmp_path):
        store, nodes = _disk_store(tmp_path)
        faulty = FaultyPageFile(store)
        assert faulty.read(nodes[0].page_id).page_id == nodes[0].page_id
        assert nodes[0].page_id in faulty
        assert len(faulty) == len(store)
        assert sorted(faulty.page_ids()) == sorted(store.page_ids())
        assert faulty.injected.total == 0
        assert faulty.stats is store.stats
        faulty.flush()
        faulty.close()
