"""Seeded one-line mutations of live source, and the runner that proves
each one is caught.

Every row of :data:`MUTATIONS` is ``(path, anchor, replacement,
target)``: ``path`` is relative to the repo root, ``anchor`` must occur
in it exactly once (tier-1 asserts that, so a row can never mutate the
wrong line), and ``target`` names what must notice the mutation:

- the name of a convention check in
  ``tests/conventions/test_conventions.py``: tier-1 applies the row in
  memory and requires the check to report a line;
- a pytest node id (anything under ``tests/``): a runtime row.  Running
  this file applies each runtime row to the tree, runs its target,
  requires pytest exit code 1 (a test failure, not a collection error)
  and restores the file whatever the outcome::

      python tests/mutations.py
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

_ORDER = "tests/storage/test_wal.py::TestProtocolOrdering::"

MUTATIONS = [
    # -- convention checks ---------------------------------------------
    # the bulk loader stamps calendar time.
    ("src/repro/bulk/loader.py",
     "t_start = time.perf_counter()", "t_start = time.time()",
     "wall_clock"),
    # the probe carve scatters its face probes from an unseeded generator.
    ("src/repro/geometry/bites.py",
     "rng = np.random.default_rng(seed)", "rng = np.random.default_rng()",
     "unseeded_rng"),
    # a new node is written beneath the WAL wrapper.
    ("src/repro/gist/tree.py",
     "level, rows, ids)\n        self.store.write(node)",
     "level, rows, ids)\n        self.store.base.write(node)",
     "unlogged_write"),
    # remapping swallows every exception, not just the live-view one.
    ("src/repro/storage/diskfile.py",
     "except BufferError:", "except Exception:",
     "broad_except"),
    # a raw slot read raises an untyped KeyError.
    ("src/repro/storage/diskfile.py",
     'no decode."""\n        if page_id < 1:\n'
     '            raise PageMissingError(',
     'no decode."""\n        if page_id < 1:\n'
     '            raise KeyError(',
     "untyped_raise"),
    # the mmap read path hands out a byte copy instead of a view.
    ("src/repro/storage/diskfile.py",
     "return memoryview(self._map)[start:start + self.page_size]",
     "return bytes(memoryview(self._map)[start:start + self.page_size])",
     "byte_copy"),
    # leaf decode copies the keys it should return as a view.
    ("src/repro/storage/codecs.py",
     "return keys[:, :self.dim], rids[:, self.dim]",
     "return keys[:, :self.dim].copy(), rids[:, self.dim]",
     "decode_copy"),
    # k-NN materializes its query as float64 up front.
    ("src/repro/gist/nn.py",
     "query = check_queries(tree, query, 1, k)\n",
     "query = check_queries(tree, query, 1, k).astype('f8')\n",
     "eager_dequantize"),
    # -- runtime tests --------------------------------------------------
    # commit applies the page images before they reach the log.
    ("src/repro/storage/wal.py",
     "lsn = self.wal.append_transaction(",
     "self._apply_images(pages, meta_image)\n"
     "            lsn = self.wal.append_transaction(",
     _ORDER + "test_insert_logs_before_it_writes_the_data_file"),
    # checkpoint resets the log before the data file is fsynced.
    ("src/repro/storage/wal.py",
     "        os.fsync(self.base._file.fileno())\n"
     "        self.wal.reset()\n",
     "        self.wal.reset()\n"
     "        os.fsync(self.base._file.fileno())\n",
     _ORDER + "test_checkpoint_fsyncs_the_data_file_before_reset"),
    # a forked shard worker serves its inherited file objects.
    ("src/repro/serving/worker.py",
     '    reopen_files(shard["tree"].store)\n', "",
     "tests/serving/test_worker_reopen.py"),
    # inner pages decode without the predicate codec's checks.
    ("src/repro/storage/codecs.py",
     " \\\n            or self.pred_codec.block_error(preds)", "",
     "tests/gist/test_persist_hostile.py::TestOneDecoderOneVerdict"),
    # a mutated inner node writes through the page it was read from.
    ("src/repro/gist/node.py",
     "rows = self.rows().copy()", "rows = self.rows()",
     "tests/storage/test_mmap_diskfile.py::TestLazyInnerNode::"
     "test_mutators_edit_copies_of_the_block_arrays"),
    # setting a row keeps the old one instead of the row installed.
    ("src/repro/gist/node.py",
     "rows[index] = row\n", "rows[index] = rows[index]\n",
     "tests/gist/test_persist.py::TestOneRepresentation"),
    # a point on a bite's open inner face counts as bitten away.
    ("src/repro/geometry/bites.py",
     "(p >= blo) & (p < bhi)", "(p >= blo) & (p <= bhi)",
     "tests/gist/test_contains_node.py::"
     "test_contains_node_matches_the_per_entry_loop"),
    # the bite-aware box search closes every bite's open inner face, so
    # a clamp point on one sends the search past the true distance.
    ("src/repro/geometry/bites.py",
     "hits = np.flatnonzero(in_bites(p, blo, bhi, blow))",
     "hits = np.flatnonzero(np.all((p >= blo) & (p <= bhi), axis=-1))",
     "tests/core/test_jb_rows.py::"
     "test_refine_dist_matches_the_object_min_dist"),
    # a JB/XJB row covers every key inside its MBR, bitten or not.
    ("src/repro/core/jbtree.py",
     "        return not in_bites(key, blo, bhi, blow).any()\n",
     "        return True\n",
     "tests/core/test_jb_rows.py::test_covers_key_matches_contains_node"),
    # a shard tree ranks sq8 leaves with no exact keys attached.
    ("src/repro/serving/worker.py",
     "        tree.exact = reduced\n", "",
     "tests/serving/test_quantized_shard_differential.py"),
    # a shard that answers with an error reply is taken for dead.
    ("src/repro/serving/coordinator.py",
     '            if "error" in reply:\n',
     '            if "error" in reply:\n'
     '                self._shard_down(handle, RuntimeError("error"))\n',
     "tests/serving/test_daemon.py::TestDegradedMode::"
     "test_worker_application_error_is_a_bug_not_an_outage"),
    # a control message (stats, ping) is booked as a degraded request.
    ("src/repro/serving/coordinator.py",
     "        self._collect(req)\n        return req.parts\n",
     "        self._collect(req)\n        return self._settle(req)\n",
     "tests/serving/test_daemon.py::TestDegradedMode::"
     "test_control_messages_are_never_degraded_requests"),
    # k-NN keeps its waiting candidates in distance order alone, so
    # equal distances leave in arrival order instead of by rid.
    ("src/repro/gist/nn.py",
     'order = np.argsort(cand_d + 1j * cand_r, kind="stable")',
     'order = cand_d.argsort(kind="stable")',
     "tests/gist/test_kernel_differential.py"),
    # k-NN compares subtree bounds with no rounding slack.
    ("src/repro/gist/nn.py",
     "SLACK_ULPS = 16\n", "SLACK_ULPS = 0\n",
     "tests/gist/test_expanding.py::TestSphereSearch::"
     "test_key_at_the_radius_under_a_bound_rounded_up"),
    # a sphere bound drops the rounding slack its subtraction needs.
    ("src/repro/ams/sstree.py",
     "gaps - radii - slack(len(q)) * (gaps + radii)", "gaps - radii",
     "tests/ams/test_srtree.py::TestDistances::"
     "test_a_key_on_a_sphere_surface_keeps_its_rank"),
    # the page seal check takes every page for the current epoch, so an
    # epoch-1 page fails on its CRC, not by name.
    ("src/repro/storage/integrity.py",
     "stored, epoch = _CHECKSUM.unpack_from(view, CHECKSUM_OFFSET)\n",
     "stored, epoch = _CHECKSUM.unpack_from(view, CHECKSUM_OFFSET)[0], "
     "FORMAT_EPOCH\n",
     "tests/storage/test_epoch1_refused.py::"
     "test_load_tree_refuses_an_epoch1_index"),
    # the log keeps the version whose records were sealed with CRC32C:
    # recovery reads every such record as a torn tail and truncates it.
    ("src/repro/storage/wal.py",
     "_WAL_VERSION = 2\n", "_WAL_VERSION = 1\n",
     "tests/storage/test_epoch1_refused.py::"
     "test_mutable_open_refuses_a_v1_log_and_changes_no_byte"),
    # a page file's peek demands an argument the protocol never passes.
    ("src/repro/storage/diskfile.py",
     "def peek(self, page_id: int) -> Node:",
     "def peek(self, page_id: int, limit: int) -> Node:",
     "tests/conventions/test_conventions.py::"
     "test_page_files_match_the_protocol"),
    # an insert stops adjusting at the first ancestor on its path, as
    # if every predicate already covered the new key.
    ("src/repro/gist/tree.py",
     "                        and ext.covers_key(row, routing_key)):\n",
     "                        or ext.covers_key(row, routing_key)):\n",
     "tests/storage/test_golden_format.py::"
     "test_every_artefact_is_byte_identical_to_the_parents"),
    # a quantized tree takes an insert with no exact key for its rid.
    ("src/repro/gist/tree.py",
     "        self._check_exact(rid)\n        self._insert_entry(",
     "        self._insert_entry(",
     "tests/gist/test_exact_writes.py"),
    # the tree's one counted read returns a node without booking it.
    ("src/repro/gist/tree.py",
     "        self.stats.record_read(node.level)\n", "",
     "tests/gist/test_batch_parity.py::TestAccessParity::"
     "test_store_counters_match_sequential_totals"),
    # the planner prices a bare store's misses as the distinct pages a
    # block touches, as if a cache shared them across its queries.
    ("src/repro/gist/planner.py",
     "            return num_queries * sum(visits)\n",
     "            return self._distinct_reads(num_queries, visits)\n",
     "tests/gist/test_planner.py::TestPlanChoice::"
     "test_misses_cost_more_than_hits"),
]


def row_id(row) -> str:
    """A short readable test id: the check name or the target's tail."""
    return row[3].split("::")[-1].split("/")[-1]


def main() -> int:
    """Apply each runtime row, demand pytest exit 1, restore the file."""
    missed = 0
    for path, anchor, replacement, target in MUTATIONS:
        if not target.startswith("tests/"):
            continue  # a convention-check row: tier-1 applies it
        source_file = REPO / path
        source = source_file.read_text()
        if source.count(anchor) != 1:
            print(f"{target}: anchor occurs {source.count(anchor)}x in "
                  f"{path}, want 1")
            missed += 1
            continue
        source_file.write_text(source.replace(anchor, replacement))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q",
                 "-p", "no:cacheprovider", target],
                cwd=REPO, capture_output=True, text=True,
                env=dict(os.environ, PYTHONPATH=str(REPO / "src")))
        finally:
            source_file.write_text(source)
        if proc.returncode == 1:
            print(f"{target}: caught the seeded mutation in {path}")
        else:
            print(f"{target} exited {proc.returncode} on mutated {path}, "
                  f"want 1:\n{proc.stdout}{proc.stderr}")
            missed += 1
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
