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
    # a bite-volume estimate draws from an unseeded generator.
    ("src/repro/geometry/bites.py",
     "            return 1.0\n        rng = np.random.default_rng(seed)",
     "            return 1.0\n        rng = np.random.default_rng()",
     "unseeded_rng"),
    # a new node is written beneath the WAL wrapper.
    ("src/repro/gist/tree.py",
     "self.index_codec.pred_codec)\n        self.store.write(node)",
     "self.index_codec.pred_codec)\n        self.store.base.write(node)",
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
     "rows = self._matrix().copy()", "rows = self._matrix()",
     "tests/storage/test_mmap_diskfile.py::TestLazyInnerNode::"
     "test_mutators_edit_copies_of_the_block_arrays"),
    # replacing an entry keeps the old row instead of encoding the
    # installed predicate into it.
    ("src/repro/gist/node.py",
     "rows[index] = row[0]", "rows[index] = rows[index]",
     "tests/gist/test_persist.py::TestOneRepresentation"),
    # a point on a bite's open inner face counts as bitten away.
    ("src/repro/core/jbtree.py",
     "(p >= blo) & (p < bhi)", "(p >= blo) & (p <= bhi)",
     "tests/gist/test_contains_node.py::"
     "test_contains_node_matches_the_per_entry_loop"),
    # a shard tree ranks sq8 leaves with no exact keys attached.
    ("src/repro/serving/worker.py",
     "        tree.exact = reduced\n", "",
     "tests/serving/test_quantized_shard_differential.py"),
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
    # a page file's read_many demands an argument the protocol never
    # passes.
    ("src/repro/storage/diskfile.py",
     "def read_many(self, page_ids: Sequence[int]) -> List[Node]:",
     "def read_many(self, page_ids: Sequence[int],\n"
     "                  limit: int) -> List[Node]:",
     "tests/conventions/test_conventions.py::"
     "test_page_files_match_the_protocol"),
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
