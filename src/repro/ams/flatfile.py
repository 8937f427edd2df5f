"""The flat-file sequential scan baseline (paper section 3.2).

"To be worthwhile, AM performance *must* be faster than simply scanning
a flat file of the five-dimensional feature vectors."  This module
makes that comparator a first-class object: vectors packed into
sequential pages, k-NN by full scan, with page counts and modeled times
that plug into the same analysis as the trees.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.constants import DEFAULT_PAGE_SIZE, NUMBER_SIZE
from repro.storage.iomodel import DiskModel
from repro.storage.page import entries_per_page

#: bytes the scan's ``(Q, chunk)`` float64 work buffers occupy together,
#: small enough that a chunk's accumulate passes stay in a core's L2
#: (0.5 to 2 MB scan equally fast; 4 MB is 1.4x slower, 8 MB 2x).
_WORK_BYTES = 2 << 20

#: queries one pass of the kernel serves.  The work buffers hold
#: ``(Q, chunk)`` values, so a larger block means a narrower chunk and
#: more per-chunk overhead per query: over 221,231 5-D rows (2-core
#: x86 host) one pass of 64 to 256 queries costs ~2.0 ms a query, runs
#: of 32 ~1.5.  Cutting blocks into runs keeps the cost per query flat
#: in Q, which is what lets the planner price the scan linearly.
QUERIES_PER_PASS = 32

#: the survivor pool is compacted when it passes this many times Q * k.
_POOL_FACTOR = 4

#: Up to three neighboring doubles share one ``sqrt``, so a row just
#: above the k-th *squared* distance can tie the k-th *distance* and
#: win on position.  The running bound therefore keeps 8 ulps of slack;
#: the final cut is made on the ``sqrt`` values themselves.
_BOUND_SLACK = 1.0 + 2.0 ** -49


def _sum_plan(dim: int) -> Tuple[List[Tuple[int, int, int]], int]:
    """The order in which ``.sum(axis=-1)`` adds ``dim`` contiguous terms.

    Returns ``(steps, registers)``.  A step ``(j, dst, -1)`` loads term
    ``j`` (for the scan, dimension ``j``'s squared difference) into
    register ``dst``; ``(-1, dst, src)`` adds register ``src`` into
    ``dst``; the total ends in register 0.  This mirrors
    numpy's pairwise summation — left to right under 8 terms, eight
    interleaved lanes combined as a tree up to 128, halves beyond —
    so accumulating the scan one dimension at a time rounds exactly as
    the row-at-a-time expression ``((v - q) ** 2).sum(axis=-1)`` does.
    """
    steps: List[Tuple[int, int, int]] = []
    free: List[int] = []
    registers = 0

    def alloc() -> int:
        nonlocal registers
        if free:
            return free.pop()
        registers += 1
        return registers - 1

    def add_terms(lo: int, hi: int, lanes: List[int], tmp: int) -> None:
        for j in range(lo, hi):
            steps.append((j, tmp, -1))
            steps.append((-1, lanes[(j - lo) % len(lanes)], tmp))

    def build(lo: int, hi: int, out: int) -> None:
        n = hi - lo
        if n > 128:
            half = n // 2 - (n // 2) % 8
            build(lo, lo + half, out)
            right = alloc()
            build(lo + half, hi, right)
            steps.append((-1, out, right))
            free.append(right)
            return
        width = 8 if n >= 8 else 1
        lanes = [out] + [alloc() for _ in range(width - 1)]
        tmp = alloc()
        for j, lane in enumerate(lanes):
            steps.append((lo + j, lane, -1))
        tail = hi - n % width
        add_terms(lo + width, tail, lanes, tmp)
        if width == 8:
            for a, b in ((0, 1), (2, 3), (0, 2), (4, 5), (6, 7), (4, 6),
                         (0, 4)):
                steps.append((-1, lanes[a], lanes[b]))
        add_terms(tail, hi, [out], tmp)
        free.extend(lanes[1:])
        free.append(tmp)

    if dim:
        build(0, dim, alloc())
    return steps, max(registers, 1)


class FlatFile:
    """Vectors in sequential pages; every query scans all of them."""

    def __init__(self, vectors: np.ndarray,
                 page_size: int = DEFAULT_PAGE_SIZE):
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise ValueError("vectors must be a 2-D (n, dim) array")
        if not np.isfinite(vectors).all():
            raise ValueError("vectors must be finite (no NaN or inf)")
        self.vectors = vectors
        self.page_size = page_size
        entry = (vectors.shape[1] + 1) * NUMBER_SIZE
        self.entries_per_page = entries_per_page(page_size, entry)
        #: pages scanned so far (sequential reads)
        self.pages_read = 0
        # What the scan walks: one contiguous row per dimension, copied
        # here once so no call ever strides through ``vectors``.
        self._columns = np.ascontiguousarray(vectors.T)
        self._steps, self._registers = _sum_plan(vectors.shape[1])

    @property
    def num_pages(self) -> int:
        return max(1, math.ceil(len(self.vectors)
                                / self.entries_per_page))

    def knn(self, query: np.ndarray, k: int) -> List[Tuple[float, int]]:
        """Exact k-NN by scanning every page: a block of one query."""
        query = np.asarray(query, dtype=np.float64)
        if query.ndim != 1:
            raise ValueError("query must be a 1-D (dim,) vector")
        return self.knn_batch(query[None, :], k)[0]

    def knn_batch(self, queries, k: int) -> List[List[Tuple[float, int]]]:
        """k-NN for a block of queries off one shared scan.

        One scan of the file serves the whole block (``pages_read``
        grows by ``num_pages`` once: a page file would read each page
        once and hand it to every run of :data:`QUERIES_PER_PASS`
        queries).  Each row lists ``(distance, rid)`` by ascending
        distance, ties by position in the file; a row's rid is its
        position.
        """
        dists, rids = self._scan(queries, k)
        return [list(zip(d, r))
                for d, r in zip(dists.tolist(), rids.tolist())]

    def _check_queries(self, queries, k: int) -> np.ndarray:
        """The one ingress check: a finite ``(Q, dim)`` float64 block."""
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2:
            raise ValueError("queries must be a 2-D (q, dim) array")
        if queries.shape[1] != self.vectors.shape[1]:
            raise ValueError(
                f"queries have {queries.shape[1]} dimensions, "
                f"the file has {self.vectors.shape[1]}")
        if not np.isfinite(queries).all():
            raise ValueError("queries must be finite (no NaN or inf)")
        return queries

    def _scan(self, queries, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """The scan kernel: ``(Q, min(k, n))`` distances and positions.

        A row depends on its own query only, so the block is served in
        runs of at most :data:`QUERIES_PER_PASS` queries and the runs'
        rows stacked.
        """
        queries = self._check_queries(queries, k)
        self.pages_read += self.num_pages
        runs = [self._scan_run(queries[i:i + QUERIES_PER_PASS], k)
                for i in range(0, max(len(queries), 1), QUERIES_PER_PASS)]
        if len(runs) == 1:
            return runs[0]
        dists, rids = zip(*runs)
        return np.concatenate(dists), np.concatenate(rids)

    def _scan_run(self, queries: np.ndarray,
                  k: int) -> Tuple[np.ndarray, np.ndarray]:
        """One pass over the file for a run of checked queries.

        Walks the column-major copy in chunks small enough that the
        ``(Q, chunk)`` work buffers stay cache-resident, accumulates
        the squared distance one dimension at a time in the order
        :func:`_sum_plan` fixes, and keeps only the entries at or under
        each query's running k-th squared distance.  Survivors stay in
        scan order — by chunk, then query, then position — so a stable
        sort on distance leaves ties in position order.
        """
        n, num_q = len(self.vectors), len(queries)
        chunk = max(1, _WORK_BYTES // (8 * self._registers * max(num_q, 1)))
        # zeros, not empty: a zero-width file has no step to write them
        work = np.zeros((self._registers, num_q, min(chunk, n)))
        under = np.empty(work.shape[1:], dtype=bool)
        query_cols = queries.T[:, :, None]
        bound = np.full(num_q, np.inf)
        # survivors, as (query, position, squared distance) pieces
        pool = [(np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp),
                 np.empty(0))]
        held = 0
        limit = _POOL_FACTOR * num_q * k
        for start in range(0, n, chunk):
            cols = self._columns[:, start:start + chunk]
            regs = work[:, :, :cols.shape[1]]
            for j, dst, src in self._steps:
                if j >= 0:
                    np.subtract(cols[j], query_cols[j], out=regs[dst])
                    np.multiply(regs[dst], regs[dst], out=regs[dst])
                else:
                    np.add(regs[dst], regs[src], out=regs[dst])
            mask = under[:, :cols.shape[1]]
            np.less_equal(regs[0], bound[:, None], out=mask)
            # flat indices: nonzero is several times faster on 1-D
            hits = np.flatnonzero(mask.ravel())
            hit_q, hit_col = np.divmod(hits, cols.shape[1])
            pool.append((hit_q, hit_col + start, regs[0].ravel()[hits]))
            held += len(hits)
            if held <= limit:
                continue
            pool_q, pool_pos, pool_sq = map(np.concatenate, zip(*pool))
            # Tighten each bound to the k-th smallest its query holds.
            order = np.argsort(pool_q)
            grouped = pool_sq[order]
            first = np.searchsorted(pool_q[order], np.arange(num_q + 1))
            for qi in np.flatnonzero(np.diff(first) >= k):
                mine = grouped[first[qi]:first[qi + 1]]
                bound[qi] = np.partition(mine, k - 1)[k - 1] * _BOUND_SLACK
            keep = pool_sq <= bound[pool_q]
            pool = [(pool_q[keep], pool_pos[keep], pool_sq[keep])]
            held = int(keep.sum())
            limit = max(limit, 2 * held)
        pool_q, pool_pos, pool_sq = map(np.concatenate, zip(*pool))
        pool_d = np.sqrt(pool_sq)
        order = np.lexsort((pool_d, pool_q))
        first = np.searchsorted(pool_q[order], np.arange(num_q))
        best = order[first[:, None] + np.arange(min(k, n))]
        return pool_d[best], pool_pos[best]

    def scan_time_ms(self, model: Optional[DiskModel] = None) -> float:
        """Modeled wall time of one full scan."""
        if model is None:
            model = DiskModel(page_size=self.page_size)
        return model.scan_ms(self.num_pages)

    def breakeven_random_reads(self,
                               model: Optional[DiskModel] = None) -> int:
        """Random page reads that cost as much as one full scan —
        the budget an access method must stay under (section 3.2)."""
        if model is None:
            model = DiskModel(page_size=self.page_size)
        return int(model.scan_ms(self.num_pages) / model.random_io_ms)
