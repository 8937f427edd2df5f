"""Batched best-first k-NN: one shared traversal frontier per query block.

:func:`knn_search_batch` executes a block of nearest-neighbor queries
together while reproducing, query by query, the *exact* observable
behaviour of the sequential :func:`repro.gist.nn.knn_search` — the same
results (distances, rids, tie order, bit for bit) and the same counted
node accesses in the same per-query order.  What changes is the cost:

- **Shared fetches.**  Each page is fetched and decoded at most once per
  block.  The first query to need a page reads it through the tree's
  counted path; every later visitor books its logical access through
  ``store.record_access`` (same counters and listeners, no I/O) and
  reuses the decoded node — whose stacked geometry arrays
  (:meth:`~repro.gist.node.Node.cached`) are already warm.

- **Blocked kernels.**  When several queries expand the same node in the
  same round, their lower bounds are computed by one ``entries ×
  queries`` kernel (:meth:`~repro.gist.extension.GiSTExtension.
  min_dists_node_multi`), and for JB/XJB the bite-aware refinement is
  pre-screened for the whole matrix
  (:meth:`~repro.gist.extension.GiSTExtension.refine_dists_node`), so
  most entries never reach the scalar box search at all.

- **Sorted-run heaps.**  A node expansion pushes *one* heap item — a run
  of kept entries sorted by ``(dist, counter)`` — instead of one item
  per entry; popping a run element re-enqueues its successor, the
  classic k-way-merge trick.  At every moment the heap minimum equals
  the minimum over all outstanding sequential items (each run's head is
  its smallest remaining element), so pops, and even the heap-front
  value the lazy-refinement test inspects, are unchanged while heap
  traffic drops from O(entries) to O(pops).

Exactness rests on the per-query state machine consuming tie-break
counters precisely as the sequential loop does (root = 0, kept entries
in entry order at expansion, one per refinement re-queue) and on the
batch kernels being bit-identical to their scalar counterparts; see
DESIGN.md, "Batched query engine".
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.gist.nn import _update_tau

#: heap item kinds; never compared — (dist, counter) keys are unique.
_SINGLE = 0    # payload (page_id, level): the root, or a refined entry
_NODE_RUN = 1  # payload (run, pos)
_LEAF_RUN = 2  # payload (run, pos)

#: queries traversed together; bounds the block node cache's footprint.
DEFAULT_BLOCK_SIZE = 256

#: called as ``on_access(qid, page_id, level)`` for every logical
#: counted access, in each query's own access order.
AccessCallback = Callable[[int, int, int], None]


class _NodeRun:
    """Kept children of one expanded inner node, in heap-key order.

    Entries are referenced by index (``sel``) into the owning node so
    run construction is pure array work; the expensive per-entry
    attribute access happens once per *pop*, not once per kept entry.
    """

    __slots__ = ("dists", "counters", "node", "sel", "level",
                 "refined", "tights", "n")


class _LeafRun:
    """Kept point candidates of one expanded leaf, in heap-key order."""

    __slots__ = ("dists", "counters", "rids", "n")


class _QueryState:
    """One query's sequential search state, pausable at node reads."""

    __slots__ = ("qid", "q", "heap", "results", "topk", "tau",
                 "next_counter", "pending", "done")

    def __init__(self, qid: int, q: np.ndarray, root_id: int, height: int) -> None:
        self.qid = qid
        self.q = q
        # The root item consumes counter 0, exactly like the sequential
        # search's first next(counter).
        self.heap: list = [(0.0, 0, _SINGLE, (root_id, height - 1))]
        self.results: List[Tuple[float, int]] = []
        self.topk = np.empty(0, dtype=np.float64)
        self.tau: Optional[float] = None
        self.next_counter = 1
        self.pending: Optional[Tuple[int, int]] = None
        self.done = False


def knn_search_batch(tree: Any, queries: np.ndarray, k: int, block_size: Optional[int] = None,
                     on_access: Optional[AccessCallback] = None,
                     ) -> List[List[Tuple[float, int]]]:
    """k-NN results for every query, bit-identical to ``knn_search``.

    ``queries`` is a ``(Q, dim)`` array-like; the return value is one
    result list per query, in query order.  ``block_size`` caps how many
    queries share a traversal frontier (and hence how long decoded nodes
    are pinned); ``on_access`` observes every counted node access with
    its owning query id — the batched profiler's replacement for a store
    listener, which could not tell concurrent queries apart.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2:
        raise ValueError(f"queries must be (Q, dim), got {queries.shape}")
    if tree.root_id is None:
        return [[] for _ in range(len(queries))]
    size = block_size if block_size is not None else DEFAULT_BLOCK_SIZE
    if size < 1:
        raise ValueError(f"block_size must be positive, got {size}")
    results: List[List[Tuple[float, int]]] = []
    for start in range(0, len(queries), size):
        results.extend(_run_block(tree, queries[start:start + size], k,
                                  on_access, start))
    return results


def _run_block(tree: Any, queries: np.ndarray, k: int,
               on_access: Optional[AccessCallback],
               qid0: int) -> List[List[Tuple[float, int]]]:
    ext = tree.ext
    states = [_QueryState(qid0 + i, queries[i], tree.root_id, tree.height)
              for i in range(len(queries))]
    #: page id -> decoded node, or None for quarantined/corrupt pages.
    nodes: Dict[int, Optional[object]] = {}
    active = list(states)

    while active:
        # Advance every live query to its next needed node read.  Each
        # query performs its own pops/refinements in its own order, so
        # its observable event sequence matches a solo run exactly.
        requests: Dict[int, List[_QueryState]] = {}
        survivors = []
        for st in active:
            req = _advance(st, ext, k)
            if req is None:
                continue
            requests.setdefault(req[0], []).append(st)
            survivors.append(st)
        if not requests:
            break

        # Fetch every page this round still misses in one bulk read —
        # contiguous slot runs gather with a single pread/mmap slice and
        # batch-verify their seals.  Each query pends on exactly one
        # page per round, so its own access order (and therefore its
        # trace) is unaffected by when within the round the page lands.
        fresh = [pid for pid in requests if pid not in nodes]
        if fresh:
            nodes.update(tree._read_query_many(
                [(pid, requests[pid][0].pending[1]) for pid in fresh]))
        fresh_set = set(fresh)

        for page_id, waiters in requests.items():
            node = nodes[page_id]
            if page_id in fresh_set:
                # The bulk read counted the fetch once; attribute it to
                # the first waiter, as a solo read here would have.
                if node is not None and on_access is not None:
                    on_access(waiters[0].qid, page_id, node.level)
                repeats = waiters[1:]
            else:
                repeats = waiters
            if node is not None:
                for st in repeats:
                    tree.store.record_access(page_id, node.level)
                    if on_access is not None:
                        on_access(st.qid, page_id, node.level)
            for st in waiters:
                st.pending = None
            if node is None or not len(node):
                continue
            if node.is_leaf:
                _expand_leaf(waiters, node, k)
            else:
                _expand_inner(waiters, node, ext)
        active = survivors

    return [st.results for st in states]


def _advance(state: _QueryState, ext: Any, k: int) -> Optional[Tuple[int, int]]:
    """Run one query until it needs a node read; None when finished.

    Mirrors the sequential loop body statement for statement, with runs
    standing in for individually pushed entries.
    """
    heap = state.heap
    results = state.results
    q = state.q
    while True:
        if len(results) >= k or not heap:
            state.done = True
            return None
        # Popping a run element and enqueueing its successor is a single
        # heapreplace sift; the heap minimum afterwards is the same as
        # if every run element sat in the heap individually.
        dist, _, kind, payload = heap[0]

        if kind == _LEAF_RUN:
            run, pos = payload
            nxt = pos + 1
            if nxt < run.n:
                heapq.heapreplace(heap, (run.dists[nxt], run.counters[nxt],
                                         _LEAF_RUN, (run, nxt)))
            else:
                heapq.heappop(heap)
            results.append((float(dist), int(run.rids[pos])))
            continue

        if kind == _NODE_RUN:
            run, pos = payload
            nxt = pos + 1
            if nxt < run.n:
                heapq.heapreplace(heap, (run.dists[nxt], run.counters[nxt],
                                         _NODE_RUN, (run, nxt)))
            else:
                heapq.heappop(heap)
            node = run.node
            index = int(run.sel[pos])
            page_id = int(node.child_array()[index])
            level = run.level
            refined = run.refined
            tight = None if run.tights is None else run.tights[pos]
        else:
            heapq.heappop(heap)
            page_id, level = payload
            refined = True

        if not refined:
            if tight is None or tight != tight:     # NaN: not screened
                # Only here does the entry's predicate object exist: a
                # block-decoded parent builds it on this first request.
                tight = ext.refine_dist(node.pred_at(index), q, dist)
            if state.tau is not None and tight >= state.tau:
                continue
            if heap and tight > heap[0][0]:
                heapq.heappush(heap, (float(tight), state.next_counter,
                                      _SINGLE, (page_id, level)))
                state.next_counter += 1
                continue

        state.pending = (page_id, level)
        return state.pending


def _expand_leaf(waiters: List[_QueryState], node: Any, k: int) -> None:
    # rid_array reads the "rids" cache a zero-copy block decode (or the
    # bulk loader) left behind; materializing entry objects here would
    # cost more than the distance kernel below.
    keys = node.keys_array()
    rids = node.rid_array()
    half = node.key_halfwidths()
    if len(waiters) == 1:
        if half is None:
            # Same 2-D expression as the sequential search.
            rows = np.sqrt(((keys - waiters[0].q) ** 2).sum(axis=1))[None]
        else:
            # Quantized leaf: same VA-file cell lower bound as the
            # sequential kernel in repro.gist.nn.
            diff = np.abs(keys - waiters[0].q) - half
            np.maximum(diff, 0.0, out=diff)
            rows = np.sqrt((diff * diff).sum(axis=1))[None]
    else:
        qblock = np.stack([st.q for st in waiters])
        if half is None:
            rows = np.sqrt(((keys[None, :, :] - qblock[:, None, :]) ** 2)
                           .sum(axis=-1))
        else:
            diff = np.abs(keys[None, :, :] - qblock[:, None, :]) - half
            np.maximum(diff, 0.0, out=diff)
            rows = np.sqrt((diff * diff).sum(axis=-1))
    for st, dists in zip(waiters, rows):
        if st.tau is None:
            kept_d = dists
            kept_rids = rids
        else:
            idx = np.nonzero(dists < st.tau)[0]
            kept_d = dists[idx]
            kept_rids = rids[idx]
        m = len(kept_d)
        if m:
            base = st.next_counter
            st.next_counter += m
            order = np.argsort(kept_d, kind="stable")
            run = _LeafRun()
            run.dists = kept_d[order]
            run.counters = base + order
            run.rids = kept_rids[order]
            run.n = m
            heapq.heappush(st.heap, (run.dists[0], run.counters[0],
                                     _LEAF_RUN, (run, 0)))
        st.tau, st.topk = _update_tau(st.topk, kept_d, k)


def _expand_inner(waiters: List[_QueryState], node: Any, ext: Any) -> None:
    if len(waiters) == 1:
        rows = ext.min_dists_node(node, waiters[0].q)[None]
        qblock = waiters[0].q[None]
    else:
        qblock = np.stack([st.q for st in waiters])
        rows = ext.min_dists_node_multi(node, qblock)
    lazy = ext.has_refinement
    tight_rows = ext.refine_dists_node(node, qblock, rows) if lazy else None
    child_level = node.level - 1
    for i, (st, dists) in enumerate(zip(waiters, rows)):
        if st.tau is None:
            sel = None
            kept_d = dists
        else:
            sel = np.nonzero(dists < st.tau)[0]
            kept_d = dists[sel]
        m = len(kept_d)
        if m == 0:
            continue
        base = st.next_counter
        st.next_counter += m
        order = np.argsort(kept_d, kind="stable")
        sel = order if sel is None else sel[order]
        run = _NodeRun()
        run.dists = kept_d[order]
        run.counters = base + order
        run.node = node
        run.sel = sel
        run.level = child_level
        run.refined = not lazy
        run.tights = tight_rows[i][sel] if lazy else None
        run.n = m
        heapq.heappush(st.heap, (run.dists[0], run.counters[0],
                                 _NODE_RUN, (run, 0)))
