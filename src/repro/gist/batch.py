"""Batched k-NN: the one kernel, once per query, over shared decodes.

:func:`knn_search_batch` runs :func:`repro.gist.nn.best_first` for each
query of a block in turn, so results and per-query counted accesses are
those of ``tree.knn`` by construction.  What a block shares is a table
of decoded nodes: the first query to need a page reads it through the
tree's counted path; later visitors book the access through
``store.record_access`` (same counters and listeners, no I/O) and reuse
the node, stacked geometry (:meth:`~repro.gist.node.Node.cached`) warm.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.gist.nn import Hit, best_first, check_queries

#: queries sharing one node table; bounds how many decoded nodes it pins.
DEFAULT_BLOCK_SIZE = 256


def knn_search_batch(tree: Any, queries: np.ndarray,
                     k: int) -> List[List[Hit]]:
    """k-NN results for every query, bit-identical to ``tree.knn``.

    ``queries`` is a ``(Q, dim)`` array-like; the return value is one
    result list per query, in query order.  Each run of
    :data:`DEFAULT_BLOCK_SIZE` queries shares one node table.
    """
    queries = check_queries(tree, queries, 2, k)
    #: page id -> decoded node, or None for a quarantined page.
    nodes: Dict[int, Optional[Any]] = {}

    def read(page_id: int, level: int) -> Optional[Any]:
        if page_id in nodes:
            node = nodes[page_id]
            if node is not None:
                tree.store.record_access(page_id, node.level)
        else:
            node = nodes[page_id] = tree._read_query(page_id, level)
        return node

    results: List[List[Hit]] = []
    for qid, query in enumerate(queries):
        if qid % DEFAULT_BLOCK_SIZE == 0:
            nodes.clear()
        results.append(list(best_first(tree, query, k, read)))
    return results
