"""Batched k-NN: the one kernel, once per query.

:func:`knn_search_batch` checks a block of queries and runs
:func:`repro.gist.nn.best_first` for each in turn, so results and
per-query counted accesses are those of ``tree.knn`` by construction.
The block shares decoded nodes only through the store: behind a
:class:`~repro.storage.buffer.BufferPool` a page an earlier query read
is a frame hit; a bare page file decodes every visit (DESIGN.md
section 7).
"""

from __future__ import annotations

from typing import Any, List

import numpy as np

from repro.gist.nn import Hit, best_first, check_queries


def knn_search_batch(tree: Any, queries: np.ndarray,
                     k: int) -> List[List[Hit]]:
    """k-NN results for every query, bit-identical to ``tree.knn``.

    ``queries`` is a ``(Q, dim)`` array-like; the return value is one
    result list per query, in query order.
    """
    queries = check_queries(tree, queries, 2, k)
    return [list(best_first(tree, query, k)) for query in queries]
