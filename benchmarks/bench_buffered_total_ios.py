"""E12 — section 6's memory argument: JB vs XJB once inner nodes cache.

Paper: "this analysis does not take into account memory buffer effects.
XJB is likely to be more effective in the Blobworld system because its
tree height is lower than the JB tree height.  Thus, the XJB inner
nodes are more likely to fit in memory."  We replay the workload
through an LRU buffer pool sized to hold each tree's inner nodes and
count the page *misses* that remain.
"""

from repro.core import build_index
from repro.gist import GiST
from repro.storage.buffer import BufferPool

from conftest import emit

METHODS = ["rtree", "amap", "xjb", "jb"]


def _buffered_run(tree, queries, k, frames):
    pool = BufferPool(tree.store.pagefile, capacity_pages=frames)
    buffered = GiST(tree.ext, store=pool, page_size=tree.page_size)
    buffered.adopt(tree.store.peek(tree.root_id), tree.height, tree.size)
    pool.pin_pages(n.page_id for n in tree.iter_nodes()
                   if not n.is_leaf)
    for q in queries:
        buffered.knn(q, k)
    return pool.stats


def test_buffered_total_ios(vectors, workload, profile, benchmark):
    queries = workload.queries[:workload.num_queries // 2]
    lines = [f"Section 6 buffer experiment ({len(queries)} queries, "
             f"k={workload.k}; buffer holds all inner nodes plus 64 "
             "leaf frames)",
             f"{'method':<8}{'inner nodes':>12}{'cold total/q':>14}"
             f"{'warm leaf/q':>13}{'warm inner/q':>14}{'hit rate':>10}"]
    warm_leaf = {}
    for m in METHODS:
        tree = build_index(vectors, m, page_size=profile.page_size)
        inner = sum(1 for n in tree.iter_nodes() if not n.is_leaf)
        # Cold pass: raw page accesses.
        tree.stats.reset()
        for q in queries:
            tree.knn(q, workload.k)
        cold = tree.stats.reads / len(queries)
        # Warm pass: a pool big enough that inner nodes stay resident.
        stats = _buffered_run(tree, queries, workload.k,
                              frames=inner + 64)
        warm_leaf[m] = stats.leaf_misses / len(queries)
        lines.append(f"{m:<8}{inner:>12}{cold:>14.1f}"
                     f"{warm_leaf[m]:>13.1f}"
                     f"{stats.inner_misses / len(queries):>14.2f}"
                     f"{stats.hit_rate:>10.2f}")
    lines.append("")
    lines.append("with inner nodes cached, the fat-predicate trees stop "
                 "paying for their height; ordering then follows leaf "
                 "I/Os alone (the paper's reason to prefer XJB over JB)")
    emit("Section 6 buffered I/Os", "\n".join(lines))

    # With inner levels in memory, JB/XJB must not lose to the R-tree
    # on the I/Os that remain (leaf misses).
    assert warm_leaf["jb"] <= warm_leaf["rtree"] * 1.05
    assert warm_leaf["xjb"] <= warm_leaf["rtree"] * 1.05

    tree = build_index(vectors, "xjb", page_size=profile.page_size)
    benchmark(_buffered_run, tree, queries[:10], workload.k, 256)
