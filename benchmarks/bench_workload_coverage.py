"""E13 — section 3.1's methodology argument: workload coverage.

The paper rejects the recorded user queries ("typically based on one of
the eight sample images" of the welcome page) in favor of an artificial
broad workload, because "the efficacy of the amdb analysis rests on the
premise that the query workload covers the data set".  This bench
quantifies the difference: data-set coverage, and how much of the
corpus the optimal-clustering baseline can even see, under both
workloads.
"""

import numpy as np

from repro.amdb import compute_losses, profile_workload
from repro.core import build_index
from repro.workload import make_workload
from repro.workload.generator import make_welcome_workload

from conftest import emit


def _coverage(profile):
    """Fraction of blobs retrieved by at least one query."""
    touched = set()
    for trace in profile.traces:
        touched.update(trace.result_rids)
    return len(touched) / max(len(profile.rid_to_leaf), 1)


def test_workload_coverage(vectors, profile, benchmark):
    k = 200
    num_queries = min(200, len(vectors) // 100)
    tree = build_index(vectors, "rtree", page_size=profile.page_size)

    broad = make_workload(vectors, num_queries, k=k, seed=1)
    welcome = make_welcome_workload(vectors, num_queries, num_foci=8,
                                    k=k, seed=1)

    rows = []
    for name, workload in (("broad", broad), ("welcome-page", welcome)):
        prof = profile_workload(tree, workload.queries, k)
        report = compute_losses(prof, keys=vectors,
                                rids=list(range(len(vectors))))
        rows.append((name, _coverage(prof),
                     len(prof.pages_touched()) / prof.total_pages,
                     report.total_leaf_ios / prof.num_queries,
                     report.clustering_loss))
        tree.stats.reset()

    lines = [f"Section 3.1: broad vs welcome-page workloads "
             f"({num_queries} queries, k={k})",
             f"{'workload':<14}{'blob coverage':>14}"
             f"{'pages touched':>15}{'leaf IO/q':>11}{'clust loss':>12}"]
    for name, cov, pages, ios, clust in rows:
        lines.append(f"{name:<14}{cov:>13.0%}{pages:>14.0%}"
                     f"{ios:>11.1f}{clust:>12.1f}")
    lines.append("")
    lines.append("the welcome-page workload leaves most blobs never "
                 "retrieved, so amdb's optimal clustering has no basis "
                 "for placing them — the paper's reason for an "
                 "artificial broad workload")
    emit("Workload coverage", "\n".join(lines))

    (_, broad_cov, broad_pages, _, _), \
        (_, welcome_cov, welcome_pages, _, _) = rows
    assert broad_cov > 2 * welcome_cov
    assert broad_pages >= welcome_pages

    benchmark(make_workload, vectors, num_queries, k=k, seed=2)
