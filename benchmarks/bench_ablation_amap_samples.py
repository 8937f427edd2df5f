"""A2 — ablation: aMAP's random-bipartition sample budget (section 5.1).

The idealized MAP tries every bipartition; aMAP samples 1024.  This
sweep measures how the sample budget buys covered-volume reduction over
the single MBR, and its effect on workload I/Os.
"""

import numpy as np

from repro.amdb import profile_workload
from repro.bulk import bulk_load
from repro.core.amap import (AMapExtension, best_bipartition,
                             covered_volume)

from conftest import emit

SAMPLE_BUDGETS = [16, 64, 256, 1024, 4096]


def test_amap_sample_sweep(vectors, workload, profile, benchmark):
    rng = np.random.default_rng(0)
    # Volume study on representative leaf-sized point groups.
    groups = [vectors[rng.choice(len(vectors), 170, replace=False)]
              for _ in range(20)]

    lines = [f"aMAP bipartition sample sweep "
             f"(covered volume / MBR volume, {len(groups)} leaf-sized "
             "groups)",
             f"{'samples':>8}{'volume ratio':>14}{'leaf I/Os':>11}"]
    prev_ratio = None
    queries = workload.queries[:workload.num_queries // 4]
    for samples in SAMPLE_BUDGETS:
        ratios = []
        for g in groups:
            row = best_bipartition(g, g, samples,
                                   np.random.default_rng(1))
            mbr_volume = float(np.prod(g.max(axis=0) - g.min(axis=0)))
            ratios.append(covered_volume(row) / max(mbr_volume, 1e-12))
        ratio = float(np.mean(ratios))

        ext = AMapExtension(vectors.shape[1], samples=samples, seed=2)
        tree = bulk_load(ext, vectors, page_size=profile.page_size)
        prof = profile_workload(tree, queries, workload.k)
        lines.append(f"{samples:>8}{ratio:>14.3f}"
                     f"{prof.total_leaf_ios:>11}")
        if prev_ratio is not None:
            assert ratio <= prev_ratio + 1e-9, \
                "more samples must not increase covered volume"
        prev_ratio = ratio
    lines.append("")
    lines.append("paper uses 1024 samples; volume ratio < 1 shows the "
                 "dual rectangles always at least match the MBR")
    emit("Ablation aMAP samples", "\n".join(lines))

    assert prev_ratio <= 1.0 + 1e-9

    g = groups[0]
    benchmark(best_bipartition, g, g, 1024, np.random.default_rng(3))
