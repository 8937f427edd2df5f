"""A4 — ablation: bite construction heuristics (Figure 13 vs footnote 7).

Compares the paper's exact round-robin "squarish nibble" (Figure 13),
our sweep construction (the "efficient algorithm for constructing a
better JB BP" the paper's footnote 7 reserves for its final version)
and the section-8 probe set cover — on bite volume, build cost, and
workload I/Os.
"""

import time

import numpy as np

from repro.amdb import profile_workload
from repro.bulk import bulk_load
from repro.core.jbtree import JBExtension
from repro.geometry.bites import in_bites
from repro.gist.node import Node

from conftest import emit

METHODS = ["nibble", "sweep", "probe"]


def _bitten_fraction(ext, keys, mc):
    """Share of a leaf MBR's volume its bites remove, by Monte Carlo over
    ``mc`` (unit-cube samples), from the leaf's predicate row."""
    row = ext.preds_for_nodes(
        [Node.leaf_from_arrays(0, keys, np.arange(len(keys)))])[0]
    d = ext.dim
    lo, hi = row[:d], row[d:2 * d]
    _, _, blo, bhi, low, keep = (
        part[0] for part in ext.pred_codec().bite_rows(row[None]))
    samples = lo + mc * (hi - lo)
    inside = np.all((samples >= lo) & (samples <= hi), axis=1)
    bitten = in_bites(samples[:, None, :], blo[keep], bhi[keep],
                      low[keep]).any(axis=1)
    return 1.0 - (inside & ~bitten).mean()


def test_bite_method_comparison(vectors, workload, profile, benchmark):
    rng = np.random.default_rng(0)
    groups = [vectors[rng.choice(len(vectors), 170, replace=False)]
              for _ in range(15)]
    queries = workload.queries[:workload.num_queries // 4]

    mc = rng.random((2000, vectors.shape[1]))
    lines = ["Bite construction ablation (JB predicates; volume "
             "fraction by Monte Carlo, so bite overlap counts once)",
             f"{'method':<8}{'bitten volume frac':>19}{'build s':>9}"
             f"{'leaf I/Os':>11}{'total I/Os':>12}"]
    fracs = {}
    for method in METHODS:
        ext = JBExtension(vectors.shape[1], bite_method=method)
        fracs[method] = np.mean([_bitten_fraction(ext, g, mc)
                                 for g in groups])
        t0 = time.time()
        tree = bulk_load(JBExtension(vectors.shape[1],
                                     bite_method=method),
                         vectors, page_size=profile.page_size)
        build_s = time.time() - t0
        prof = profile_workload(tree, queries, workload.k)
        lines.append(f"{method:<8}{fracs[method]:>19.3f}{build_s:>9.1f}"
                     f"{prof.total_leaf_ios:>11}{prof.total_ios:>12}")
    emit("Ablation bite method", "\n".join(lines))

    # The slab sweep carves far more than the squarish nibble.
    assert fracs["sweep"] > fracs["nibble"]

    ext_s = JBExtension(vectors.shape[1], bite_method="sweep")
    benchmark(ext_s.preds_for_nodes,
              [Node.leaf_from_arrays(0, groups[0], np.arange(170))])
