"""A4 — ablation: bite construction heuristics (Figure 13 vs footnote 7).

Compares the paper's exact round-robin "squarish nibble" (Figure 13),
our sweep construction (the "efficient algorithm for constructing a
better JB BP" the paper's footnote 7 reserves for its final version),
and their combination — on bite volume, build cost, and workload I/Os.
"""

import time

import numpy as np

from repro.amdb import profile_workload
from repro.bulk import bulk_load
from repro.core.jbtree import JBExtension
from repro.gist.node import Node

from conftest import emit

METHODS = ["nibble", "sweep", "both", "probe"]


def _leaf(keys):
    return Node.leaf_from_arrays(0, keys, np.arange(len(keys)))


def _bitten(ext, keys):
    """The bitten rect bounding a leaf of ``keys``, decoded from its
    predicate row."""
    row = ext.preds_for_nodes([_leaf(keys)])[0]
    return ext.pred_codec().decode(row.tobytes())


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
    for method in METHODS:
        ext = JBExtension(vectors.shape[1], bite_method=method)
        fracs = []
        for g in groups:
            pred = _bitten(ext, g)
            samples = pred.rect.lo + mc * pred.rect.extents
            fracs.append(1.0 - pred.contains_points(samples).mean())
        t0 = time.time()
        tree = bulk_load(JBExtension(vectors.shape[1],
                                     bite_method=method),
                         vectors, page_size=profile.page_size)
        build_s = time.time() - t0
        prof = profile_workload(tree, queries, workload.k)
        lines.append(f"{method:<8}{np.mean(fracs):>19.3f}{build_s:>9.1f}"
                     f"{prof.total_leaf_ios:>11}{prof.total_ios:>12}")
    lines.append("")
    lines.append("'both' keeps the larger bite per corner, so its "
                 "volume fraction bounds the individual heuristics")
    emit("Ablation bite method", "\n".join(lines))

    # 'both' dominates either heuristic in carved volume per corner.
    ext_b = JBExtension(vectors.shape[1], bite_method="both")
    ext_n = JBExtension(vectors.shape[1], bite_method="nibble")
    ext_s = JBExtension(vectors.shape[1], bite_method="sweep")
    g = groups[0]
    vol_b = _bitten(ext_b, g).volume()
    assert vol_b <= _bitten(ext_n, g).volume() + 1e-9
    assert vol_b <= _bitten(ext_s, g).volume() + 1e-9

    benchmark(ext_s.preds_for_nodes, [_leaf(groups[0])])
