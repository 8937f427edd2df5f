"""E10 — section 3.2 + footnote 8: random-I/O break-even vs a flat scan.

Paper: random AM I/Os cost ~15x a sequential scan I/O (Barracuda
arithmetic), so "the AM must not hit more than one fifteenth of the
leaf-level pages" (inner nodes are assumed in memory, section 3.2).
Footnote 8 adds the stronger measured result: even counting inner
accesses, no AM hit more than 1 in 50 of its total pages at 221k blobs
(aMAP about 1 in 52).
"""

import json
import math

from repro.amdb import profile_workload
from repro.core import build_index
from repro.storage.iomodel import DiskModel

from conftest import RESULTS_DIR, emit

METHODS = ["rtree", "amap", "xjb", "jb"]


def test_scan_breakeven(vectors, workload, profile, benchmark):
    model = DiskModel(page_size=profile.page_size)
    leaf_entry = (vectors.shape[1] + 1) * 8
    flat_pages = math.ceil(len(vectors) * leaf_entry / profile.page_size)

    lines = [
        "Disk model (paper footnote 4: Seagate Barracuda, 8 KB pages):",
        f"  random I/O {model.random_io_ms:.2f} ms, sequential "
        f"{model.sequential_io_ms:.2f} ms, ratio "
        f"{model.random_to_sequential_ratio:.1f}:1 "
        "(paper: ~14, rounded to 15x)",
        f"  flat file: {flat_pages} pages; scan "
        f"{model.scan_ms(flat_pages):.0f} ms",
        "",
        f"{'method':<8}{'leaf IO/q':>10}{'leaf frac':>10}"
        f"{'index ms/q':>11}{'beats scan':>11}{'total frac':>11}",
    ]
    leaf_fractions = {}
    rows = {}
    for m in METHODS:
        tree = build_index(vectors, m, page_size=profile.page_size)
        prof = profile_workload(tree, workload.queries, workload.k)
        leaf_per_q = prof.total_leaf_ios / prof.num_queries
        total_per_q = prof.total_ios / prof.num_queries
        leaf_frac = leaf_per_q / prof.num_leaves
        leaf_fractions[m] = leaf_frac
        index_ms = model.random_reads_ms(leaf_per_q)
        beats = index_ms < model.scan_ms(flat_pages)
        rows[m] = {
            "leaf_ios_per_query": round(leaf_per_q, 3),
            "leaf_fraction": round(leaf_frac, 6),
            "index_ms_per_query": round(index_ms, 3),
            "beats_scan": bool(beats),
            "total_fraction": round(total_per_q / prof.total_pages, 6),
        }
        lines.append(f"{m:<8}{leaf_per_q:>10.1f}{leaf_frac:>10.4f}"
                     f"{index_ms:>11.0f}{str(beats):>11}"
                     f"{total_per_q / prof.total_pages:>11.4f}")
    lines.append("")
    lines.append(
        f"break-even fraction 1/{model.random_to_sequential_ratio:.1f} = "
        f"{model.breakeven_fraction():.3f}; fractions shrink with corpus "
        "size (paper measured < 1 in 50 of total pages at 221k blobs)")
    emit("Scan break-even", "\n".join(lines))

    # The paper-mode verdicts, archived.  The query planner prices
    # measured milliseconds instead (gist/planner.py, EXPERIMENTS.md E10).
    doc = {
        "bench": "scan_breakeven",
        "config": {
            "num_blobs": int(len(vectors)),
            "num_queries": int(workload.queries.shape[0]),
            "k": int(workload.k),
            "page_size": int(profile.page_size),
            "flat_pages": int(flat_pages),
        },
        "methods": rows,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_scan_breakeven.json").write_text(
        json.dumps(doc, indent=2) + "\n")

    # Section 3.2's bar: under 1/15 of the leaf pages, beyond toy scale.
    if len(vectors) >= 10_000:
        for m, frac in leaf_fractions.items():
            assert frac < 1.0 / 15.0, m

    benchmark(model.scan_ms, flat_pages)
