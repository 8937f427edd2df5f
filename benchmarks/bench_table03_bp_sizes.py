"""E5 — Table 3: stored size of each proposed bounding predicate.

Paper formulas (numbers stored, D = data dimensionality):
MBR = 2D; MAP = 4D; JB = (2 + 2^D) D; XJB = 2D + (D+1) X.
The measured sizes come from the real codecs that define fanout.
"""

import numpy as np

from repro.constants import XJB_DEFAULT_X
from repro.core.amap import AMapExtension
from repro.core.jbtree import JBExtension
from repro.core.xjb import XJBExtension
from repro.ams import RTreeExtension
from repro.gist.node import Node
from repro.storage.page import entries_per_page

from conftest import emit

DIMS = [2, 3, 4, 5, 6, 8]


def test_table03_bp_sizes(benchmark):
    lines = ["Table 3: bounding predicate size (numbers stored) and the "
             "index fanout it buys (8 KB pages)",
             f"{'D':>3} {'MBR':>6} {'MAP':>6} {'XJB(10)':>8} {'JB':>8}"
             f"   | {'f(MBR)':>7} {'f(XJB)':>7} {'f(JB)':>6}"]
    for d in DIMS:
        x = min(XJB_DEFAULT_X, 1 << d)
        mbr = RTreeExtension(d).pred_codec()
        amap = AMapExtension(d).pred_codec()
        xjb = XJBExtension(d, x=x).pred_codec()
        jb = JBExtension(d).pred_codec()
        # Formula checks.
        assert mbr.numbers == 2 * d
        assert amap.numbers == 4 * d
        assert xjb.numbers == 2 * d + (d + 1) * x
        assert jb.numbers == (2 + 2 ** d) * d

        def fanout(codec):
            try:
                return str(entries_per_page(8192, codec.size + 8))
            except ValueError:
                # The predicate no longer fits a page usefully — the
                # paper's "too large for even a modest number of
                # dimensions" regime (section 5.2).
                return "n/a"

        lines.append(f"{d:>3} {mbr.numbers:>6} {amap.numbers:>6} "
                     f"{xjb.numbers:>8} {jb.numbers:>8}   | "
                     f"{fanout(mbr):>7} {fanout(xjb):>7} {fanout(jb):>6}")
    lines.append("")
    lines.append("paper row at D=5: MBR=10, MAP=20, XJB(10)=70, JB=170")
    emit("Table 3 BP sizes", "\n".join(lines))

    # Timed kernel: constructing one JB predicate (the expensive BP).
    pts = np.random.default_rng(0).normal(size=(170, 5))
    ext = JBExtension(5)
    leaf = Node.leaf_from_arrays(0, pts, np.arange(len(pts)))
    benchmark(ext.preds_for_nodes, [leaf])
