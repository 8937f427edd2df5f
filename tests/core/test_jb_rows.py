"""JB/XJB row hooks against the object oracle and the node kernels.

- ``refine_dist`` (the box search :func:`bitten_min_dist` on the row's
  bites) against the oracle ``BittenRect.min_dist`` of the decoded row,
  bit for bit, with and without the ``max_pops`` cap;
- ``covers_key`` (one row's MBR and bites) against ``contains_node`` on
  a one-row node, the rule insert and delete must share.

Rows come from keys on a small integer grid, or are written straight
from random inner points (overlapping bites), with no bites, or with
every corner biting to the opposite one (the whole MBR bitten away).
Probes sit on the same grid and on every MBR and bite face.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.jbtree import JBExtension
from repro.core.xjb import XJBExtension
from repro.geometry.bites import _corner_low_table, bitten_min_dist
from repro.gist.extension import row_node

from tests.geometry.bite_oracle import decode
from tests.gist.oracle import row_for_keys

KINDS = ("carved", "random", "bare", "eaten")


def _case(family, dim, seed, kind, x=None):
    """``(ext, row, probes)`` for one drawn predicate."""
    ext = JBExtension(dim) if family == "jb" else XJBExtension(
        dim, x=(1 << dim) if x is None else x)
    rng = np.random.default_rng(seed)
    M = 1 << dim
    low = _corner_low_table(dim)
    if kind == "carved":
        keys = rng.integers(0, 5, size=(rng.integers(1, 13), dim))
        row = row_for_keys(ext, keys.astype(np.float64))
    else:
        lo = rng.integers(0, 2, size=dim)
        hi = lo + rng.integers(1, 4, size=dim)
        if kind == "random":
            inners = rng.integers(lo, hi + 1, size=(M, dim))
            keep = rng.random(M) < 0.5
        else:
            inners = np.where(low, hi, lo)
            keep = np.full(M, kind == "eaten")
        # XJB holds at most x bites: the first x kept corners
        keep &= np.cumsum(keep) <= getattr(ext, "x", M)
        row = ext.pred_codec().write(
            lo[None].astype(np.float64), hi[None].astype(np.float64),
            keep[None], inners[None].astype(np.float64))[0]
    _, _, blo, bhi, _ = ext._row_bites(row)
    d = ext.dim
    faces = []
    for box_lo, box_hi in [(row[:d], row[d:2 * d])] + list(zip(blo, bhi)):
        mid = (box_lo + box_hi) / 2.0
        faces += [box_lo, box_hi, mid]
        for e in range(dim):
            for face in (box_lo[e], box_hi[e]):
                point = mid.copy()
                point[e] = face
                faces.append(point)
    probes = [faces[i] for i in rng.choice(len(faces), min(len(faces), 20),
                                           replace=False)]
    probes += list(rng.integers(-1, 7, size=(8, dim)).astype(np.float64))
    probes += list(rng.integers(-2, 14, size=(4, dim)) / 2.0)
    return ext, row, probes


@st.composite
def rows(draw, max_dim=6):
    family = draw(st.sampled_from(["jb", "xjb"]))
    dim = draw(st.integers(1, max_dim))
    x = draw(st.integers(0, 1 << dim)) if family == "xjb" else None
    return _case(family, dim, draw(st.integers(0, 2 ** 16)),
                 draw(st.sampled_from(KINDS)), x)


@given(rows(), st.integers(1, 6))
@example(_case("jb", 2, 0, "carved"), 3)
@example(_case("xjb", 3, 1, "random", x=5), 2)
@example(_case("jb", 3, 2, "eaten"), 4)
@settings(max_examples=150, deadline=None)
def test_refine_dist_matches_the_object_min_dist(case, pops):
    ext, row, probes = case
    pred = decode(ext.pred_codec(), row)
    _, _, blo, bhi, blow = ext._row_bites(row)
    d = ext.dim
    for q in probes:
        assert ext.refine_dist(row, q, 0.0) == max(0.0, pred.min_dist(q))
        assert bitten_min_dist(row[:d], row[d:2 * d], blo, bhi, blow, q,
                               max_pops=pops) \
            == pred.min_dist(q, max_pops=pops)


def test_an_mbr_bitten_away_entirely_is_at_infinity():
    for family in ("jb", "xjb"):
        ext, row, probes = _case(family, 3, 0, "eaten")
        assert len(ext._row_bites(row)[0]) == 8
        assert all(ext.refine_dist(row, q, 0.0) == np.inf for q in probes)


def test_rows_without_bites_take_the_mbr_distance():
    for family in ("jb", "xjb"):
        ext, row, probes = _case(family, 4, 1, "bare")
        assert len(ext._row_bites(row)[0]) == 0
        for q in probes:
            delta = np.maximum(np.maximum(row[:4] - q, q - row[4:8]), 0.0)
            assert ext.refine_dist(row, q, 0.0) == np.linalg.norm(delta)


@given(rows())
@example(_case("jb", 2, 0, "carved"))
@example(_case("xjb", 2, 3, "random", x=2))
@settings(max_examples=150, deadline=None)
def test_covers_key_matches_contains_node(case):
    ext, row, probes = case
    node = row_node(row)
    for key in probes:
        assert ext.covers_key(row, key) \
            == bool(ext.contains_node(node, key)[0]), key
