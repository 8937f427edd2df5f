"""The probe-cover bite construction (paper section 8 objective)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.jbtree import JBExtension, _blocks
from repro.geometry.bites import bite_volumes, carve_rows

from tests.geometry import bite_oracle
from tests.geometry.shapes import Rect
from tests.geometry.test_batched_sweep import _bites_equal
from tests.geometry.test_bites import Carved


class TestProbeCover:
    def test_conservative(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(80, 3))
        assert Carved(pts, method="probe").contains(pts).all()

    def test_rect_obstacles_respected(self):
        los = np.array([[0.0, 0.0], [4.0, 4.0]])
        his = los + 1.0
        carved = Carved(los, his, method="probe")
        for lo, hi in zip(los, his):
            assert not _blocks(lo, hi, carved.blo, carved.bhi,
                               carved.low).any()

    def test_at_most_one_bite_per_corner(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(60, 3))
        masks = Carved(pts, method="probe").masks
        assert len(masks) == len(set(masks.tolist()))
        assert len(masks) <= 8

    def test_covers_more_probes_than_sweep_on_diagonal(self):
        """Set-cover optimizes graze coverage directly, so it should
        never cover fewer face probes than the volume heuristic."""
        pts = np.array([[float(i), float(i)] for i in range(30)])
        rect = Rect.from_points(pts)
        rng = np.random.default_rng(2)
        probes = []
        for d in range(2):
            for side in (0, 1):
                face = rect.lo + rng.random((25, 2)) * rect.extents
                face[:, d] = rect.lo[d] if side == 0 else rect.hi[d]
                probes.append(face)
        probes = np.concatenate(probes)

        def coverage(method):
            return Carved(pts, method=method).removes(probes).sum()

        assert coverage("probe") >= coverage("sweep") - 2

    def test_min_dist_still_lower_bound(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(50, 4))
        carved = Carved(pts, method="probe")
        for q in rng.normal(scale=4.0, size=(10, 4)):
            true_min = np.sqrt(((pts - q) ** 2).sum(axis=1)).min()
            assert carved.min_dist(q) <= true_min + 1e-9

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            JBExtension(2, bite_method="telepathy")

    @given(hnp.arrays(np.float64, st.tuples(st.integers(3, 30),
                                            st.just(2)),
                      elements=st.floats(-50, 50, width=32)))
    @settings(max_examples=25, deadline=None)
    def test_probe_conservative_property(self, pts):
        assert Carved(pts, method="probe").contains(pts).all()


@st.composite
def obstacle_groups(draw):
    """``(los, his)`` of one group on a small integer grid: points (one
    array twice) or child rects, so stops, faces and volumes tie often."""
    dim = draw(st.integers(1, 4))
    n = draw(st.integers(1, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    los = rng.integers(0, draw(st.integers(2, 6)),
                       size=(n, dim)).astype(np.float64)
    his = los
    if draw(st.booleans()):
        his = los + rng.integers(0, 3, size=(n, dim))
    return los, his


@pytest.mark.parametrize("method", ["nibble", "probe"])
@given(obstacle_groups(), st.sampled_from([None, 1, 3]))
@settings(max_examples=60, deadline=None)
def test_array_carve_matches_the_object_carve(method, group, max_bites):
    """The array ``nibble`` and ``probe`` carve the object oracle's bites
    bit for bit, on point and on rect obstacles, kept by the same top-X
    rule."""
    los, his = group
    got, = bite_oracle.from_carve(*carve_rows(
        los[None], his[None], max_bites, method=method))
    if los is his:
        want = bite_oracle.BittenRect.from_points(los, max_bites,
                                                  method=method)
    else:
        want = bite_oracle.BittenRect.from_rect_bounds(los, his, max_bites,
                                                       method=method)
    assert np.array_equal(got.rect.lo, want.rect.lo)
    assert np.array_equal(got.rect.hi, want.rect.hi)
    assert _bites_equal(got.bites, want.bites)


@given(obstacle_groups())
@settings(max_examples=40, deadline=None)
def test_both_is_the_larger_array_carve_per_corner(group):
    """The oracle's ``"both"`` carve (the larger of the nibble's and the
    sweep's bite at each corner) is what the two array carves give,
    corner by corner."""
    los, his = group
    vols = []
    for method in ("nibble", "sweep"):
        lo, hi, keep, inners = carve_rows(los[None], his[None],
                                          method=method)
        vols.append(np.where(keep, bite_volumes(lo, hi, inners), 0.0)[0])
    rect = Rect(los.min(axis=0), his.max(axis=0))
    obstacles = {"points": los} if los is his else {"rects": (los, his)}
    both = bite_oracle.carve_bites(rect, method="both", **obstacles)
    larger = np.maximum(*vols)
    assert {b.corner_mask: b.volume() for b in both} \
        == {m: v for m, v in enumerate(larger.tolist()) if v > 0}
