"""The sphere kernels of repro.ams.sstree against the oracle's Sphere,
and the oracle Sphere's own construction and distances."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.ams import SRTreeExtension, SSTreeExtension
from repro.ams.sstree import covering_sphere, points_sphere, sphere_bounds

from tests.geometry.shapes import Sphere
from tests.gist.oracle import row_for_keys, row_for_rows


def finite_floats():
    return st.floats(min_value=-1e4, max_value=1e4, allow_nan=False,
                     allow_infinity=False, width=32)


def point_arrays(min_points=1, max_points=25, dim=3):
    return hnp.arrays(np.float64, st.tuples(
        st.integers(min_points, max_points), st.just(dim)),
        elements=finite_floats())


def _row(sphere):
    return np.append(sphere.center, sphere.radius)


def _covers(outer, inner):
    """The SS-tree's own covers rule on the two balls' rows."""
    ext = SSTreeExtension(len(outer.center))
    return ext.covers(_row(outer), _row(inner))


class TestConstruction:
    def test_from_points_covers(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0]])
        s = Sphere.from_points(pts)
        assert np.allclose(s.center, [1.0, 0.0])
        assert s.radius == pytest.approx(1.0)

    def test_point_sphere(self):
        s = Sphere([1.0, 2.0], 0.0)
        assert s.radius == 0.0
        assert s.contains_point([1.0, 2.0])

    def test_negative_radius_raises(self):
        with pytest.raises(ValueError):
            Sphere([0.0], -1.0)

    def test_from_spheres_covers_children(self):
        a = Sphere([0.0, 0.0], 1.0)
        b = Sphere([4.0, 0.0], 0.5)
        u = Sphere.from_spheres([a, b])
        assert _covers(u, a) and _covers(u, b)

    def test_from_spheres_empty_raises(self):
        with pytest.raises(ValueError):
            Sphere.from_spheres([])


class TestGeometry:
    def test_min_dist(self):
        s = Sphere([0.0, 0.0], 1.0)
        assert s.min_dist([3.0, 0.0]) == pytest.approx(2.0)
        assert s.min_dist([0.5, 0.0]) == 0.0


class TestVectorized:
    def test_min_dists_matches_scalar(self):
        rng = np.random.default_rng(2)
        spheres = [Sphere(rng.normal(size=3), abs(rng.normal()))
                   for _ in range(20)]
        q = rng.normal(size=3)
        centers = np.stack([s.center for s in spheres])
        radii = np.array([s.radius for s in spheres])
        batch = sphere_bounds(q, centers, radii)
        scalar = np.array([s.min_dist(q) for s in spheres])
        assert np.allclose(batch, scalar)


class TestProperties:
    @given(point_arrays())
    def test_from_points_contains_all(self, pts):
        s = Sphere.from_points(pts)
        assert s.contains_points(pts).all()

    @given(point_arrays(min_points=2))
    def test_min_dist_lower_bounds_point_dists(self, pts):
        s = Sphere.from_points(pts[1:])
        q = pts[0]
        dists = np.sqrt(((pts[1:] - q) ** 2).sum(axis=1))
        assert s.min_dist(q) <= dists.min() + 1e-6

    @given(point_arrays(), point_arrays())
    def test_union_contains_children(self, a, b):
        sa, sb = Sphere.from_points(a), Sphere.from_points(b)
        u = Sphere.from_spheres([sa, sb])
        assert _covers(u, sa) and _covers(u, sb)


@st.composite
def sphere_blocks(draw):
    """An SS-tree inner block ``[center, radius]`` of 1-30 balls in 1-8
    dimensions; radii are zero or positive."""
    dim = draw(st.integers(1, 8))
    n = draw(st.integers(1, 30))
    centers = draw(hnp.arrays(np.float64, (n, dim),
                              elements=finite_floats()))
    radii = draw(hnp.arrays(np.float64, n, elements=st.one_of(
        st.just(0.0), st.floats(0.0, 1e3, allow_nan=False, width=32))))
    return np.column_stack((centers, radii))


class TestRowConstructions:
    """The array constructions the SS- and SR-trees build their spheres
    with equal the oracle's object constructions bit for bit: same
    center bytes, same radius bytes."""

    @given(st.integers(1, 8).flatmap(
        lambda dim: point_arrays(max_points=30, dim=dim)))
    def test_points_sphere_is_from_points(self, pts):
        center, radius = points_sphere(pts)
        want = Sphere.from_points(pts)
        assert np.append(center, radius).tobytes() == _row(want).tobytes()
        ext = SSTreeExtension(pts.shape[1])
        assert row_for_keys(ext, pts).tobytes() == _row(want).tobytes()

    @given(sphere_blocks())
    def test_covering_sphere_is_from_spheres(self, block):
        dim = block.shape[1] - 1
        # the column slices a node's cached sphere parameters hand over
        center, radius = covering_sphere(block[:, :dim], block[:, dim])
        want = Sphere.from_spheres(
            [Sphere(row[:dim], row[dim]) for row in block])
        assert np.append(center, radius).tobytes() == _row(want).tobytes()
        ext = SSTreeExtension(dim)
        assert row_for_rows(ext, block).tobytes() == _row(want).tobytes()

    @given(st.integers(1, 8).flatmap(
        lambda dim: point_arrays(max_points=30, dim=dim)))
    def test_sr_leaf_sphere_is_from_points_capped(self, pts):
        """An SR leaf row holds the oracle's center, and its radius
        capped by the farthest MBR corner."""
        dim = pts.shape[1]
        row = row_for_keys(SRTreeExtension(dim), pts)
        want = Sphere.from_points(pts)
        assert row[2 * dim:3 * dim].tobytes() == want.center.tobytes()
        assert row[3 * dim] <= want.radius
