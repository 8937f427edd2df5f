"""Unit and property tests for repro.geometry.sphere."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.ams.sstree import sphere_bounds
from repro.geometry import Sphere
from repro.geometry.sphere import stack_spheres


def finite_floats():
    return st.floats(min_value=-1e4, max_value=1e4, allow_nan=False,
                     allow_infinity=False, width=32)


def point_arrays(min_points=1, max_points=25, dim=3):
    return hnp.arrays(np.float64, st.tuples(
        st.integers(min_points, max_points), st.just(dim)),
        elements=finite_floats())


class TestConstruction:
    def test_from_points_covers(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0]])
        s = Sphere.from_points(pts)
        assert np.allclose(s.center, [1.0, 0.0])
        assert s.radius == pytest.approx(1.0)

    def test_point_sphere(self):
        s = Sphere.point([1.0, 2.0])
        assert s.radius == 0.0
        assert s.contains_point([1.0, 2.0])

    def test_negative_radius_raises(self):
        with pytest.raises(ValueError):
            Sphere([0.0], -1.0)

    def test_from_spheres_covers_children(self):
        a = Sphere([0.0, 0.0], 1.0)
        b = Sphere([4.0, 0.0], 0.5)
        u = Sphere.from_spheres([a, b])
        assert u.contains_sphere(a)
        assert u.contains_sphere(b)

    def test_from_spheres_weighted_center(self):
        a = Sphere([0.0], 0.0)
        b = Sphere([10.0], 0.0)
        u = Sphere.from_spheres([a, b], weights=[9, 1])
        assert u.center[0] == pytest.approx(1.0)

    def test_from_spheres_empty_raises(self):
        with pytest.raises(ValueError):
            Sphere.from_spheres([])


class TestGeometry:
    def test_min_dist(self):
        s = Sphere([0.0, 0.0], 1.0)
        assert s.min_dist([3.0, 0.0]) == pytest.approx(2.0)
        assert s.min_dist([0.5, 0.0]) == 0.0

    def test_max_dist(self):
        s = Sphere([0.0, 0.0], 1.0)
        assert s.max_dist([3.0, 0.0]) == pytest.approx(4.0)

    def test_intersects(self):
        assert Sphere([0.0], 1.0).intersects_sphere(Sphere([2.0], 1.0))
        assert not Sphere([0.0], 0.9).intersects_sphere(Sphere([2.0], 1.0))

    def test_volume_matches_known_values(self):
        assert Sphere([0.0, 0.0], 1.0).volume() == pytest.approx(np.pi)
        assert Sphere([0.0] * 3, 1.0).volume() == pytest.approx(4 * np.pi / 3)
        assert Sphere([0.0] * 3, 0.0).volume() == 0.0


class TestVectorized:
    def test_min_dists_matches_scalar(self):
        rng = np.random.default_rng(2)
        spheres = [Sphere(rng.normal(size=3), abs(rng.normal()))
                   for _ in range(20)]
        q = rng.normal(size=3)
        centers, radii = stack_spheres(spheres)
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
        assert u.contains_sphere(sa)
        assert u.contains_sphere(sb)
