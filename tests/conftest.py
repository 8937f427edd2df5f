"""Shared fixtures: access-method factories and small data sets."""

from pathlib import Path

import numpy as np
import pytest

from repro.ams import (RStarTreeExtension, RTreeExtension,
                       SRTreeExtension, SSTreeExtension)
from repro.core import AMapExtension, JBExtension, XJBExtension

ALL_METHODS = ["rtree", "rstar", "sstree", "srtree", "amap", "xjb", "jb"]


def make_ext(method: str, dim: int):
    factories = {
        "rtree": RTreeExtension,
        "rstar": RStarTreeExtension,
        "sstree": SSTreeExtension,
        "srtree": SRTreeExtension,
        "amap": lambda d: AMapExtension(d, samples=128),
        "xjb": lambda d: XJBExtension(d, x=min(4, 1 << d)),
        "jb": JBExtension,
    }
    return factories[method](dim)


@pytest.fixture(params=ALL_METHODS)
def any_method(request):
    return request.param


@pytest.fixture(scope="session")
def clustered_points():
    """A 3-D clustered point set, typical of the experiments."""
    rng = np.random.default_rng(7)
    centers = rng.normal(size=(12, 3)) * 4
    return np.concatenate([
        c + rng.normal(size=(150, 3)) * rng.uniform(0.3, 0.9)
        for c in centers])


def brute_knn(points: np.ndarray, q: np.ndarray, k: int):
    """Ground-truth k nearest indices (set) and the k-th distance."""
    d = np.sqrt(((points - q) ** 2).sum(axis=1))
    order = np.argsort(d, kind="stable")[:k]
    return set(order.tolist()), d[order[-1]] if k else 0.0


def pytest_collection_modifyitems(items):
    """Every test under ``tests/`` fails on a RuntimeWarning (a mean of
    an empty slice, an overflow, an invalid value): tier-1 runs clean."""
    here = Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            item.add_marker(
                pytest.mark.filterwarnings("error::RuntimeWarning"))
