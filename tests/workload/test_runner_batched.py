"""Contiguous shard bounds (:func:`repro.storage.fork.shard_bounds`).

The bulk loader cuts a level's groups, and the shard daemon the corpus,
into per-worker runs with it; both merge in shard order, so the runs
must tile the range exactly.
"""

from repro.storage.fork import shard_bounds


class TestShardBounds:
    def test_even_split(self):
        assert shard_bounds(9, 3) == [(0, 3), (3, 6), (6, 9)]

    def test_uneven_split_front_loads_remainder(self):
        assert shard_bounds(10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_fewer_items_than_workers(self):
        assert shard_bounds(2, 5) == [(0, 1), (1, 2)]

    def test_bounds_cover_range_exactly(self):
        for n in (1, 7, 100):
            for w in (1, 3, 8):
                bounds = shard_bounds(n, w)
                assert bounds[0][0] == 0 and bounds[-1][1] == n
                for (_, e), (s, _) in zip(bounds, bounds[1:]):
                    assert e == s
