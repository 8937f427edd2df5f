"""Fork plumbing: shard arithmetic."""

from repro.storage.fork import shard_bounds


class TestShardBounds:
    def test_even_split(self):
        assert shard_bounds(10, 2) == [(0, 5), (5, 10)]

    def test_remainder_spreads_left(self):
        assert shard_bounds(10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_more_workers_than_items_drops_empty_shards(self):
        assert shard_bounds(2, 4) == [(0, 1), (1, 2)]
