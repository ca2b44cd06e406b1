"""Tests for CacheSet: lookup, recency stamps and ranks, set counters."""

from repro.cache import Cache, CacheConfig
from repro.cache.cache_set import CacheSet
from repro.cache.replacement import make_policy

from tests.conftest import load


def fill_way(cache_set, way, line_address):
    """One set access that fills ``way`` with ``line_address``."""
    cache_set.accesses += 1
    cache_set.fill(way, line_address, line_address, load(line_address))


def hit_way(cache_set, way):
    """One set access that hits ``way`` (promoting it to MRU)."""
    cache_set.accesses += 1
    line = cache_set.lines[way]
    line.touch(load(line.line_address), cache_set.accesses)


class TestFind:
    def test_miss_on_empty_set(self):
        cache_set = CacheSet(0, 4)
        assert cache_set.find(42) is None

    def test_finds_filled_way(self):
        cache_set = CacheSet(0, 4)
        fill_way(cache_set, 2, 42)
        assert cache_set.find(42) == 2

    def test_invalid_lines_never_match(self):
        cache_set = CacheSet(0, 4)
        fill_way(cache_set, 1, 42)
        cache_set.invalidate(1)
        assert cache_set.find(42) is None

    def test_refill_replaces_the_evicted_tag(self):
        cache_set = CacheSet(0, 2)
        fill_way(cache_set, 0, 1)
        fill_way(cache_set, 0, 2)
        assert cache_set.find(1) is None
        assert cache_set.find(2) == 0


class TestFreeWay:
    def test_empty_set_has_free_way(self):
        assert CacheSet(0, 4).free_way() == 0

    def test_full_set_has_none(self):
        cache_set = CacheSet(0, 2)
        fill_way(cache_set, 0, 1)
        fill_way(cache_set, 1, 2)
        assert cache_set.free_way() is None


class TestRecency:
    def test_promote_keeps_permutation(self):
        cache_set = CacheSet(0, 4)
        for way in range(4):
            fill_way(cache_set, way, way + 10)
        for way in (2, 0, 3, 1, 1, 2):
            hit_way(cache_set, way)
            assert sorted(cache_set.ranks()) == [0, 1, 2, 3]
            stamps = [line.stamp for line in cache_set.lines]
            assert len(set(stamps)) == 4

    def test_promoted_way_is_mru(self):
        cache_set = CacheSet(0, 4)
        for way in range(4):
            fill_way(cache_set, way, way + 10)
        hit_way(cache_set, 1)
        assert cache_set.ranks()[1] == 3

    def test_lru_way_is_least_recent(self):
        cache_set = CacheSet(0, 4)
        for way in range(4):
            fill_way(cache_set, way, way + 10)
        # Access order: 0,1,2,3 then 0 -> LRU should be way 1.
        hit_way(cache_set, 0)
        assert cache_set.lru_way() == 1
        assert cache_set.ranks() == [3, 0, 1, 2]

    def test_lru_ignores_invalid_lines(self):
        cache_set = CacheSet(0, 4)
        for way in range(4):
            fill_way(cache_set, way, way + 10)
        lru = cache_set.lru_way()
        cache_set.invalidate(lru)
        assert cache_set.lru_way() != lru

    def test_partial_set_ranks_from_the_top(self):
        cache_set = CacheSet(0, 4)
        fill_way(cache_set, 2, 10)
        fill_way(cache_set, 0, 11)
        assert cache_set.ranks() == [3, 0, 2, 0]
        hit_way(cache_set, 2)
        assert cache_set.ranks() == [2, 0, 3, 0]


class TestCounters:
    def test_set_access_ages_every_line(self):
        cache_set = CacheSet(0, 4)
        fill_way(cache_set, 0, 10)
        fill_way(cache_set, 1, 11)
        hit_way(cache_set, 0)
        line = cache_set.lines[1]
        assert cache_set.accesses == 3
        assert cache_set.accesses - line.fill_at == 1  # age since insertion
        assert cache_set.accesses - line.stamp == 1  # age since last access
        assert cache_set.accesses - cache_set.lines[0].fill_at == 2
        assert cache_set.accesses - cache_set.lines[0].stamp == 0

    def test_access_writes_only_the_accessed_line(self):
        config = CacheConfig("c", 1 * 4 * 64, 4, latency=1)
        for detailed in (True, False):
            policy = make_policy("lru")
            policy.bind(config)
            cache = Cache(config, policy, detailed=detailed)
            for line in range(4):
                cache.access(load(line))
            cache_set = cache.sets[0]
            before = [
                (line.stamp, line.fill_at, line.preuse, line.hits_since_insertion)
                for line in cache_set.lines
            ]
            cache.access(load(2))  # a hit in way 2
            after = [
                (line.stamp, line.fill_at, line.preuse, line.hits_since_insertion)
                for line in cache_set.lines
            ]
            assert [way for way in range(4) if before[way] != after[way]] == [2]
            assert cache_set.accesses - cache_set.lines[0].stamp == 4

    def test_accesses_since_miss(self, tiny_config):
        policy = make_policy("lru")
        policy.bind(tiny_config)
        cache = Cache(tiny_config, policy)
        cache_set = cache.sets[0]
        cache.access(load(0))
        cache.access(load(0))
        cache.access(load(0))
        assert cache_set.accesses_since_miss == 2
        cache.access(load(4))
        assert cache_set.accesses_since_miss == 0
        assert cache_set.misses == 2

    def test_valid_ways(self):
        cache_set = CacheSet(0, 4)
        fill_way(cache_set, 1, 10)
        fill_way(cache_set, 3, 11)
        assert cache_set.valid_ways() == [1, 3]
