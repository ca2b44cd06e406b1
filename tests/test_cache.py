"""Tests for the Cache: hit/miss flow, eviction, bypass, observers."""

import gc

import pytest

from repro.cache import Cache, CacheConfig
from repro.cache.replacement import BYPASS, ReplacementPolicy, make_policy
from repro.traces import AccessType

from tests.conftest import load, prefetch, rfo, writeback


class TestHitMiss:
    def test_first_access_misses_then_hits(self, tiny_config, make_cache):
        cache = make_cache(tiny_config)
        assert not cache.access(load(0)).hit
        assert cache.access(load(0)).hit

    def test_same_set_different_tags_coexist(self, tiny_config, make_cache):
        cache = make_cache(tiny_config)
        # 4 sets: lines 0, 4, 8, 12 all map to set 0 (4 ways).
        for line in (0, 4, 8, 12):
            cache.access(load(line))
        for line in (0, 4, 8, 12):
            assert cache.access(load(line)).hit

    def test_eviction_on_full_set(self, tiny_config, make_cache):
        cache = make_cache(tiny_config, "lru")
        for line in (0, 4, 8, 12, 16):  # 5 tags in a 4-way set
            cache.access(load(line))
        assert not cache.access(load(0)).hit  # LRU victim was line 0
        assert cache.stats.evictions >= 1

    def test_compulsory_miss_tracking(self, tiny_config, make_cache):
        cache = make_cache(tiny_config)
        cache.access(load(0))
        cache.access(load(0))
        cache.access(load(1))
        assert cache.stats.compulsory_misses == 2

    def test_hit_rate(self, tiny_config, make_cache):
        cache = make_cache(tiny_config)
        cache.access(load(0))
        cache.access(load(0))
        cache.access(load(0))
        assert cache.stats.hit_rate == pytest.approx(2 / 3)


class TestWritebacks:
    def test_dirty_eviction_reports_writeback(self, tiny_config, make_cache):
        cache = make_cache(tiny_config, "lru")
        cache.access(rfo(0))  # dirty line in set 0
        result = None
        for line in (4, 8, 12, 16):  # evicts line 0 eventually
            result = cache.access(load(line))
            if result.has_writeback:
                break
        assert result.has_writeback
        assert result.evicted_line_address == 0

    def test_clean_eviction_has_no_writeback(self, tiny_config, make_cache):
        cache = make_cache(tiny_config, "lru")
        for line in (0, 4, 8, 12, 16):
            result = cache.access(load(line))
        assert not result.has_writeback
        assert result.evicted_line_address == 0  # still reports the victim

    def test_write_hit_marks_dirty(self, tiny_config, make_cache):
        cache = make_cache(tiny_config, "lru")
        cache.access(load(0))
        cache.access(writeback(0))
        for line in (4, 8, 12, 16):
            result = cache.access(load(line))
        assert result.evicted_dirty

    def test_dirty_eviction_stats(self, tiny_config, make_cache):
        cache = make_cache(tiny_config, "lru")
        cache.access(rfo(0))
        for line in (4, 8, 12, 16):
            cache.access(load(line))
        assert cache.stats.dirty_evictions == 1


class _AlwaysBypass(ReplacementPolicy):
    name = "always_bypass"

    def victim(self, set_index, cache_set, access):
        return BYPASS


class TestBypass:
    def test_bypass_honoured_when_allowed(self, tiny_config):
        policy = _AlwaysBypass()
        policy.bind(tiny_config)
        cache = Cache(tiny_config, policy, allow_bypass=True)
        for line in (0, 4, 8, 12):
            cache.access(load(line))
        cache.access(load(16))  # full set -> bypass
        assert cache.stats.bypasses == 1
        assert not cache.contains(16)
        assert cache.contains(0)

    def test_bypass_falls_back_to_lru_when_disallowed(self, tiny_config):
        # The fallback is normal-mode degradation semantics; pin the mode
        # so the test holds under a strict-mode environment too.
        policy = _AlwaysBypass()
        policy.bind(tiny_config)
        cache = Cache(tiny_config, policy, allow_bypass=False,
                      sanitize="normal")
        for line in (0, 4, 8, 12, 16):
            cache.access(load(line))
        assert cache.stats.bypasses == 0
        assert cache.contains(16)
        assert not cache.contains(0)  # LRU fallback evicted line 0


class TestObservers:
    def test_access_observer_sees_every_access(self, tiny_config, make_cache):
        cache = make_cache(tiny_config)
        seen = []
        cache.add_access_observer(lambda access, hit: seen.append((access.line_address, hit)))
        cache.access(load(0))
        cache.access(load(0))
        assert seen == [(0, False), (0, True)]

    def test_eviction_observer_sees_victim(self, tiny_config, make_cache):
        cache = make_cache(tiny_config, "lru")
        victims = []
        cache.add_eviction_observer(
            lambda set_index, line, access: victims.append(line.line_address)
        )
        for line in (0, 4, 8, 12, 16):
            cache.access(load(line))
        assert victims == [0]


class TestHelpers:
    def test_contains_does_not_mutate(self, tiny_config, make_cache):
        cache = make_cache(tiny_config)
        cache.access(load(0))
        accesses_before = cache.sets[0].accesses
        assert cache.contains(0)
        assert not cache.contains(99)
        assert cache.sets[0].accesses == accesses_before

    def test_invalidate(self, tiny_config, make_cache):
        cache = make_cache(tiny_config)
        cache.access(load(0))
        assert cache.invalidate(0)
        assert not cache.contains(0)
        assert not cache.invalidate(0)

    def test_occupancy(self, tiny_config, make_cache):
        cache = make_cache(tiny_config)
        assert cache.occupancy() == 0.0
        cache.access(load(0))
        assert cache.occupancy() == pytest.approx(1 / 16)

    def test_reset_stats(self, tiny_config, make_cache):
        cache = make_cache(tiny_config)
        cache.access(load(0))
        cache.reset_stats()
        assert cache.stats.total_accesses == 0


class TestDetailedFlag:
    def test_minimal_mode_skips_metadata_but_tracks_dirty(self, tiny_config):
        policy = make_policy("lru")
        policy.bind(tiny_config)
        cache = Cache(tiny_config, policy, detailed=False)
        cache.access(load(0))
        cache.access(load(0))
        cache.access(rfo(0))
        line = cache.sets[0].lines[cache.sets[0].find(tiny_config.tag(0))]
        assert line.dirty
        assert line.hits_since_insertion == 0  # metadata not maintained
        assert line.preuse == 0
        assert line.access_counts == [1, 0, 0, 0]
        assert line.last_access_type is AccessType.LOAD


class TestLifetime:
    def test_cache_state_is_freed_by_refcount(self, tiny_config):
        """No line or set refers back to its owner: dropping a used cache
        leaves no reference cycle for the garbage collector."""
        gc.collect()
        gc.disable()
        try:
            policy = make_policy("lru")
            policy.bind(tiny_config)
            cache = Cache(tiny_config, policy)
            for line in range(40):
                cache.access(load(line % 23))
            del cache, policy
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestInvalidateLine:
    def test_lru_victim_after_invalidate_is_true_lru(self):
        """Back-invalidation frees a way without disturbing the recency
        order of the remaining lines: the next eviction takes the true LRU
        line (3), not the line a gapped recency stack tie-broke to (2)."""
        config = CacheConfig("one-set", 1 * 4 * 64, 4, latency=1)
        policy = make_policy("lru")
        policy.bind(config)
        cache = Cache(config, policy, detailed=False)
        for line in (0, 1, 2, 3, 2, 0, 1):
            cache.access(load(line))
        assert cache.invalidate_line(0) == (True, False)
        assert cache.access(load(9)).evicted_line_address == -1  # free way
        assert cache.access(load(10)).evicted_line_address == 3
        assert sorted(cache.sets[0].ranks()) == [0, 1, 2, 3]
