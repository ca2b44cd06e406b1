"""Least-recently-used replacement (the paper's baseline)."""

from __future__ import annotations

import math

from repro.cache.replacement.base import ReplacementPolicy, register_policy


@register_policy
class LRUPolicy(ReplacementPolicy):
    """True LRU, using the recency stamps the cache set maintains.

    Overhead (Table I): ``log2(ways)`` recency bits per line — 16KB for a
    16-way 2MB cache.
    """

    name = "lru"

    def victim(self, set_index, cache_set, access):
        return cache_set.lru_way()

    @classmethod
    def overhead_bits(cls, config):
        return config.num_lines * int(math.log2(config.ways))


@register_policy
class MRUPolicy(ReplacementPolicy):
    """Most-recently-used eviction (useful for thrash-pattern testing)."""

    name = "mru"

    def victim(self, set_index, cache_set, access):
        lines = cache_set.lines
        return max(cache_set.valid_ways(), key=lambda way: lines[way].stamp)

    @classmethod
    def overhead_bits(cls, config):
        return config.num_lines * int(math.log2(config.ways))
