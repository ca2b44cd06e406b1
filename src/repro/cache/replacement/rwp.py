"""RWP — Read-Write Partitioning (Khan et al., HPCA 2014).

Cited as [16] and described in the paper's related work: "dynamically
partitions the cache into clean and dirty partitions to reduce the number
of read misses.  On a miss, a victim is selected from one of the
partitions, based on predicted partition size and the actual partition
size in the corresponding set."

Reduced but faithful mechanism: a global target for the dirty partition's
way count, adapted periodically from the measured *read* (LOAD) hit yield
of clean vs dirty lines — the partition class producing more read hits per
way grows.  On a miss, the over-quota partition supplies the LRU victim.
"""

from __future__ import annotations

from repro.cache.replacement.base import ReplacementPolicy, register_policy
from repro.traces.record import AccessType


@register_policy
class RWPPolicy(ReplacementPolicy):
    """Read-write partitioning with periodic quota adaptation."""

    name = "rwp"
    ADAPT_INTERVAL = 4096  # read hits between quota updates

    def __init__(self) -> None:
        super().__init__()
        self.dirty_quota = 0  # target dirty ways; set at bind
        self._read_hits_clean = 0
        self._read_hits_dirty = 0
        self._events = 0

    def _post_bind(self):
        self.dirty_quota = self.ways // 2

    def on_hit(self, set_index, way, line, access):
        if access.access_type is not AccessType.LOAD:
            return
        # ``line.dirty`` was updated by touch before this hook; a LOAD never
        # sets it, so it still reflects the line's class.
        if line.dirty:
            self._read_hits_dirty += 1
        else:
            self._read_hits_clean += 1
        self._events += 1
        if self._events >= self.ADAPT_INTERVAL:
            self._adapt()

    def _adapt(self) -> None:
        clean_ways = max(1, self.ways - self.dirty_quota)
        dirty_ways = max(1, self.dirty_quota)
        clean_yield = self._read_hits_clean / clean_ways
        dirty_yield = self._read_hits_dirty / dirty_ways
        if dirty_yield > clean_yield and self.dirty_quota < self.ways - 1:
            self.dirty_quota += 1
        elif clean_yield > dirty_yield and self.dirty_quota > 1:
            self.dirty_quota -= 1
        self._read_hits_clean = 0
        self._read_hits_dirty = 0
        self._events = 0

    def victim(self, set_index, cache_set, access):
        valid = cache_set.valid_ways()
        dirty = [way for way in valid if cache_set.lines[way].dirty]
        clean = [way for way in valid if not cache_set.lines[way].dirty]
        if len(dirty) > self.dirty_quota and dirty:
            candidates = dirty
        elif clean:
            candidates = clean
        else:
            candidates = valid
        return min(candidates, key=lambda way: cache_set.lines[way].stamp)

    @classmethod
    def overhead_bits(cls, config):
        import math

        # Recency + the dirty bit already exists; quota + yield counters.
        return config.num_lines * int(math.log2(config.ways)) + 3 * 16
