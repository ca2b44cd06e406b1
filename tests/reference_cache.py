"""Frozen reference model of the O(ways)-per-access cache core.

The access path of the set-associative core as it stood before recency
became a per-set stamp, copied unchanged: ``RefSet`` keeps an exact
0..ways-1 recency permutation (``promote``), ``begin_access`` ages every
valid way, and ``find`` scans the ways.  Access and eviction observers and
the inspection helpers are left out; decision observers stay, because the
differential test reads each eviction's set snapshot through them.
``tests/test_core_differential.py`` replays the same streams through this
model and through :mod:`repro.cache` and requires identical hits, victims
and per-line features.

The only addition is :attr:`RefLine.stamp`, an alias of ``recency``:
policies now order lines by stamp, and a recency rank orders them
identically, so the same policy code can drive both models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.replacement.base import BYPASS
from repro.cache.stats import CacheStats
from repro.sanitize import wrap_policy
from repro.traces.record import AccessType, LINE_SIZE


@dataclass(slots=True)
class RefLine:
    valid: bool = False
    tag: int = -1
    line_address: int = -1
    dirty: bool = False
    offset: int = 0
    core: int = 0
    insertion_pc: int = 0
    last_pc: int = 0
    last_access_type: AccessType = AccessType.LOAD
    insertion_type: AccessType = AccessType.LOAD
    preuse: int = 0
    age_since_insertion: int = 0
    age_since_last_access: int = 0
    hits_since_insertion: int = 0
    access_counts: list = field(default_factory=lambda: [0, 0, 0, 0])
    recency: int = 0

    @property
    def stamp(self) -> int:
        return self.recency

    def fill(self, tag: int, line_address: int, access) -> None:
        self.valid = True
        self.tag = tag
        self.line_address = line_address
        self.dirty = access.is_write
        self.offset = access.address & (LINE_SIZE - 1)
        self.core = access.core
        self.insertion_pc = access.pc
        self.last_pc = access.pc
        self.last_access_type = access.access_type
        self.insertion_type = access.access_type
        self.preuse = 0
        self.age_since_insertion = 0
        self.age_since_last_access = 0
        self.hits_since_insertion = 0
        self.access_counts = [0, 0, 0, 0]
        self.access_counts[access.access_type] = 1

    def touch(self, access) -> None:
        self.preuse = self.age_since_last_access
        self.age_since_last_access = 0
        self.hits_since_insertion += 1
        self.access_counts[access.access_type] += 1
        self.last_access_type = access.access_type
        self.last_pc = access.pc
        if access.is_write:
            self.dirty = True

    def invalidate(self) -> None:
        self.valid = False
        self.tag = -1
        self.line_address = -1
        self.dirty = False
        self.recency = 0


class RefSet:
    __slots__ = ("index", "ways", "lines", "accesses", "accesses_since_miss",
                 "misses")

    def __init__(self, index: int, ways: int) -> None:
        self.index = index
        self.ways = ways
        self.lines = [RefLine() for _ in range(ways)]
        self.accesses = 0
        self.accesses_since_miss = 0
        self.misses = 0

    def find(self, tag: int):
        for way, line in enumerate(self.lines):
            if line.valid and line.tag == tag:
                return way
        return None

    def free_way(self):
        for way, line in enumerate(self.lines):
            if not line.valid:
                return way
        return None

    def begin_access(self, ages: bool = True) -> None:
        self.accesses += 1
        if not ages:
            return
        for line in self.lines:
            if line.valid:
                line.age_since_insertion += 1
                line.age_since_last_access += 1

    def record_hit(self) -> None:
        self.accesses_since_miss += 1

    def record_miss(self) -> None:
        self.accesses_since_miss = 0
        self.misses += 1

    def promote(self, way: int) -> None:
        old = self.lines[way].recency
        for other in self.lines:
            if other.valid and other.recency > old:
                other.recency -= 1
        self.lines[way].recency = self.ways - 1

    def lru_way(self) -> int:
        best_way = 0
        best_recency = self.ways
        for way, line in enumerate(self.lines):
            if line.valid and line.recency < best_recency:
                best_recency = line.recency
                best_way = way
        return best_way

    def valid_ways(self):
        return [way for way, line in enumerate(self.lines) if line.valid]


class RefResult:
    __slots__ = ("hit", "bypassed", "evicted_line_address", "evicted_dirty")

    def __init__(self, hit, bypassed=False, evicted_line_address=-1,
                 evicted_dirty=False):
        self.hit = hit
        self.bypassed = bypassed
        self.evicted_line_address = evicted_line_address
        self.evicted_dirty = evicted_dirty


class RefCache:
    def __init__(self, config, policy, allow_bypass: bool = False,
                 detailed: bool = True, sanitize: str = None) -> None:
        self.config = config
        self.policy = wrap_policy(policy, mode=sanitize,
                                  allow_bypass=allow_bypass)
        self.allow_bypass = allow_bypass
        self.detailed = detailed
        self.sets = [RefSet(i, config.ways) for i in range(config.num_sets)]
        self.stats = CacheStats()
        self._seen_lines = set()
        self.decision_observers = []

    def add_decision_observer(self, callback) -> None:
        self.decision_observers.append(callback)

    def access(self, access) -> RefResult:
        set_index = self.config.set_index(access.line_address)
        tag = self.config.tag(access.line_address)
        cache_set = self.sets[set_index]
        cache_set.begin_access(ages=self.detailed)
        way = cache_set.find(tag)
        if way is not None:
            return self._handle_hit(cache_set, way, access)
        return self._handle_miss(cache_set, tag, access)

    def _handle_hit(self, cache_set, way: int, access) -> RefResult:
        cache_set.record_hit()
        line = cache_set.lines[way]
        if self.detailed:
            line.touch(access)
        elif access.is_write:
            line.dirty = True
        cache_set.promote(way)
        self.stats.record_hit(access.access_type)
        self.policy.on_hit(cache_set.index, way, line, access)
        return RefResult(hit=True)

    def _handle_miss(self, cache_set, tag: int, access) -> RefResult:
        cache_set.record_miss()
        compulsory = access.line_address not in self._seen_lines
        self._seen_lines.add(access.line_address)
        self.stats.record_miss(access.access_type, compulsory=compulsory)
        self.policy.on_miss(cache_set.index, access)

        way = cache_set.free_way()
        evicted_address, evicted_dirty = -1, False
        if way is None:
            way = self.policy.victim(cache_set.index, cache_set, access)
            if way == BYPASS:
                if self.allow_bypass:
                    self.stats.bypasses += 1
                    return RefResult(hit=False, bypassed=True)
                way = cache_set.lru_way()
            victim_line = cache_set.lines[way]
            for callback in self.decision_observers:
                callback(cache_set, way, victim_line, access)
            self.policy.on_evict(cache_set.index, way, victim_line, access)
            evicted_address = victim_line.line_address
            evicted_dirty = victim_line.dirty
            self.stats.evictions += 1
            if evicted_dirty:
                self.stats.dirty_evictions += 1

        line = cache_set.lines[way]
        cache_set.promote(way)
        line.fill(tag, access.line_address, access)
        line.recency = self.config.ways - 1
        self.policy.on_fill(cache_set.index, way, line, access)
        return RefResult(
            hit=False,
            evicted_line_address=evicted_address,
            evicted_dirty=evicted_dirty,
        )
