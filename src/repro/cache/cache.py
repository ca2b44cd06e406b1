"""Set-associative cache with pluggable replacement policy.

The cache is purely functional (no timing); the hierarchy and timing model
live in :mod:`repro.cache.hierarchy` and :mod:`repro.cpu`.  Observers can be
attached to record the access stream (for Belady precomputation and the
paper's Figure 4 analysis) and eviction events (Figures 5–7).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.cache.cache_set import CacheSet
from repro.cache.replacement.base import BYPASS
from repro.cache.stats import CacheStats


class AccessResult(NamedTuple):
    """Outcome of one cache access (immutable; hits and plain fills share
    one instance each)."""

    hit: bool
    bypassed: bool = False
    evicted_line_address: int = -1
    evicted_dirty: bool = False

    @property
    def has_writeback(self) -> bool:
        """True if the access displaced a dirty line that must go downstream."""
        return self.evicted_dirty


HIT = AccessResult(True)
FILLED = AccessResult(False)
BYPASSED = AccessResult(False, bypassed=True)


class Cache:
    """A single cache level.

    Args:
        config: Cache geometry (:class:`repro.cache.config.CacheConfig`).
        policy: A replacement policy instance; ``bind`` is called here.
        allow_bypass: Honour :data:`BYPASS` returned by the policy.  When
            False a bypass request falls back to LRU eviction.
        detailed: Maintain the full Table II per-line metadata (ages, preuse,
            per-type counts).  Needed at the LLC (RL features, analysis);
            upper levels run with ``detailed=False`` for speed.
        sanitize: Contract-sanitizer mode for the policy ("off" / "normal" /
            "strict"; None = ``REPRO_SANITIZE`` or the package default).
            See :func:`repro.sanitize.wrap_policy`; wrapping is idempotent,
            so a pre-wrapped policy is used as-is.
    """

    def __init__(
        self,
        config,
        policy,
        allow_bypass: bool = False,
        detailed: bool = True,
        sanitize: str = None,
    ) -> None:
        # Imported lazily: repro.sanitize pulls in the replacement-policy
        # base module, whose package __init__ imports this module.
        from repro.sanitize import wrap_policy

        self.config = config
        self.policy = wrap_policy(policy, mode=sanitize, allow_bypass=allow_bypass)
        self.allow_bypass = allow_bypass
        self.detailed = detailed
        self.sets = [CacheSet(i, config.ways) for i in range(config.num_sets)]
        self.stats = CacheStats()
        self._set_mask = config.num_sets - 1
        self._tag_shift = self._set_mask.bit_length()
        self._seen_lines = set()
        self.access_observers = []
        self.eviction_observers = []
        self.decision_observers = []
        #: False until an observer is registered: the access and eviction
        #: paths then skip every observer loop.
        self._observed = False

    # -- observers --------------------------------------------------------

    def add_access_observer(self, callback) -> None:
        """``callback(access, hit)`` fires on every access to this cache."""
        self.access_observers.append(callback)
        self._observed = True

    def add_eviction_observer(self, callback) -> None:
        """``callback(set_index, line, access)`` fires before each eviction."""
        self.eviction_observers.append(callback)
        self._observed = True

    def add_decision_observer(self, callback) -> None:
        """``callback(cache_set, way, victim_line, access)`` per eviction.

        Fires with the full set state *before* the fill, so the observer
        can see every resident line (the decision tracer grades the chosen
        way against the alternatives).  A cache with no observer of any
        kind never enters :meth:`_notify_eviction`.
        """
        self.decision_observers.append(callback)
        self._observed = True

    def _notify_eviction(self, cache_set, way: int, line, access) -> None:
        for callback in self.eviction_observers:
            callback(cache_set.index, line, access)
        for callback in self.decision_observers:
            callback(cache_set, way, line, access)

    # -- main entry point ---------------------------------------------------

    def access(self, access) -> AccessResult:
        """Look up ``access``; on a miss, allocate (evicting if needed)."""
        line_address = access.line_address
        cache_set = self.sets[line_address & self._set_mask]
        tag = line_address >> self._tag_shift
        cache_set.accesses = now = cache_set.accesses + 1
        way = cache_set.way_of.get(tag)
        if way is None:
            result = self._handle_miss(cache_set, tag, access)
        else:
            cache_set.accesses_since_miss += 1
            line = cache_set.lines[way]
            if self.detailed:
                line.touch(access, now)
            else:
                line.stamp = now
                if access.is_write:
                    line.dirty = True
            self.stats.hits[access.access_type] += 1
            self.policy.on_hit(cache_set.index, way, line, access)
            result = HIT
        if self._observed:
            for callback in self.access_observers:
                callback(access, result.hit)
        return result

    def _handle_miss(self, cache_set, tag: int, access) -> AccessResult:
        cache_set.accesses_since_miss = 0
        cache_set.misses += 1
        line_address = access.line_address
        stats = self.stats
        stats.misses[access.access_type] += 1
        if line_address not in self._seen_lines:
            self._seen_lines.add(line_address)
            stats.compulsory_misses += 1
        policy = self.policy
        set_index = cache_set.index
        policy.on_miss(set_index, access)

        if len(cache_set.way_of) < cache_set.ways:
            way = cache_set.free_way()
            result = FILLED
        else:
            way = policy.victim(set_index, cache_set, access)
            if way == BYPASS:
                if self.allow_bypass:
                    stats.bypasses += 1
                    return BYPASSED
                way = cache_set.lru_way()
            victim_line = cache_set.lines[way]
            if self._observed:
                self._notify_eviction(cache_set, way, victim_line, access)
            policy.on_evict(set_index, way, victim_line, access)
            result = AccessResult(
                False, False, victim_line.line_address, victim_line.dirty
            )
            stats.evictions += 1
            if victim_line.dirty:
                stats.dirty_evictions += 1

        line = cache_set.fill(way, tag, line_address, access)
        policy.on_fill(set_index, way, line, access)
        return result

    # -- inspection helpers -------------------------------------------------

    def _locate(self, line_address: int):
        """(set, way) holding ``line_address``; way is None if absent."""
        cache_set = self.sets[line_address & self._set_mask]
        return cache_set, cache_set.find(line_address >> self._tag_shift)

    def contains(self, line_address: int) -> bool:
        """True if ``line_address`` is currently cached (no state change)."""
        return self._locate(line_address)[1] is not None

    def invalidate(self, line_address: int) -> bool:
        """Drop ``line_address`` if present; returns whether it was cached."""
        found, _ = self.invalidate_line(line_address)
        return found

    def invalidate_line(self, line_address: int):
        """Drop ``line_address``; returns (was_present, was_dirty).

        Used for back-invalidation in inclusive hierarchies, where a dirty
        upper-level copy must be written back on invalidation.
        """
        cache_set, way = self._locate(line_address)
        if way is None:
            return False, False
        was_dirty = cache_set.lines[way].dirty
        cache_set.invalidate(way)
        return True, was_dirty

    def occupancy(self) -> float:
        """Fraction of lines currently valid."""
        valid = sum(len(cache_set.way_of) for cache_set in self.sets)
        return valid / self.config.num_lines

    def reset_stats(self) -> None:
        """Zero the statistics counters (after warm-up)."""
        self.stats.reset()
