"""Frozen reference model of the per-candidate object RLR victim scan.

``ObjectRLRPolicy`` as it stood before the victim scan became a column
scan, copied unchanged apart from the name and the missing registration:
``victim`` walks the ``sample`` least recently used residents, calls
``priority`` on each and keeps the lowest ``(priority, -last_access, key)``.
``tests/test_objcache_rlr_differential.py`` replays the same streams
through this model and through :mod:`repro.objcache.rlr` and requires the
same victim for every eviction, the same final statistics and the same
reuse-distance estimate.
"""

from __future__ import annotations

from repro.core.rd_estimator import ReuseDistanceEstimator
from repro.objcache.core import size_bucket
from repro.objcache.policies import ObjectEvictionPolicy

PRIORITY_SCALE = 16


class RefObjectRLRPolicy(ObjectEvictionPolicy):
    """RLR priorities over object metadata, with an optional size term."""

    name = "rlr"

    def __init__(self, size_weight: int = 0, sample: int = 256,
                 log2_hits: int = 5):
        if sample < 1:
            raise ValueError(f"rlr sample must be >= 1, got {sample}")
        self.size_weight = size_weight
        self.sample = sample
        self.name = "rlr_size" if size_weight else "rlr"
        self.rd = ReuseDistanceEstimator(log2_hits=log2_hits, initial_rd=0)
        self._order = {}  # key -> None, LRU -> MRU
        self._last_seen = {}  # key -> position of its previous access

    def on_admit(self, obj, now):
        self._order[obj.key] = None
        self._last_seen[obj.key] = now

    def on_hit(self, obj, now):
        previous = self._last_seen.get(obj.key)
        if previous is not None:
            self.rd.record_demand_hit(now - previous)
        self._last_seen[obj.key] = now
        del self._order[obj.key]
        self._order[obj.key] = None

    def on_evict(self, obj, now):
        self._order.pop(obj.key, None)
        self._last_seen.pop(obj.key, None)

    def priority(self, obj, now: int) -> int:
        score = 0
        if obj.age(now) <= self.rd.rd:
            score += 8  # P_age: inside the reuse window — protect
        if obj.seen_before:
            score += 1  # P_type: re-admitted, not a one-hit wonder
        if obj.hits > 0:
            score += 1  # P_hit
        return score * PRIORITY_SCALE - self.size_weight * size_bucket(
            obj.size
        )

    def victim(self, residents, incoming, now):
        best_key = None
        best_rank = None
        for index, key in enumerate(self._order):
            if index >= self.sample:
                break
            obj = residents[key]
            rank = (self.priority(obj, now), -obj.last_access, key)
            if best_rank is None or rank < best_rank:
                best_rank = rank
                best_key = key
        return best_key
