"""Admission hooks: the gate in front of the object cache."""

import random

import pytest

from repro.objcache import (
    ObjectCache,
    ObjectCacheError,
    ObjectRequest,
    admission_names,
    make_admission,
    make_object_policy,
)
from repro.objcache.admission import FrequencyGateAdmission


class TestRegistry:
    def test_bundled_hooks_are_registered(self):
        names = admission_names()
        assert {"always", "size_threshold", "freq_gate"} <= set(names)

    def test_unknown_hook_raises_with_known_list(self):
        with pytest.raises(ObjectCacheError, match="known:.*always"):
            make_admission("ml-oracle")


class TestSizeThreshold:
    def test_rejects_above_ceiling(self):
        hook = make_admission("size_threshold", max_size=1000)
        assert hook.admit(ObjectRequest(key=1, size=1000), 0) is True
        assert hook.admit(ObjectRequest(key=1, size=1001), 0) is False

    def test_invalid_ceiling_rejected(self):
        with pytest.raises(ObjectCacheError):
            make_admission("size_threshold", max_size=0)

    def test_cache_counts_threshold_rejections(self):
        cache = ObjectCache(
            10_000, make_object_policy("lru"),
            admission=make_admission("size_threshold", max_size=100),
        )
        cache.access(ObjectRequest(key=1, size=500))
        assert cache.stats.rejected == 1
        assert len(cache) == 0


class _PerCallSlotsGate(FrequencyGateAdmission):
    """The gate as it was before slots were computed once per request:
    every ``record`` and ``estimate`` re-hashes the key row by row."""

    def _slots(self, key):
        for row in range(self.depth):
            mixed = (key * self._MULTIPLIERS[row]) & self._MASK
            mixed ^= mixed >> 29
            yield row, mixed % self.width

    def estimate(self, key):
        return min(self._rows[row][slot] for row, slot in self._slots(key))

    def record(self, request, now):
        for row, slot in self._slots(request.key):
            if self._rows[row][slot] < self._COUNTER_MAX:
                self._rows[row][slot] += 1
        self._since_reset += 1
        if self._since_reset >= self.reset_interval:
            for row in self._rows:
                for slot in range(self.width):
                    row[slot] >>= 1
            self._since_reset = 0


class TestFrequencyGate:
    @pytest.mark.parametrize("depth", (1, 4))
    def test_same_counters_and_verdicts_as_per_call_hashing(self, depth):
        # 3000 requests against a reset every 97 cross the halving 30
        # times; admit() also runs for keys that were not just recorded,
        # and keys reach past 2**64 so the hash mask matters.
        rng = random.Random(11)
        keys = [rng.randrange(1 << 70) for _ in range(60)]
        gates = [cls(width=37, depth=depth, threshold=3, reset_interval=97)
                 for cls in (_PerCallSlotsGate, FrequencyGateAdmission)]
        for now in range(3000):
            request = ObjectRequest(key=rng.choice(keys), size=1)
            probe = ObjectRequest(key=rng.choice(keys), size=1)
            verdicts = []
            for gate in gates:
                gate.record(request, now)
                verdicts.append((gate.admit(request, now),
                                 gate.admit(probe, now),
                                 gate.admit(request, now)))
            assert verdicts[0] == verdicts[1], now
            assert gates[0]._rows == gates[1]._rows, now
        assert any(any(row) for row in gates[1]._rows)

    def test_admits_on_the_second_sighting(self):
        # The cache taps record() before resolving the miss, so the first
        # request of a key reaches the gate with an estimate of 1.
        cache = ObjectCache(
            10_000, make_object_policy("lru"),
            admission=make_admission("freq_gate", threshold=2),
        )
        cache.access(ObjectRequest(key=7, size=100))
        assert 7 not in cache  # one-hit wonder filtered
        cache.access(ObjectRequest(key=7, size=100))
        assert 7 in cache

    def test_counters_halve_at_the_reset_interval(self):
        gate = FrequencyGateAdmission(width=64, depth=2, threshold=2,
                                      reset_interval=4)
        request = ObjectRequest(key=5, size=10)
        for _ in range(3):
            gate.record(request, 0)
        assert gate.estimate(5) == 3
        gate.record(request, 0)  # 4th record triggers the halving
        assert gate.estimate(5) == 2

    def test_two_instances_estimate_identically(self):
        # Fixed multipliers: no PYTHONHASHSEED dependence.
        a = FrequencyGateAdmission(width=128, depth=4)
        b = FrequencyGateAdmission(width=128, depth=4)
        for key in range(50):
            request = ObjectRequest(key=key * 31, size=1)
            for _ in range(key % 3 + 1):
                a.record(request, 0)
                b.record(request, 0)
        for key in range(50):
            assert a.estimate(key * 31) == b.estimate(key * 31)

    @pytest.mark.parametrize("kwargs", [
        {"width": 0},
        {"depth": 0},
        {"depth": 5},
        {"threshold": 0},
    ])
    def test_invalid_geometry_rejected(self, kwargs):
        with pytest.raises(ObjectCacheError):
            FrequencyGateAdmission(**kwargs)
