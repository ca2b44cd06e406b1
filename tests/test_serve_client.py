"""The defensive serve client: backoff, breaker, and reply validation."""

from __future__ import annotations

import random

import pytest

from repro.cache.block import CacheLine
from repro.cache.cache_set import CacheSet
from repro.cache.config import CacheConfig
from repro.serve.client import (
    CircuitBreaker,
    PolicyClient,
    ServerBackedPolicy,
    backoff_delays,
)
from repro.serve.protocol import pack_lines
from repro.serve.server import ServeConfig, start_in_thread
from repro.traces.record import AccessType, TraceRecord


def _record() -> TraceRecord:
    return TraceRecord(address=0x1000, pc=0x40,
                       access_type=AccessType.LOAD, core=0)


def _full_set(ways: int = 4) -> CacheSet:
    cache_set = CacheSet(0, ways)
    for way in range(ways):  # way 0 filled first: the LRU line
        cache_set.accesses += 1
        cache_set.fill(way, 0x10 + way, 0x4000 + way, _record())
    return cache_set


class TestBackoffSchedule:
    def test_exponential_and_capped(self):
        rng = random.Random(7)
        delays = backoff_delays(4, base=0.1, cap=0.4, rng=rng)
        raw = [0.1, 0.2, 0.4, 0.4]  # doubled then capped
        assert len(delays) == 4
        for delay, ceiling in zip(delays, raw):
            assert ceiling * 0.5 <= delay <= ceiling  # 50-100% jitter

    def test_seeded_rng_makes_the_schedule_reproducible(self):
        first = backoff_delays(3, 0.01, 0.5, random.Random(7))
        second = backoff_delays(3, 0.01, 0.5, random.Random(7))
        assert first == second

    def test_retry_loop_sleeps_the_exact_schedule(self):
        # Port 1 on localhost refuses connections: every attempt fails.
        slept = []
        client = PolicyClient("127.0.0.1", 1, timeout=0.05, retries=3,
                              backoff_base=0.01, backoff_cap=0.5,
                              rng_seed=7, sleep=slept.append)
        assert client.request({"op": "ping"}) is None
        expected = backoff_delays(3, 0.01, 0.5, random.Random(7))
        assert slept == expected
        assert client.transport_failures == 4  # initial try + 3 retries


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown_requests=5)
        for _ in range(2):
            breaker.record_failure()
        assert not breaker.open
        breaker.record_failure()
        assert breaker.open

    def test_success_resets(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown_requests=5)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert not breaker.open

    def test_half_open_probe_after_cooldown(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_requests=3)
        breaker.record_failure()
        assert breaker.open
        assert not breaker.allow()  # skip 1
        assert not breaker.allow()  # skip 2
        assert breaker.allow()      # skip 3 -> one probe allowed
        assert not breaker.allow()  # cooldown restarts until the probe lands
        breaker.record_success()
        assert breaker.allow()

    def test_open_breaker_short_circuits_the_client(self):
        attempts = []
        client = PolicyClient("127.0.0.1", 1, timeout=0.05, retries=0,
                              sleep=lambda _: None, failure_threshold=1,
                              cooldown_requests=100)

        real_connect = client._connect

        def counting_connect():
            attempts.append(1)
            real_connect()

        client._connect = counting_connect
        assert client.request({"op": "ping"}) is None  # opens the breaker
        assert client.breaker.open
        for _ in range(5):
            assert client.request({"op": "ping"}) is None
        assert len(attempts) == 1  # breaker served the rest without a dial


class TestReplyValidation:
    def _policy(self) -> ServerBackedPolicy:
        return ServerBackedPolicy("lru", "127.0.0.1", 1)

    @pytest.mark.parametrize("reply", [
        None,
        {"ok": False, "error": "nope"},
        {"ok": True, "way": None},
        {"ok": True, "way": True},          # bool is not a way
        {"ok": True, "way": 2.0},           # float is not a way
        {"ok": True, "way": -1},            # bypass sentinel, not enabled
        {"ok": True, "way": 99},            # out of range (poisoned)
    ])
    def test_untrustworthy_replies_are_discarded(self, reply):
        assert self._policy()._validate(reply, _full_set()) is None

    def test_invalid_way_rejected(self):
        cache_set = _full_set()
        cache_set.invalidate(2)
        assert self._policy()._validate(
            {"ok": True, "way": 2}, cache_set
        ) is None

    def test_good_reply_accepted(self):
        assert self._policy()._validate(
            {"ok": True, "way": 2}, _full_set()
        ) == 2

    def test_unknown_policy_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown policy"):
            ServerBackedPolicy("definitely-not-a-policy", "127.0.0.1", 1)


class TestDeadServerFallback:
    def test_victim_degrades_to_local_lru(self):
        policy = ServerBackedPolicy(
            "lru", "127.0.0.1", 1,
            client_options={"timeout": 0.05, "retries": 0,
                            "sleep": lambda _: None},
        )
        policy._tenant = "t-dead"
        cache_set = _full_set()
        way = policy.victim(0, cache_set, _record())
        assert way == cache_set.lru_way()
        assert policy.local_fallbacks == 1

    def test_hooks_never_raise(self):
        policy = ServerBackedPolicy(
            "lru", "127.0.0.1", 1,
            client_options={"timeout": 0.05, "retries": 0,
                            "sleep": lambda _: None},
        )
        policy._tenant = "t-dead"
        policy.on_miss(0, _record())
        line = CacheLine()
        line.fill(0x1, 0x4000, _record(), now=0)
        policy.on_hit(0, 0, line, _record())
        policy.on_evict(0, 0, line, _record())
        policy.on_fill(0, 0, line, _record())
        assert policy._ensure_client().dropped_hooks >= 1


class TestHookLines:
    def test_hook_lines_match_the_set_snapshot(self):
        """``on_evict`` reports the victim as the victim request's snapshot
        did; ``on_fill`` reports the new line as the set now encodes it."""
        policy = ServerBackedPolicy("lru", "127.0.0.1", 1)
        policy._tenant = "t-hooks"
        policy.ways = 4
        sent = []
        client = policy._ensure_client()
        client.send = sent.append
        client.request = lambda frame: None  # unreachable: local LRU
        cache_set = _full_set()
        cache_set.accesses += 3
        before = pack_lines(cache_set)
        way = policy.victim(0, cache_set, _record())
        policy.on_evict(0, way, cache_set.lines[way], _record())
        assert sent[-1]["payload"].endswith(before[way])
        cache_set.accesses += 1
        line = cache_set.fill(way, 0x99, 0x4099, _record())
        policy.on_fill(0, way, line, _record())
        assert sent[-1]["payload"].endswith(pack_lines(cache_set)[way])
        policy.close()


class TestAgainstLiveServer:
    def test_bind_reports_policy_flags(self):
        from repro.cache.replacement import make_policy

        inner = make_policy("ship++")
        with start_in_thread(ServeConfig()) as handle:
            client = PolicyClient(handle.host, handle.port)
            config = CacheConfig("llc", 64 * 1024, 16, 30)
            reply = client.bind("t-flags", "ship++", config)
            assert reply["ok"]
            assert reply["uses_pc"] == inner.uses_pc is True
            assert (reply["needs_line_metadata"]
                    == getattr(inner, "needs_line_metadata", True))
            client.close()

    def test_bind_refused_for_unknown_policy(self):
        with start_in_thread(ServeConfig()) as handle:
            client = PolicyClient(handle.host, handle.port)
            config = CacheConfig("llc", 64 * 1024, 16, 30)
            assert client.bind("t-bad", "not-a-policy", config) is None
            client.close()

    def test_reconnect_replays_the_bind(self):
        with start_in_thread(ServeConfig()) as handle:
            client = PolicyClient(handle.host, handle.port)
            config = CacheConfig("llc", 64 * 1024, 16, 30)
            assert client.bind("t-re", "lru", config)["ok"]
            client.close()  # drop the transport, keep the bind frame
            reply = client.request(
                {"op": "stats", "tenant": "t-re"}
            )
            assert reply["ok"]  # reconnect re-bound transparently
            client.close()
