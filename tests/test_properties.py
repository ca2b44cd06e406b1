"""Property-based tests (hypothesis) for core invariants."""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.cache import Cache, CacheConfig
from repro.cache.replacement import make_policy
from repro.cache.replacement.belady import BeladyPolicy
from repro.core import ReuseDistanceEstimator
from repro.eval.metrics import geomean
from repro.rl.replay import ReplayMemory, Transition
from repro.traces.record import AccessType, TraceRecord

from tests.conftest import load

_POLICIES = ["lru", "mru", "random", "srrip", "brrip", "drrip",
             "ship", "ship++", "hawkeye", "kpc_r", "pdp", "eva",
             "rlr", "rlr_unopt", "rlr_tuned", "lip", "bip", "dip",
             "nru", "irg", "counter", "glider", "mpppb", "sdbp", "rwp"]

_access_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=63),  # line address
        st.sampled_from(list(AccessType)),
        st.integers(min_value=0, max_value=15),  # pc slot
    ),
    min_size=1,
    max_size=300,
)


def _records(accesses):
    return [
        TraceRecord(address=line * 64, pc=pc * 4, access_type=access_type)
        for line, access_type, pc in accesses
    ]


class TestCacheInvariants:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(accesses=_access_strategy, policy_name=st.sampled_from(_POLICIES))
    def test_recency_values_stay_distinct_and_bounded(self, accesses, policy_name):
        # Recency stamps of valid lines are distinct, their ranks are
        # distinct values in [0, ways), and a full set holds exactly the
        # dense permutation 0..ways-1.
        config = CacheConfig("c", 4 * 4 * 64, 4, latency=1)
        policy = make_policy(policy_name)
        policy.bind(config)
        cache = Cache(config, policy)
        for record in _records(accesses):
            cache.access(record)
            for cache_set in cache.sets:
                stamps = [l.stamp for l in cache_set.lines if l.valid]
                assert len(set(stamps)) == len(stamps)
                ranks = cache_set.ranks()
                recencies = [ranks[way] for way in cache_set.valid_ways()]
                assert len(set(recencies)) == len(recencies)
                assert all(0 <= r < config.ways for r in recencies)
                if len(recencies) == config.ways:
                    assert sorted(recencies) == list(range(config.ways))

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(accesses=_access_strategy, policy_name=st.sampled_from(_POLICIES))
    def test_no_duplicate_tags_within_set(self, accesses, policy_name):
        config = CacheConfig("c", 4 * 4 * 64, 4, latency=1)
        policy = make_policy(policy_name)
        policy.bind(config)
        cache = Cache(config, policy)
        for record in _records(accesses):
            cache.access(record)
        for cache_set in cache.sets:
            tags = [l.tag for l in cache_set.lines if l.valid]
            assert len(tags) == len(set(tags))

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(accesses=_access_strategy, policy_name=st.sampled_from(_POLICIES))
    def test_accessed_line_is_resident_after_access(self, accesses, policy_name):
        config = CacheConfig("c", 4 * 4 * 64, 4, latency=1)
        policy = make_policy(policy_name)
        policy.bind(config)
        cache = Cache(config, policy)
        for record in _records(accesses):
            cache.access(record)
            assert cache.contains(record.line_address)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(accesses=_access_strategy)
    def test_stats_are_consistent(self, accesses):
        config = CacheConfig("c", 2 * 4 * 64, 4, latency=1)
        policy = make_policy("lru")
        policy.bind(config)
        cache = Cache(config, policy)
        for record in _records(accesses):
            cache.access(record)
        stats = cache.stats
        assert stats.total_accesses == len(accesses)
        assert stats.total_hits + stats.total_misses == len(accesses)
        assert stats.compulsory_misses <= stats.total_misses
        assert stats.dirty_evictions <= stats.evictions


class TestBeladyOptimality:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        lines=st.lists(st.integers(min_value=0, max_value=30),
                       min_size=20, max_size=400),
        policy_name=st.sampled_from(["lru", "mru", "srrip", "drrip", "rlr"]),
    )
    def test_belady_never_loses(self, lines, policy_name):
        """OPT's total hits dominate every online policy on any stream."""
        config = CacheConfig("c", 2 * 4 * 64, 4, latency=1)
        belady = BeladyPolicy(list(lines))
        belady.bind(config)
        belady_cache = Cache(config, belady)
        online = make_policy(policy_name)
        online.bind(config)
        online_cache = Cache(config, online)
        for line in lines:
            belady_cache.access(load(line))
            online_cache.access(load(line))
        assert belady_cache.stats.total_hits >= online_cache.stats.total_hits


class TestEstimatorProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        values=st.lists(st.integers(min_value=0, max_value=31),
                        min_size=32, max_size=32),
    )
    def test_rd_equals_shifted_sum(self, values):
        estimator = ReuseDistanceEstimator(log2_hits=5)
        for value in values:
            estimator.record_demand_hit(value)
        assert estimator.rd == sum(values) >> 4

    @settings(max_examples=50, deadline=None)
    @given(
        values=st.lists(st.integers(min_value=0, max_value=1000),
                        min_size=1, max_size=200),
        max_rd=st.integers(min_value=1, max_value=31),
    )
    def test_rd_never_exceeds_cap(self, values, max_rd):
        estimator = ReuseDistanceEstimator(log2_hits=2, max_rd=max_rd)
        for value in values:
            estimator.record_demand_hit(value)
            assert estimator.rd <= max_rd


class TestReplayProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        count=st.integers(min_value=1, max_value=50),
        capacity=st.integers(min_value=1, max_value=20),
    )
    def test_length_never_exceeds_capacity(self, count, capacity):
        import numpy as np

        memory = ReplayMemory(capacity=capacity)
        for i in range(count):
            memory.push(Transition(np.zeros(1), i, None, 0.0))
        assert len(memory) == min(count, capacity)
        # The newest transition is always retained.
        assert any(t.action == count - 1 for t in memory._buffer)


class TestMetricProperties:
    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(
        st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
        min_size=1, max_size=20,
    ))
    def test_geomean_bounded_by_min_max(self, values):
        result = geomean(values)
        assert min(values) - 1e-9 <= result <= max(values) + 1e-9

    @settings(max_examples=50, deadline=None)
    @given(
        values=st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1,
                        max_size=10),
        scale=st.floats(min_value=0.5, max_value=2.0),
    )
    def test_geomean_is_homogeneous(self, values, scale):
        import math

        assert math.isclose(
            geomean([scale * v for v in values]),
            scale * geomean(values),
            rel_tol=1e-9,
        )


class TestReplayEquivalenceProperty:
    """Replay must equal full-system simulation for any workload/policy."""

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        policy_name=st.sampled_from(["lru", "drrip", "ship", "rlr"]),
        workload=st.sampled_from(["429.mcf", "471.omnetpp", "403.gcc"]),
    )
    def test_replay_matches_full_system(self, seed, policy_name, workload):
        import pytest as _pytest

        from repro.cpu.system import System
        from repro.eval.runner import run_workload
        from repro.eval.workloads import EvalConfig

        eval_config = EvalConfig(scale=64, trace_length=1200, seed=seed)
        trace = eval_config.trace(workload)
        fast = run_workload(eval_config, trace, policy_name)
        system = System(
            hierarchy_config=eval_config.hierarchy(num_cores=1),
            llc_policy=make_policy(policy_name),
        )
        slow = system.run(trace, warmup_fraction=eval_config.warmup_fraction)
        assert fast.single_ipc == _pytest.approx(slow.single_ipc, rel=1e-12)
        assert fast.llc_stats["hits"] == slow.llc_stats["hits"]
        assert fast.llc_stats["misses"] == slow.llc_stats["misses"]
