"""Differential proof: the stamp-based cache core against the frozen
O(ways) reference model (``tests/reference_cache.py``).

Both models replay the same stream, in lockstep, under two instances of the
same policy.  Every access must agree on hit/miss, bypass and the evicted
line; every eviction must agree on the chosen way.  Before every eviction
and after every access, the set must agree way by way on validity, line
address, recency rank, preuse and hits, plus both ages when the cache keeps
Table II metadata (``detailed=True``; the reference kept no ages
otherwise).  Invalidation is not replayed: the reference left a gap in
its recency permutation there, which is the bug the stamps fix (see
``tests/test_cache.py::TestInvalidateLine``).
"""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.cache import Cache, CacheConfig
from repro.cache.replacement import POLICY_REGISTRY, make_policy
from repro.cache.replacement.belady import BeladyPolicy
from repro.eval.runner import prepare_workload
from repro.eval.workloads import EvalConfig
from repro.traces.record import AccessType, TraceRecord

from tests.reference_cache import RefCache

POLICIES = sorted(POLICY_REGISTRY)


def _policy(name, records):
    if name == "belady":
        return BeladyPolicy([record.line_address for record in records])
    return make_policy(name)


def _new_snapshot(cache_set, detailed):
    ranks = cache_set.ranks()
    now = cache_set.accesses
    return [
        (line.valid, line.line_address, ranks[way], line.preuse,
         line.hits_since_insertion)
        + ((now - line.fill_at, now - line.stamp)
           if detailed and line.valid else ())
        for way, line in enumerate(cache_set.lines)
    ]


def _ref_snapshot(cache_set, detailed):
    return [
        (line.valid, line.line_address, line.recency, line.preuse,
         line.hits_since_insertion)
        + ((line.age_since_insertion, line.age_since_last_access)
           if detailed and line.valid else ())
        for line in cache_set.lines
    ]


def assert_lockstep(config, records, policy_name, detailed=True,
                    allow_bypass=False):
    """Replay ``records`` through both models; fail on the first mismatch."""
    models = []
    for cache_class, snapshot in ((Cache, _new_snapshot),
                                  (RefCache, _ref_snapshot)):
        policy = _policy(policy_name, records)
        policy.bind(config)
        cache = cache_class(config, policy, allow_bypass=allow_bypass,
                            detailed=detailed)
        evictions = []
        cache.add_decision_observer(
            lambda cache_set, way, line, access, log=evictions,
            snapshot=snapshot: log.append((way, snapshot(cache_set, detailed)))
        )
        models.append((cache, evictions))
    (new, new_evictions), (ref, ref_evictions) = models
    for position, record in enumerate(records):
        got, want = new.access(record), ref.access(record)
        context = f"{policy_name} access {position} ({record.line_address})"
        assert (got.hit, got.bypassed, got.evicted_line_address,
                got.evicted_dirty) == (
            want.hit, want.bypassed, want.evicted_line_address,
            want.evicted_dirty), context
        assert new_evictions == ref_evictions, context
        new_evictions.clear()
        ref_evictions.clear()
        set_index = config.set_index(record.line_address)
        assert _new_snapshot(new.sets[set_index], detailed) == \
            _ref_snapshot(ref.sets[set_index], detailed), context
    assert new.stats.summary() == ref.stats.summary(), policy_name


_ACCESSES = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=47),  # line address
        st.sampled_from(list(AccessType)),
        st.integers(min_value=0, max_value=7),  # pc slot
    ),
    min_size=1,
    max_size=250,
)


class TestGeneratedTraces:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        accesses=_ACCESSES,
        policy_name=st.sampled_from(POLICIES),
        geometry=st.sampled_from([(1, 4), (2, 2), (4, 4), (2, 8), (1, 16)]),
        detailed=st.booleans(),
        allow_bypass=st.booleans(),
    )
    def test_models_agree(self, accesses, policy_name, geometry, detailed,
                          allow_bypass):
        sets, ways = geometry
        config = CacheConfig("d", sets * ways * 64, ways, latency=1)
        records = [
            TraceRecord(address=line * 64 + pc, pc=pc * 4,
                        access_type=access_type, core=pc % 2)
            for line, access_type, pc in accesses
        ]
        assert_lockstep(config, records, policy_name, detailed, allow_bypass)


@pytest.fixture(scope="module")
def bench_streams():
    """Recorded LLC streams in the benchmark shapes: the replay bench's
    astar at scale 16 and the sweep's models at scale 64, shortened."""
    streams = []
    for model, scale, length in (("473.astar", 16, 8000),
                                 ("429.mcf", 64, 2000),
                                 ("cassandra", 64, 2000)):
        config = EvalConfig(scale=scale, trace_length=length, seed=7)
        prepared = prepare_workload(config, config.trace(model))
        streams.append((model, prepared.llc_config, prepared.llc_records))
    return streams


class TestBenchShapes:
    @pytest.mark.parametrize("policy_name", POLICIES)
    def test_models_agree_on_bench_streams(self, bench_streams, policy_name):
        for _, llc_config, records in bench_streams:
            assert_lockstep(llc_config, records, policy_name, detailed=True)

    @pytest.mark.parametrize("policy_name", ["lru", "rlr", "belady"])
    def test_models_agree_without_line_metadata(self, bench_streams,
                                                policy_name):
        for _, llc_config, records in bench_streams:
            assert_lockstep(llc_config, records, policy_name, detailed=False)
