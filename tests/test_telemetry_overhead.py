"""Disabled-path overhead guards: telemetry off must be (nearly) free.

The acceptance bound is <2% overhead on the hot loops with telemetry
disabled.  Rather than race two wall-clock measurements (flaky under CI
load), these tests prove the property the implementation is built on —
the disabled path executes the *identical* hot-loop code — and then bound
the cost of the only thing that remains: one ``profiled()`` + one
``span()`` call per loop, not per iteration.
"""

import time
import timeit

from repro import telemetry
from repro.cache import CacheConfig
from repro.cache.replacement import make_policy
from repro.eval.runner import prepare_workload, replay
from repro.eval.workloads import EvalConfig
from repro.telemetry.profiling import profiled
from repro.telemetry.registry import NULL_REGISTRY
from repro.telemetry.spans import NULL_SPAN
from repro.traces import TraceRecord


class TestDisabledPathIsStructurallyFree:
    def test_profiled_is_identity(self):
        """Disabled ``profiled`` returns the argument itself: the ``for``
        loop binds the exact same object telemetry-free code would."""
        assert not telemetry.is_enabled()
        items = [1, 2, 3]
        assert profiled(items, "replay") is items
        generator = (x for x in items)
        assert profiled(generator, "replay") is generator

    def test_span_is_shared_null_object(self):
        assert telemetry.span("replay", workload="w") is NULL_SPAN
        assert telemetry.span("other") is NULL_SPAN

    def test_registry_is_shared_null_object(self):
        assert telemetry.get_registry() is NULL_REGISTRY
        # Instrument calls allocate nothing and mutate nothing.
        counter = telemetry.get_registry().counter("x", label="y")
        counter.inc(10 ** 9)
        assert telemetry.get_registry().snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }

    def test_enabled_profiled_yields_same_items(self):
        """The enabled wrapper is transparent to the loop body."""
        telemetry.configure(registry=telemetry.MetricsRegistry())
        try:
            items = list(range(100))
            assert list(profiled(items, "loop-test")) == items
            totals = telemetry.loop_totals()
            assert totals["loop-test"]["iterations"] == 100
            assert totals["loop-test"]["loops"] == 1
        finally:
            telemetry.shutdown()


class TestDisabledOverheadBound:
    def test_hook_cost_under_two_percent_of_replay(self):
        """The per-loop hook cost is <2% of one (tiny) replay.

        ``replay`` makes exactly one ``span()`` and one ``profiled()`` call
        per invocation.  Bound their combined cost against the smallest
        realistic unit of work the sweep engine ever schedules; on real
        workloads (thousands of times larger) the ratio only shrinks.
        """
        eval_config = EvalConfig(scale=64, trace_length=1500, seed=7)
        prepared = prepare_workload(eval_config, eval_config.trace("429.mcf"))

        started = time.perf_counter()
        repeats = 5
        for _ in range(repeats):
            replay(prepared, "lru")
        replay_seconds = (time.perf_counter() - started) / repeats

        calls = 2000
        hook_seconds = timeit.timeit(
            lambda: (telemetry.span("replay", workload="w"),
                     profiled((), "replay")),
            number=calls,
        ) / calls

        assert hook_seconds < 0.02 * replay_seconds, (
            f"disabled telemetry hooks cost {hook_seconds * 1e6:.2f}us per "
            f"loop vs replay {replay_seconds * 1e3:.2f}ms"
        )

    def test_replay_identical_with_and_without_telemetry_module_state(self):
        """Results are bit-identical whether telemetry was ever enabled."""
        eval_config = EvalConfig(scale=64, trace_length=1500, seed=7)
        prepared = prepare_workload(eval_config, eval_config.trace("470.lbm"))
        baseline = replay(prepared, "lru")

        telemetry.configure(registry=telemetry.MetricsRegistry())
        try:
            instrumented = replay(prepared, "lru")
        finally:
            telemetry.shutdown()
        after = replay(prepared, "lru")

        assert instrumented == baseline
        assert after == baseline


class TestDecisionTracingDisabledPath:
    """Decision tracing off must be as free as telemetry off."""

    def test_untraced_cache_has_no_decision_observers(self):
        """An untraced cache keeps no observer, so its access and eviction
        paths skip every observer branch."""
        from repro.cache import Cache, CacheConfig
        from repro.cache.replacement import make_policy

        config = CacheConfig("c", 4 * 4 * 64, 4, latency=1)
        policy = make_policy("lru")
        policy.bind(config)
        cache = Cache(config, policy)
        assert cache.decision_observers == []
        assert cache._observed is False

    def test_untraced_replay_leaves_no_active_trace(self):
        from repro.telemetry.decisions import active_trace

        eval_config = EvalConfig(scale=64, trace_length=1500, seed=7)
        prepared = prepare_workload(eval_config, eval_config.trace("429.mcf"))
        assert active_trace() is None
        replay(prepared, "lru")
        assert active_trace() is None

    def test_replay_identical_with_and_without_decision_tracing(self):
        """A traced replay returns bit-identical results, and the trace
        leaves no residue on subsequent untraced replays."""
        from repro.rl.reward import FutureOracle
        from repro.telemetry.decisions import DecisionTrace

        eval_config = EvalConfig(scale=64, trace_length=1500, seed=7)
        prepared = prepare_workload(eval_config, eval_config.trace("429.mcf"))
        baseline = replay(prepared, "lru")
        decisions = DecisionTrace(
            workload="429.mcf",
            oracle=FutureOracle(prepared.llc_line_stream),
        )
        traced = replay(prepared, "lru", decisions=decisions)
        after = replay(prepared, "lru")

        assert traced == baseline
        assert after == baseline
        assert decisions.evictions > 0

    def test_disabled_path_registers_no_observers(self):
        """Decision tracing off: the replay registers no observer and never
        enters the eviction-notification branch, although it evicts.  With
        tracing on the same probes fire, so they would see a regression."""
        from repro.eval.bench import observer_probes

        eval_config = EvalConfig(scale=64, trace_length=1500, seed=7)
        prepared = prepare_workload(eval_config, eval_config.trace("429.mcf"))
        assert replay(prepared, "lru").llc_stats["evictions"] > 0
        assert observer_probes(prepared) == []
        assert observer_probes(prepared, traced=True) == [
            "_notify_eviction", "add_access_observer", "add_decision_observer",
        ]

    def test_observer_free_cache_differs_only_by_the_guards(self):
        """The A/B's hooks-absent side is the shipped cache minus its
        ``_observed`` branches, and simulates identically."""
        from repro.cache.cache import Cache
        from repro.eval.bench import _cache_without_observers

        absent = _cache_without_observers()
        for method in ("access", "_handle_miss"):
            assert "_observed" in getattr(Cache, method).__code__.co_names
            assert "_observed" not in getattr(absent, method).__code__.co_names
        config = CacheConfig("c", 4 * 4 * 64, 4, latency=1)
        caches = []
        for cache_class in (Cache, absent):
            policy = make_policy("lru")
            policy.bind(config)
            caches.append(cache_class(config, policy))
        for line in [0, 4, 8, 12, 16, 0, 20, 4] * 3:
            record = TraceRecord(address=line * 64)
            assert caches[0].access(record) == caches[1].access(record)
