"""Tests for the policy contract sanitizer (repro.sanitize)."""

import copy

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.cache import Cache, CacheConfig
from repro.cache.replacement import POLICY_REGISTRY, make_policy
from repro.cache.replacement.base import BYPASS, ReplacementPolicy
from repro.sanitize import (
    CheckedPolicy,
    PolicyContractError,
    resolve_mode,
    wrap_policy,
)
from repro.traces.record import AccessType, TraceRecord

from tests.conftest import load


def _config(sets=4, ways=4):
    return CacheConfig("t", sets * ways * 64, ways, latency=1)


class OutOfRangePolicy(ReplacementPolicy):
    """Returns a way index beyond the set after ``good`` correct victims."""

    name = "outofrange"

    def __init__(self, good: int = 0):
        super().__init__()
        self.good = good

    def victim(self, set_index, cache_set, access):
        if self.good > 0:
            self.good -= 1
            return cache_set.lru_way()
        return cache_set.ways + 3


class AlwaysBypassPolicy(ReplacementPolicy):
    name = "alwaysbypass"

    def victim(self, set_index, cache_set, access):
        return BYPASS


class NonePolicy(ReplacementPolicy):
    name = "nonepolicy"

    def victim(self, set_index, cache_set, access):
        return None


def _fill_and_overflow(cache, lines=32):
    for line in range(lines):
        cache.access(load(line))


class TestResolveMode:
    def test_default_is_normal(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert resolve_mode() == "normal"

    def test_environment_wins_over_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "strict")
        assert resolve_mode() == "strict"

    def test_explicit_wins_over_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "strict")
        assert resolve_mode("off") == "off"

    def test_unknown_mode_fails_loudly(self):
        with pytest.raises(ValueError):
            resolve_mode("lenient")


class TestWrapPolicy:
    def test_off_mode_is_structural_identity(self):
        # Mirrors the telemetry profiled() guarantee: disabled means the
        # exact same object, not a cheap wrapper.
        policy = make_policy("lru")
        assert wrap_policy(policy, "off") is policy

    def test_wrapping_is_idempotent(self):
        policy = wrap_policy(make_policy("lru"), "normal")
        assert wrap_policy(policy, "normal") is policy

    def test_hot_path_hooks_are_rebound_not_wrapped(self):
        policy = make_policy("lru")
        checked = wrap_policy(policy, "normal")
        assert checked.on_hit == policy.on_hit
        assert checked.on_miss == policy.on_miss

    def test_attribute_delegation(self):
        checked = wrap_policy(make_policy("ship"), "normal")
        assert checked.name == "ship"
        assert checked.uses_pc is True


class TestStrictMode:
    def test_out_of_range_victim_raises_typed_error(self):
        config = _config()
        policy = wrap_policy(OutOfRangePolicy(), "strict")
        policy.bind(config)
        cache = Cache(config, policy, sanitize="strict")
        with pytest.raises(PolicyContractError) as excinfo:
            _fill_and_overflow(cache)
        assert "outofrange" in str(excinfo.value)
        assert "range(ways=4)" in str(excinfo.value)

    def test_bypass_without_allowance_raises(self):
        config = _config()
        policy = wrap_policy(AlwaysBypassPolicy(), "strict")
        policy.bind(config)
        cache = Cache(config, policy, allow_bypass=False, sanitize="strict")
        with pytest.raises(PolicyContractError):
            _fill_and_overflow(cache)

    def test_bypass_with_allowance_passes_through(self):
        config = _config()
        policy = wrap_policy(
            AlwaysBypassPolicy(), "strict", allow_bypass=True
        )
        policy.bind(config)
        cache = Cache(config, policy, allow_bypass=True, sanitize="strict")
        _fill_and_overflow(cache)
        assert cache.stats.bypasses > 0

    def test_non_integer_victim_raises(self):
        config = _config()
        policy = wrap_policy(NonePolicy(), "strict")
        policy.bind(config)
        cache = Cache(config, policy, sanitize="strict")
        with pytest.raises(PolicyContractError):
            _fill_and_overflow(cache)

    def test_double_bind_raises(self):
        policy = wrap_policy(make_policy("lru"), "strict")
        policy.bind(_config())
        with pytest.raises(PolicyContractError):
            policy.bind(_config())

    def test_prebound_policy_first_wrapped_bind_counts_as_double(self):
        inner = make_policy("lru")
        inner.bind(_config())
        policy = wrap_policy(inner, "strict")
        with pytest.raises(PolicyContractError):
            policy.bind(_config())

    def test_lifecycle_balance_check(self):
        config = _config()
        policy = wrap_policy(make_policy("lru"), "strict")
        policy.bind(config)
        cache = Cache(config, policy, sanitize="strict")
        _fill_and_overflow(cache)
        cache.policy.assert_lifecycle_balanced()  # cache pairs them
        # A hand-driven unmatched eviction is detected.
        cache.policy.on_evict(0, 0, cache.sets[0].lines[0], load(0))
        with pytest.raises(PolicyContractError):
            cache.policy.assert_lifecycle_balanced()


class TestNormalModeDegradation:
    def test_violation_degrades_to_lru_and_records(self):
        config = _config()
        policy = wrap_policy(OutOfRangePolicy(), "normal")
        policy.bind(config)
        cache = Cache(config, policy, sanitize="normal")
        _fill_and_overflow(cache)
        assert cache.policy.degraded
        assert len(cache.policy.violations) == 1  # recorded once, not per miss
        assert "outofrange" in cache.policy.violations[0]

    def test_degraded_cache_behaves_exactly_like_lru(self):
        config = _config()
        bad = wrap_policy(OutOfRangePolicy(), "normal")
        bad.bind(config)
        bad_cache = Cache(config, bad, sanitize="normal")

        lru = make_policy("lru")
        lru.bind(_config())
        lru_cache = Cache(_config(), lru, sanitize="off")

        for line in [0, 4, 8, 12, 16, 0, 4, 20, 8, 24, 12, 0, 28, 32]:
            bad_cache.access(load(line))
            lru_cache.access(load(line))
        assert bad_cache.stats.summary() == lru_cache.stats.summary()

    def test_no_violation_means_no_degradation(self):
        config = _config()
        policy = wrap_policy(make_policy("srrip"), "normal")
        policy.bind(config)
        cache = Cache(config, policy, sanitize="normal")
        _fill_and_overflow(cache)
        assert not cache.policy.degraded
        assert cache.policy.violations == []


_PROPERTY_ACCESSES = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=47),  # line address
        st.sampled_from(list(AccessType)),
        st.integers(min_value=0, max_value=7),  # pc slot
    ),
    min_size=1,
    max_size=200,
)

_GEOMETRIES = st.sampled_from([(2, 2), (4, 4), (2, 8), (8, 2)])


def _set_state(cache_set):
    return [
        (line.valid, line.tag, line.line_address, line.dirty, line.stamp)
        for line in cache_set.lines
    ]


class TestContractProperty:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        accesses=_PROPERTY_ACCESSES,
        policy_name=st.sampled_from(sorted(POLICY_REGISTRY)),
        geometry=_GEOMETRIES,
    )
    def test_every_registry_policy_honours_the_contract(
        self, accesses, policy_name, geometry
    ):
        # Strict sanitizer: any out-of-range/invalid victim, bypass abuse,
        # or hook imbalance raises.  Additionally, an access to one set
        # must never mutate any *other* set's line state (valid even for
        # set-dueling policies — only cache-line state is checked).
        sets, ways = geometry
        config = CacheConfig("p", sets * ways * 64, ways, latency=1)
        records = [
            TraceRecord(address=line * 64, pc=pc * 4, access_type=access_type)
            for line, access_type, pc in accesses
        ]
        if policy_name == "belady":
            policy = make_policy(
                "belady",
                future_line_addresses=[r.line_address for r in records],
            )
        else:
            policy = make_policy(policy_name)
        checked = wrap_policy(policy, "strict")
        checked.bind(config)
        cache = Cache(config, checked, sanitize="strict")
        for record in records:
            accessed = config.set_index(record.line_address)
            before = {
                index: _set_state(cache.sets[index])
                for index in range(sets)
                if index != accessed
            }
            cache.access(record)
            for index, state in before.items():
                assert _set_state(cache.sets[index]) == state, (
                    f"{policy_name} mutated set {index} while set "
                    f"{accessed} was accessed"
                )
        checked.assert_lifecycle_balanced()
        assert checked.violations == []


class TestSweepDegradation:
    def _sweep(self, policies, sanitize, tmp_path):
        from repro.eval.parallel import parallel_sweep
        from repro.eval.workloads import EvalConfig

        eval_config = EvalConfig(scale=64, trace_length=1500, seed=3)
        return parallel_sweep(
            eval_config,
            ["429.mcf"],
            policies,
            jobs=1,
            use_cache=False,
            sanitize=sanitize,
        )

    def test_normal_mode_marks_cell_degraded(self, tmp_path):
        report = self._sweep(["lru", OutOfRangePolicy(good=5)], "normal", tmp_path)
        bad = report.cell("429.mcf", "outofrange")
        assert bad.ok
        assert bad.status == "degraded"
        assert "outofrange" in bad.violations[0]
        assert ",degraded," in report.to_csv()
        good = report.cell("429.mcf", "lru")
        assert good.status == "ok"

    def test_strict_mode_fails_cell_with_typed_error(self, tmp_path):
        report = self._sweep(["lru", OutOfRangePolicy(good=5)], "strict", tmp_path)
        bad = report.cell("429.mcf", "outofrange")
        assert not bad.ok
        assert bad.status == "failed"
        assert "PolicyContractError" in bad.error
        assert "outofrange" in bad.error
        # The well-behaved policy's cell is untouched.
        assert report.cell("429.mcf", "lru").ok

    def test_off_and_normal_reports_are_byte_identical_without_violations(
        self, tmp_path
    ):
        policies = ["lru", "srrip", "ship++"]
        off = self._sweep(policies, "off", tmp_path)
        normal = self._sweep(policies, "normal", tmp_path)
        assert off.to_csv() == normal.to_csv()
        assert off.format() == normal.format()

    def test_degraded_cells_round_trip_through_the_journal(self):
        from repro.eval.parallel import (
            CellResult,
            cell_from_journal_entry,
            journal_cell_entry,
        )
        from repro.cpu.system import SystemResult

        result = SystemResult(
            trace_name="w", policy_name="p", ipc=[1.0], instructions=[100],
            llc_stats={}, demand_mpki=0.0, llc_demand_hit_rate=0.5,
            llc_hit_rate=0.5,
        )
        cell = CellResult(
            "w", "p", result=result,
            violations=("policy 'p': victim way 9 outside range(ways=4)",),
        )
        entry = journal_cell_entry(cell)
        assert entry["violations"]
        restored = cell_from_journal_entry(copy.deepcopy(entry))
        assert restored.violations == cell.violations
        assert restored.status == "degraded"
        # Cells without violations keep the pre-sanitizer journal shape.
        clean = journal_cell_entry(CellResult("w", "p", result=result))
        assert "violations" not in clean

    def test_degradation_counts_into_telemetry(self):
        from repro.eval.parallel import CellResult
        from repro.cpu.system import SystemResult
        from repro.telemetry.instruments import cell_snapshot

        result = SystemResult(
            trace_name="w", policy_name="p", ipc=[1.0], instructions=[100],
            llc_stats={}, demand_mpki=0.0, llc_demand_hit_rate=0.5,
            llc_hit_rate=0.5,
        )
        snapshot = cell_snapshot(
            CellResult("w", "p", result=result, violations=("v1", "v2"))
        )
        counters = snapshot["counters"]
        assert any("cells_degraded" in key for key in counters)
        clean = cell_snapshot(CellResult("w", "p", result=result))
        assert not any("cells_degraded" in key for key in clean["counters"])


class TestConcurrentDegradation:
    """Degradation must be idempotent and atomic under interleaved evicts.

    The serve decide loop and replay workers can race a violating policy
    from several threads; the violation must be recorded exactly once and
    the degrade flip must never tear (hooks half-swapped).
    """

    def _racing_wrapper(self):
        checked = wrap_policy(OutOfRangePolicy(), mode="normal")
        checked.bind(_config())
        return checked

    def test_violation_recorded_exactly_once_across_threads(self):
        import threading

        checked = self._racing_wrapper()
        cache = Cache(_config(), checked)
        _fill_and_overflow(cache)  # arm: sets are full, next evict violates

        barrier = threading.Barrier(8)
        errors = []

        def interleaved_evicts(worker: int):
            barrier.wait()
            for n in range(50):
                try:
                    victim_set = cache.sets[0]
                    checked.victim(0, victim_set, load(worker * 1000 + n))
                except Exception as error:  # noqa: BLE001
                    errors.append(error)

        threads = [
            threading.Thread(target=interleaved_evicts, args=(worker,))
            for worker in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        assert checked.degraded
        assert len(checked.violations) == 1  # exactly once, not per-thread

    def test_degraded_hooks_are_noops_after_the_flip(self):
        checked = self._racing_wrapper()
        cache = Cache(_config(), checked)
        _fill_and_overflow(cache)
        checked.victim(0, cache.sets[0], load(9999))  # trips the violation
        assert checked.degraded
        # The flip swapped the hot-path hooks for no-ops atomically.
        assert checked.on_hit.__name__ == "_noop"
        assert checked.on_miss.__name__ == "_noop"

    def test_degraded_wrapper_survives_pickling(self):
        import pickle

        checked = self._racing_wrapper()
        cache = Cache(_config(), checked)
        _fill_and_overflow(cache)
        checked.victim(0, cache.sets[0], load(9999))
        assert checked.degraded
        clone = pickle.loads(pickle.dumps(checked))
        assert clone.degraded
        assert len(clone.violations) == 1
        # The restored wrapper still serves (LRU) without raising.
        assert isinstance(clone.victim(0, cache.sets[0], load(1)), int)
