"""Differential proof: the column-scan object RLR against the frozen
per-candidate scan (``tests/reference_object_rlr.py``).

Both policies replay the same request stream in lockstep, each behind its
own cache, admission hook and strict contract guard.  Every request must
agree on hit or miss and on the victims it evicted, in order; at the end
the statistics, the reuse-distance estimate and every resident's
``priority`` must agree, and neither guard may have recorded a violation.
The streams re-request keys at a new size (a stale copy is dropped),
draw objects larger than the whole cache, and admit objects that need
several victims.

The CI ``objcache-smoke`` job runs this file with a larger example budget
(``REPRO_FUZZ_EXAMPLES``) and a pinned ``--hypothesis-seed``.
"""

from __future__ import annotations

import os

import pytest

hypothesis = pytest.importorskip("hypothesis")
import hypothesis.strategies as st  # noqa: E402
from hypothesis import HealthCheck, given, settings  # noqa: E402

from repro.objcache import (  # noqa: E402
    CachedObject,
    ObjectCache,
    ObjectRequest,
    generate_object_trace,
    make_admission,
)
from repro.objcache.rlr import (  # noqa: E402
    DEFAULT_SIZE_WEIGHT,
    ObjectRLRPolicy,
)
from repro.sanitize.object_guard import CheckedObjectPolicy  # noqa: E402

from tests.reference_object_rlr import RefObjectRLRPolicy  # noqa: E402

_BUDGET = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "0"))

CAPACITY = 4096

#: A window of one and two candidates, one that cuts through the cache,
#: the default, and one longer than any cache here holds.
SAMPLES = (1, 2, 17, 256, 10_000)

ADMISSIONS = {
    "always": lambda: None,
    # A narrow sketch that halves every 16 requests, so streams cross
    # the reset interval many times.
    "freq_gate": lambda: make_admission(
        "freq_gate", width=64, depth=4, threshold=2, reset_interval=16
    ),
    "size_threshold": lambda: make_admission(
        "size_threshold", max_size=CAPACITY // 2
    ),
}


def _sizes():
    # Mostly small objects, some that take a large share of the cache, and
    # some larger than all of it (always rejected).
    return st.one_of(
        st.integers(1, 256),
        st.integers(257, CAPACITY),
        st.integers(CAPACITY + 1, 2 * CAPACITY),
    )


def _bucketed_sizes():
    # Every log2 size bucket equally likely, past the clamp at 2**20.
    return st.integers(0, 22).flatmap(
        lambda bits: st.integers(1 << bits, (2 << bits) - 1)
    )


@st.composite
def request_streams(draw):
    keys = draw(st.integers(1, 40))
    # A key keeps its size unless redrawn, so most re-requests hit and
    # some replace a stale copy.
    size_of = {}
    requests = []
    for _ in range(draw(st.integers(1, 300))):
        key = draw(st.integers(0, keys - 1))
        if key not in size_of or draw(st.integers(0, 9)) == 0:
            size_of[key] = draw(_sizes())
        requests.append(ObjectRequest(key, size_of[key]))
    return requests


def _lockstep(requests, size_weight, sample, log2_hits, admission,
              capacity=CAPACITY):
    caches, policies, guards, logs = [], [], [], []
    for policy_class in (RefObjectRLRPolicy, ObjectRLRPolicy):
        policy = policy_class(size_weight=size_weight, sample=sample,
                              log2_hits=log2_hits)
        guard = CheckedObjectPolicy(policy, strict=True)
        cache = ObjectCache(capacity, guard,
                            admission=ADMISSIONS[admission]())
        log = []
        cache.add_decision_observer(
            lambda victim, incoming, now, log=log: log.append(victim.key)
        )
        caches.append(cache)
        policies.append(policy)
        guards.append(guard)
        logs.append(log)
    (ref, new), (ref_log, new_log) = caches, logs
    for position, request in enumerate(requests):
        hits = (ref.access(request), new.access(request))
        context = f"request {position} ({request.key}, {request.size})"
        assert hits[0] == hits[1], context
        assert new_log == ref_log, context
    assert new.stats.as_dict() == ref.stats.as_dict()
    assert policies[1].rd.rd == policies[0].rd.rd
    assert list(new.residents) == list(ref.residents)
    for key, obj in new.residents.items():
        assert policies[1].priority(obj, new.now) == policies[0].priority(
            ref.residents[key], ref.now
        ), key
    assert guards[0].violations == [] and guards[1].violations == []
    return ref_log


class TestAgainstFrozenScan:
    @settings(
        max_examples=_BUDGET or 60,
        deadline=None,
        print_blob=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        requests=request_streams(),
        size_weight=st.sampled_from((0, 3, 16)),
        sample=st.sampled_from(SAMPLES),
        log2_hits=st.sampled_from((1, 5)),
        admission=st.sampled_from(sorted(ADMISSIONS)),
    )
    def test_same_victims_stats_and_estimate(self, requests, size_weight,
                                             sample, log2_hits, admission):
        _lockstep(requests, size_weight, sample, log2_hits, admission)

    @settings(max_examples=_BUDGET or 200, deadline=None, print_blob=True)
    @given(
        residents=st.lists(
            st.tuples(_bucketed_sizes(), st.booleans(),
                      st.integers(0, 2), st.integers(1, 3)),
            max_size=40,
        ),
        rd_percent=st.integers(0, 100),
        size_weight=st.sampled_from((0, 3, 16)),
        sample=st.sampled_from(SAMPLES),
    )
    def test_same_victim_for_any_window(self, residents, rd_percent,
                                        size_weight, sample):
        """One decision over drawn residents, every size bucket and a
        drawn RD, so the reuse-window boundary falls anywhere in the
        window, including before the first and after the last candidate."""
        objects, now = {}, 0
        policies = [policy_class(size_weight=size_weight, sample=sample)
                    for policy_class in (RefObjectRLRPolicy, ObjectRLRPolicy)]
        for key, (size, seen_before, hits, gap) in enumerate(residents):
            now += gap
            obj = CachedObject(key, size, now, now, seen_before=seen_before)
            objects[key] = obj
            for policy in policies:
                policy.on_admit(obj, now)
            if hits:  # re-requested later, which moves it to the MRU end
                now += gap
                obj.hits, obj.last_access = hits, now
                for policy in policies:
                    policy.on_hit(obj, now)
        now += 1
        for policy in policies:  # the reuse window spans rd_percent of now
            policy.rd.rd = now * rd_percent // 100
        ref, new = (policy.victim(objects, None, now) for policy in policies)
        assert new == ref

    def test_a_tie_across_the_window_boundary_evicts_the_young_one(self):
        # Under size_weight 16, a 1-byte object outside the reuse window
        # and a 256-byte one inside it both score 0 (8 buckets x 16 = 128).
        old = CachedObject(0, 1, 1, 1)
        young = CachedObject(1, 256, 5, 5)
        residents = {0: old, 1: young}
        victims = []
        for policy_class in (RefObjectRLRPolicy, ObjectRLRPolicy):
            policy = policy_class(size_weight=16)
            for obj in (old, young):
                policy.on_admit(obj, obj.last_access)
            policy.rd.rd = 3
            assert policy.priority(old, 6) == policy.priority(young, 6) == 0
            victims.append(policy.victim(residents, None, 6))
        assert victims == [1, 1]

    @pytest.mark.parametrize("size_weight", (0, DEFAULT_SIZE_WEIGHT),
                             ids=("rlr", "rlr_size"))
    @pytest.mark.parametrize("shape", ("zipf", "flash_crowd"))
    def test_same_victims_on_the_golden_shapes(self, shape, size_weight):
        trace = generate_object_trace(
            name=shape, kind=shape, objects=400, length=1500, seed=7,
            alpha=1.0,
            sizes={"dist": "lognormal", "min": 64, "max": 1024},
        )
        victims = _lockstep(trace.requests, size_weight, 64, 5, "always",
                            capacity=30_000)
        assert len(victims) > 100

    @pytest.mark.parametrize("params", (
        {"log2_hits": 0}, {"sample": 0},
    ), ids=("log2_hits=0", "sample=0"))
    def test_invalid_parameters_are_refused_alike(self, params):
        errors = []
        for policy_class in (RefObjectRLRPolicy, ObjectRLRPolicy):
            with pytest.raises(ValueError) as caught:
                policy_class(**params)
            errors.append(str(caught.value))
        assert errors[0] == errors[1]

    def test_an_empty_window_names_no_victim(self):
        for policy_class in (RefObjectRLRPolicy, ObjectRLRPolicy):
            assert policy_class().victim({}, ObjectRequest(0, 1), 0) is None
