"""Victim-profile analysis for any replacement policy.

Generalizes the paper's Figures 5-7 instrumentation (victim age per access
type, hits-since-insertion histogram, recency histogram) from the RL agent
to arbitrary policies, so a derived policy's eviction behaviour can be
compared directly against the agent it was distilled from — the validation
step behind §IV's design.

The statistics are computed from the shared per-eviction decision stream
(:mod:`repro.eval.decision_stream` / :mod:`repro.telemetry.decisions`), so
a live replay and a ``decisions.jsonl`` log replayed through ``repro
inspect`` produce bit-identical profiles.  :class:`VictimCollector`, the
original eviction-observer implementation, is kept as an independent
cross-check (the equivalence test drives both over the same replay).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.eval.decision_stream import trace_decisions
from repro.traces.record import AccessType

#: Hits-since-insertion buckets of Figure 6, in render order.
HITS_BUCKETS = ("0", "1", ">1")


def _hits_bucket(hits: int) -> str:
    return "0" if hits == 0 else ("1" if hits == 1 else ">1")


@dataclass
class VictimStatistics:
    """Aggregated victim features for one (workload, policy) run.

    Key-type contract (normalized by :meth:`from_dict` so profiles survive
    a JSON round-trip, where every key becomes a string):

    * ``avg_age_by_type`` — keyed by access-type *short name* (``"LD"``);
    * ``hits_histogram`` — keyed by the *string* buckets ``"0"/"1"/">1"``;
    * ``recency_histogram`` — keyed by *integer* recency positions.
    """

    victims: int = 0
    avg_age_by_type: dict = field(default_factory=dict)
    hits_histogram: dict = field(default_factory=dict)
    recency_histogram: dict = field(default_factory=dict)

    @property
    def zero_hit_fraction(self) -> float:
        return self.hits_histogram.get("0", 0.0)

    def upper_half_recency_fraction(self, ways: int) -> float:
        """Share of victims from the upper (more recent) recency half.

        Keys are compared as integers even if the histogram arrived with
        string keys (a raw ``json.load`` of a profile), so the fraction is
        stable across serialization boundaries.
        """
        return sum(
            value for recency, value in self.recency_histogram.items()
            if int(recency) >= ways // 2
        )

    def as_dict(self) -> dict:
        """JSON-safe encoding (recency keys become strings)."""
        return {
            "victims": self.victims,
            "avg_age_by_type": dict(self.avg_age_by_type),
            "hits_histogram": dict(self.hits_histogram),
            "recency_histogram": {
                str(recency): value
                for recency, value in self.recency_histogram.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "VictimStatistics":
        """Inverse of :meth:`as_dict`, normalizing JSON-mangled key types."""
        return cls(
            victims=int(payload.get("victims", 0)),
            avg_age_by_type={
                str(key): float(value)
                for key, value in payload.get("avg_age_by_type", {}).items()
            },
            hits_histogram={
                str(key): float(value)
                for key, value in payload.get("hits_histogram", {}).items()
            },
            recency_histogram={
                int(key): float(value)
                for key, value in payload.get("recency_histogram", {}).items()
            },
        )

    @classmethod
    def from_events(cls, events) -> "VictimStatistics":
        """Figures 5-7 statistics from decision-stream events.

        ``events`` are :class:`~repro.telemetry.decisions.DecisionEvent`
        records (violation events are skipped).  The arithmetic mirrors
        :meth:`VictimCollector.statistics` operation for operation —
        integer sums divided in the same order — so a profile built from a
        decision log is bit-for-bit equal to one collected live.
        """
        from repro.telemetry.decisions import KIND_EVICT

        ages_by_type = defaultdict(list)
        hits = {key: 0 for key in HITS_BUCKETS}
        recency = defaultdict(int)
        for event in events:
            if event.kind != KIND_EVICT:
                continue
            ages_by_type[AccessType(event.victim_last_type)].append(
                event.victim_age_last
            )
            hits[_hits_bucket(event.victim_hits)] += 1
            recency[event.victim_recency] += 1
        victims = sum(hits.values())
        scale = victims or 1
        return cls(
            victims=victims,
            avg_age_by_type={
                access_type.short_name: sum(ages) / len(ages)
                for access_type, ages in ages_by_type.items()
                if ages
            },
            hits_histogram={k: v / scale for k, v in hits.items()},
            recency_histogram={
                position: count / scale
                for position, count in sorted(recency.items())
            },
        )


class VictimCollector:
    """Decision observer accumulating the Figures 5-7 statistics.

    The pre-decision-stream implementation, retained as an independent
    cross-check of :meth:`VictimStatistics.from_events` (and for callers
    that instrument a cache directly).
    """

    def __init__(self) -> None:
        self._ages_by_type = defaultdict(list)
        self._hits = {key: 0 for key in HITS_BUCKETS}
        self._recency = defaultdict(int)

    def __call__(self, cache_set, way, line, access) -> None:
        self._ages_by_type[line.last_access_type].append(
            cache_set.accesses - line.stamp
        )
        self._hits[_hits_bucket(line.hits_since_insertion)] += 1
        self._recency[cache_set.ranks()[way]] += 1

    def statistics(self) -> VictimStatistics:
        victims = sum(self._hits.values())
        scale = victims or 1
        return VictimStatistics(
            victims=victims,
            avg_age_by_type={
                access_type.short_name: sum(ages) / len(ages)
                for access_type, ages in self._ages_by_type.items()
                if ages
            },
            hits_histogram={k: v / scale for k, v in self._hits.items()},
            recency_histogram={
                recency: count / scale
                for recency, count in sorted(self._recency.items())
            },
        )


def policy_victim_statistics(
    eval_config, workload_name: str, policy
) -> VictimStatistics:
    """Replay one workload under ``policy``, collecting victim statistics."""
    decisions = trace_decisions(eval_config, workload_name, policy)
    return VictimStatistics.from_events(decisions.events())


def compare_victim_profiles(eval_config, workload_name: str, policies) -> dict:
    """Victim statistics for several policies on one workload.

    Accepts policy names or instances; returns {label: VictimStatistics}.
    """
    profiles = {}
    for policy in policies:
        label = policy if isinstance(policy, str) else policy.name
        profiles[label] = policy_victim_statistics(
            eval_config, workload_name, policy
        )
    return profiles
