"""Table II feature extraction — the RL agent's state vector.

The paper represents LLC state as 334 floating-point values for a 16-way
cache:

* access information: 6-bit binary offset, access preuse, one-hot access
  type (6 + 1 + 4 = 11);
* set information: set number, set accesses, set accesses since miss (3);
* per-line information for each of the 16 ways: 6-bit binary offset, dirty,
  preuse, age since insertion, age since last access, one-hot last access
  type, LD/RFO/PF/WB access counts, hits since insertion, recency
  (6+1+1+1+1+4+1+1+1+1+1+1 = 20 each, 320 total).

Categorical features are one-hot encoded, numeric features are normalized by
their running maxima (as in §III-A), offsets use their raw 6-bit binary
representation.  Every feature can be individually disabled — the
hill-climbing analysis (§III-B) searches over these switches.
"""

from __future__ import annotations

import numpy as np

from repro.traces.record import AccessType

#: Feature names in Table II order, with their element widths.
ACCESS_FEATURES = (
    ("access_offset", 6),
    ("access_preuse", 1),
    ("access_type", 4),
)
SET_FEATURES = (
    ("set_number", 1),
    ("set_accesses", 1),
    ("set_accesses_since_miss", 1),
)
LINE_FEATURES = (
    ("line_offset", 6),
    ("line_dirty", 1),
    ("line_preuse", 1),
    ("line_age_insertion", 1),
    ("line_age_last_access", 1),
    ("line_last_access_type", 4),
    ("line_ld_count", 1),
    ("line_rfo_count", 1),
    ("line_pf_count", 1),
    ("line_wb_count", 1),
    ("line_hits", 1),
    ("line_recency", 1),
)

ALL_FEATURE_NAMES = tuple(
    name for name, _ in ACCESS_FEATURES + SET_FEATURES + LINE_FEATURES
)


# Per-type count indices, bound once: an enum member lookup costs more than
# the list index it feeds, and the line loop does four per way.
_LOAD, _RFO, _PREFETCH, _WRITEBACK = AccessType


def _one_hot(access_type: AccessType) -> list:
    encoding = [0.0, 0.0, 0.0, 0.0]
    encoding[access_type] = 1.0
    return encoding


def _binary(value: int, bits: int) -> list:
    return [float((value >> bit) & 1) for bit in range(bits)]


class _RunningMax:
    """Normalizes values by the largest magnitude seen so far."""

    __slots__ = ("maxima",)

    def __init__(self) -> None:
        self.maxima = {}

    def normalize(self, key: str, value: float) -> float:
        current = self.maxima.get(key, 1.0)
        if value > current:
            self.maxima[key] = value
            current = value
        return value / current


class FeatureExtractor:
    """Builds state vectors from LLC state (Figure 2's "State Vector").

    Args:
        ways: LLC associativity.
        num_sets: LLC set count (for set-number normalization).
        enabled: Iterable of feature names to include (default: all — the
            full 334-dim vector for a 16-way cache).
    """

    def __init__(self, ways: int, num_sets: int, enabled=None) -> None:
        self.ways = ways
        self.num_sets = num_sets
        if enabled is None:
            enabled = ALL_FEATURE_NAMES
        self.enabled = frozenset(enabled)
        unknown = self.enabled - set(ALL_FEATURE_NAMES)
        if unknown:
            raise ValueError(f"unknown features: {sorted(unknown)}")
        self._norm = _RunningMax()
        self.layout = self._build_layout()
        self.size = self.layout[-1][2] if self.layout else 0

    def _build_layout(self) -> list:
        """[(feature_name, start, end)] index ranges in the state vector."""
        layout = []
        cursor = 0
        for name, width in ACCESS_FEATURES + SET_FEATURES:
            if name in self.enabled:
                layout.append((name, cursor, cursor + width))
                cursor += width
        for way in range(self.ways):
            for name, width in LINE_FEATURES:
                if name in self.enabled:
                    layout.append((f"{name}[{way}]", cursor, cursor + width))
                    cursor += width
        return layout

    @property
    def feature_order(self) -> tuple:
        """Enabled feature names in canonical Table II (layout) order.

        This — not any caller-supplied iteration order — is the order the
        state vector is laid out in, so it is what agent persistence must
        record alongside trained weights.
        """
        return tuple(name for name in ALL_FEATURE_NAMES if name in self.enabled)

    def norm_state(self) -> dict:
        """The running-max normalization state (for training checkpoints)."""
        return dict(self._norm.maxima)

    def restore_norm_state(self, maxima: dict) -> None:
        """Restore :meth:`norm_state` output (exact training resume)."""
        self._norm.maxima = dict(maxima)

    def feature_spans(self) -> dict:
        """name -> list of (start, end) spans (per-way features: one/way)."""
        spans = {}
        for label, start, end in self.layout:
            base = label.split("[", 1)[0]
            spans.setdefault(base, []).append((start, end))
        return spans

    def vector(self, access, access_preuse: int, cache_set) -> np.ndarray:
        """Extract the state vector for a replacement decision.

        Args:
            access: The missing access (a TraceRecord).
            access_preuse: Set accesses since the last access to this
                address (tracked by the RL environment).
            cache_set: The accessed :class:`repro.cache.cache_set.CacheSet`.
        """
        norm = self._norm.normalize
        values = []
        enabled = self.enabled
        if "access_offset" in enabled:
            values.extend(_binary(access.address & 63, 6))
        if "access_preuse" in enabled:
            values.append(norm("access_preuse", float(access_preuse)))
        if "access_type" in enabled:
            values.extend(_one_hot(access.access_type))
        if "set_number" in enabled:
            values.append(cache_set.index / max(1, self.num_sets - 1))
        if "set_accesses" in enabled:
            values.append(norm("set_accesses", float(cache_set.accesses)))
        if "set_accesses_since_miss" in enabled:
            values.append(
                norm("set_accesses_since_miss", float(cache_set.accesses_since_miss))
            )
        recency_scale = max(1, self.ways - 1)
        now = cache_set.accesses
        ranks = cache_set.ranks() if "line_recency" in enabled else None
        for way, line in enumerate(cache_set.lines):
            valid = line.valid
            if "line_offset" in enabled:
                values.extend(_binary(line.offset if valid else 0, 6))
            if "line_dirty" in enabled:
                values.append(1.0 if valid and line.dirty else 0.0)
            if "line_preuse" in enabled:
                values.append(norm("line_preuse", float(line.preuse)) if valid else 0.0)
            if "line_age_insertion" in enabled:
                values.append(
                    norm("line_age_insertion", float(now - line.fill_at))
                    if valid
                    else 0.0
                )
            if "line_age_last_access" in enabled:
                values.append(
                    norm("line_age_last_access", float(now - line.stamp))
                    if valid
                    else 0.0
                )
            if "line_last_access_type" in enabled:
                values.extend(_one_hot(line.last_access_type) if valid else [0.0] * 4)
            if "line_ld_count" in enabled:
                values.append(
                    norm("line_ld_count", float(line.access_counts[_LOAD]))
                    if valid
                    else 0.0
                )
            if "line_rfo_count" in enabled:
                values.append(
                    norm("line_rfo_count", float(line.access_counts[_RFO]))
                    if valid
                    else 0.0
                )
            if "line_pf_count" in enabled:
                values.append(
                    norm(
                        "line_pf_count", float(line.access_counts[_PREFETCH])
                    )
                    if valid
                    else 0.0
                )
            if "line_wb_count" in enabled:
                values.append(
                    norm(
                        "line_wb_count",
                        float(line.access_counts[_WRITEBACK]),
                    )
                    if valid
                    else 0.0
                )
            if "line_hits" in enabled:
                values.append(
                    norm("line_hits", float(line.hits_since_insertion))
                    if valid
                    else 0.0
                )
            if "line_recency" in enabled:
                values.append(ranks[way] / recency_scale if valid else 0.0)
        return np.asarray(values, dtype=np.float64)
