"""Per-eviction decision tracing: sampled event logs + Belady regret.

The paper's method is built on *inspecting individual eviction decisions*:
grading each victim choice against Belady's OPT (the §III-A reward) and
profiling victim age / hits-since-insertion / recency (Figures 5-7).  This
module records that decision stream once, during an ordinary replay, so
every downstream consumer — ``repro inspect``, the Figure 5-7 collectors,
the agreement profiler — reads the same events instead of re-instrumenting
its own replay.

Design rules (mirroring :func:`repro.telemetry.profiling.profiled`):

* **Identity when disabled.**  A replay without a :class:`DecisionTrace`
  executes the exact hot-loop code it always did; the only residue is the
  cache's ``_observed`` test, which stays False, so the eviction path
  never enters its observer branch.
* **Deterministic.**  Events are a pure function of the (deterministic)
  replay; sampling is counter-based (every ``sample_rate``-th eviction),
  never randomized; every recorded quantity is an integer.  Logs written
  from cells merged in ``(workload, policy)`` order are byte-identical for
  ``--jobs 1`` and ``--jobs N``.
* **Bounded.**  Events land in a ring (:attr:`DecisionTrace.dropped`
  counts overflow); the aggregates (grade counts, per-set eviction counts,
  epoch regret buckets, top-N worst decisions) always cover *every*
  eviction regardless of sampling or ring capacity.

Grading follows :func:`repro.rl.reward.belady_reward`: +1 when the victim
has the farthest next use in its set, -1 when the victim would be reused
sooner than the inserted line, 0 otherwise.  Regret is ``(1 - grade) / 2``
(0 for optimal, 1/2 for neutral, 1 for harmful); to stay in integers the
trace accumulates ``regret_x2 = neutral + 2 * harmful``.

Log formats (both written to the run directory by ``--decisions``):

* ``decisions.jsonl`` — the full payload: a file header line, then per
  cell one ``{"type": "cell", ...}`` line (summary, epoch buckets, per-set
  eviction counts, worst decisions) followed by its ``{"type": "event"}``
  and ``{"type": "violation"}`` lines.
* ``decisions.bin`` — compact binary: magic ``RDLG\\x01``, then per cell a
  fixed header + name strings + fixed 55-byte event records
  (:data:`RECORD_STRUCT`).  Carries the raw event stream only; the
  derived aggregates live in the JSONL.

This module deliberately imports neither :mod:`repro.rl` nor
:mod:`repro.cache` (both sit *above* telemetry in the import graph); the
oracle is duck-typed (``advance`` / ``next_use`` / ``next_use_after``, see
:class:`repro.rl.reward.FutureOracle`).
"""

from __future__ import annotations

import json
import struct
from collections import deque
from pathlib import Path
from typing import NamedTuple, Optional

from repro.runs.atomic import atomic_write_bytes, atomic_write_text
from repro.traces.record import AccessType

#: Decision-log format version (bumped on any layout change).
FORMAT_VERSION = 1

#: Binary log magic: "Repro Decision LoG" + version byte.
MAGIC = b"RDLG" + bytes([FORMAT_VERSION])

#: Grade values (match repro.rl.reward's +1/0/-1 as integers).
OPTIMAL, NEUTRAL, HARMFUL = 1, 0, -1
#: Grade byte for events recorded without an oracle.
UNGRADED = 127

#: Event kinds.
KIND_EVICT = 0
KIND_VIOLATION = 1

#: ``way`` / victim-feature sentinel for violation events (no victim).
NO_WAY = 0xFFFF

#: Number of equal-width stream epochs regret is bucketed into.
DECISION_EPOCHS = 8

#: Default event-ring capacity (aggregates are unaffected by overflow).
DEFAULT_RING_CAPACITY = 65536

#: Default size of the worst-decisions table.
DEFAULT_WORST_N = 16

#: Cap on retained violation events (normal-mode sanitizer degrades after
#: the first violation, so this is a defensive bound, not a budget).
MAX_VIOLATIONS = 256

#: Fixed-size binary event record; see :class:`DecisionEvent` field order.
RECORD_STRUCT = struct.Struct("<QIHBbQIIIBBQQB")

#: Per-cell binary header: workload-name length, policy-name length,
#: sample_rate, stream total, graded flag, reserved, record count.
CELL_STRUCT = struct.Struct("<HHIQBBI")

_NEVER = float("inf")


class DecisionEvent(NamedTuple):
    """One logged eviction (or contract-violation) decision.

    All fields are integers so JSON round-trips are exact and the binary
    encoding is lossless.  ``grade`` is :data:`UNGRADED` when no oracle
    was attached; access types are :class:`repro.traces.record.AccessType`
    values.
    """

    index: int          #: position in the LLC access stream
    set_index: int      #: cache set of the eviction
    way: int            #: victim way (NO_WAY for violation events)
    kind: int           #: KIND_EVICT or KIND_VIOLATION
    grade: int          #: +1 / 0 / -1 / UNGRADED
    victim_line: int    #: evicted line address
    victim_age_insert: int   #: set accesses since the victim was inserted
    victim_age_last: int     #: set accesses since the victim was last hit
    victim_hits: int         #: hits since insertion
    victim_last_type: int    #: AccessType of the victim's last access
    victim_recency: int      #: victim's LRU-stack position (0 = LRU)
    pc: int             #: program counter of the inserted (missing) access
    address: int        #: byte address of the inserted access
    access_type: int    #: AccessType of the inserted access


def _clamp(value: int, limit: int) -> int:
    value = int(value)
    return 0 if value < 0 else (limit if value > limit else value)


def event_to_json(event: DecisionEvent) -> dict:
    """The JSONL encoding of one event (access types as short names)."""
    payload = {
        "type": "violation" if event.kind == KIND_VIOLATION else "event",
        "index": event.index,
        "set": event.set_index,
        "access_type": AccessType(event.access_type).short_name,
        "pc": event.pc,
        "address": event.address,
    }
    if event.kind == KIND_EVICT:
        payload.update(
            way=event.way,
            victim_line=event.victim_line,
            victim_age_insert=event.victim_age_insert,
            victim_age_last=event.victim_age_last,
            victim_hits=event.victim_hits,
            victim_last_type=AccessType(event.victim_last_type).short_name,
            victim_recency=event.victim_recency,
        )
        if event.grade != UNGRADED:
            payload["grade"] = event.grade
    return payload


_SHORT_NAMES = {access_type.short_name: access_type for access_type in AccessType}


def event_from_json(payload: dict) -> DecisionEvent:
    """Inverse of :func:`event_to_json`."""
    violation = payload.get("type") == "violation"
    return DecisionEvent(
        index=int(payload["index"]),
        set_index=int(payload["set"]),
        way=NO_WAY if violation else int(payload["way"]),
        kind=KIND_VIOLATION if violation else KIND_EVICT,
        grade=int(payload.get("grade", UNGRADED)),
        victim_line=int(payload.get("victim_line", 0)),
        victim_age_insert=int(payload.get("victim_age_insert", 0)),
        victim_age_last=int(payload.get("victim_age_last", 0)),
        victim_hits=int(payload.get("victim_hits", 0)),
        victim_last_type=int(
            _SHORT_NAMES[payload["victim_last_type"]]
        ) if "victim_last_type" in payload else int(AccessType.LOAD),
        victim_recency=int(payload.get("victim_recency", 0)),
        pc=int(payload["pc"]),
        address=int(payload["address"]),
        access_type=int(_SHORT_NAMES[payload["access_type"]]),
    )


# -- the recorder --------------------------------------------------------------


class DecisionTrace:
    """Sampled, ring-buffered per-eviction recorder for one replay cell.

    Attach to a cache via :meth:`repro.cache.cache.Cache.add_decision_observer`
    (``on_decision``) and ``add_access_observer`` (``on_access``) — or let
    :func:`repro.eval.runner.replay` do both via its ``decisions=``
    argument, which also routes sanitizer contract violations here while
    the replay runs.

    Args:
        workload: Label for the log (trace name).
        policy: Label for the log (policy name; filled in by ``replay``
            when left empty).
        sample_rate: Record every N-th eviction into the event ring
            (aggregates always cover all evictions).  Counter-based, so
            the same replay always samples the same events.
        capacity: Event-ring size (``None`` = unbounded; analysis paths
            that need every event pass ``None``).
        oracle: Optional Belady oracle (duck-typed
            :class:`repro.rl.reward.FutureOracle`) enabling grading.
        total: LLC stream length (set by :meth:`begin`); needed for epoch
            bucketing and for bounding never-reused severities.
        epochs: Number of equal-width regret epochs.
        worst_n: Size of the worst-decisions table.
    """

    def __init__(
        self,
        workload: str = "",
        policy: str = "",
        *,
        sample_rate: int = 1,
        capacity: Optional[int] = DEFAULT_RING_CAPACITY,
        oracle=None,
        total: int = 0,
        epochs: int = DECISION_EPOCHS,
        worst_n: int = DEFAULT_WORST_N,
    ) -> None:
        if sample_rate < 1:
            raise ValueError(f"sample_rate must be >= 1, got {sample_rate}")
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.workload = workload
        self.policy = policy
        self.sample_rate = sample_rate
        self.capacity = capacity
        self.oracle = oracle
        self.total = total
        self.epochs = max(1, epochs)
        self.worst_n = max(0, worst_n)

        self.index = 0          #: accesses fully processed so far
        self.evictions = 0      #: all evictions seen (sampled or not)
        self.sampled = 0        #: events pushed into the ring
        self.dropped = 0        #: ring overflow (oldest events discarded)
        self.optimal = 0
        self.neutral = 0
        self.harmful = 0
        self.violation_overflow = 0
        self._ring = deque(maxlen=capacity)
        self._violations = []   #: (DecisionEvent, detail) pairs
        self._worst = []        #: (severity, index, DecisionEvent), harmful only
        self.set_evictions = {}  #: set index -> eviction count (all evictions)
        self.epoch_decisions = [0] * self.epochs
        self.epoch_neutral = [0] * self.epochs
        self.epoch_harmful = [0] * self.epochs

    # -- lifecycle ---------------------------------------------------------

    def begin(self, total: int, policy_name: str = "") -> None:
        """Called by ``replay`` before the loop: stream length + label."""
        self.total = total
        if policy_name and not self.policy:
            self.policy = policy_name

    # -- observers (hot path while tracing) --------------------------------

    def on_access(self, access, hit) -> None:
        """Access observer: keeps the stream index (and oracle) aligned."""
        if self.oracle is not None:
            self.oracle.advance(access.line_address)
        self.index += 1

    def on_decision(self, cache_set, way: int, line, access) -> None:
        """Decision observer: fires once per eviction, before the fill."""
        self.evictions += 1
        set_index = cache_set.index
        self.set_evictions[set_index] = self.set_evictions.get(set_index, 0) + 1

        grade, severity = UNGRADED, 0
        if self.oracle is not None:
            grade, severity = self._grade(cache_set, way, access)
            if grade == OPTIMAL:
                self.optimal += 1
            elif grade == HARMFUL:
                self.harmful += 1
            else:
                self.neutral += 1
            epoch = self._epoch(self.index)
            self.epoch_decisions[epoch] += 1
            if grade == HARMFUL:
                self.epoch_harmful[epoch] += 1
            elif grade == NEUTRAL:
                self.epoch_neutral[epoch] += 1

        sampled = (self.evictions - 1) % self.sample_rate == 0
        if not sampled and grade != HARMFUL:
            return  # nothing left to record for this eviction

        now = cache_set.accesses
        event = DecisionEvent(
            index=self.index,
            set_index=set_index,
            way=way,
            kind=KIND_EVICT,
            grade=grade,
            victim_line=line.line_address,
            victim_age_insert=_clamp(now - line.fill_at, 0xFFFFFFFF),
            victim_age_last=_clamp(now - line.stamp, 0xFFFFFFFF),
            victim_hits=_clamp(line.hits_since_insertion, 0xFFFFFFFF),
            victim_last_type=int(line.last_access_type),
            victim_recency=_clamp(cache_set.ranks()[way], 0xFF),
            pc=access.pc,
            address=access.address,
            access_type=int(access.access_type),
        )
        if grade == HARMFUL and self.worst_n:
            self._note_worst(severity, event)
        if sampled:
            if self.capacity is not None and len(self._ring) == self.capacity:
                self.dropped += 1
            self._ring.append(event)
            self.sampled += 1

    def record_violation(self, policy_name: str, detail: str, set_index: int) -> None:
        """Sanitizer hook: a contract violation becomes a decision event."""
        if len(self._violations) >= MAX_VIOLATIONS:
            self.violation_overflow += 1
            return
        event = DecisionEvent(
            index=self.index,
            set_index=max(set_index, 0),
            way=NO_WAY,
            kind=KIND_VIOLATION,
            grade=UNGRADED,
            victim_line=0,
            victim_age_insert=0,
            victim_age_last=0,
            victim_hits=0,
            victim_last_type=int(AccessType.LOAD),
            victim_recency=0,
            pc=0,
            address=0,
            access_type=int(AccessType.LOAD),
        )
        self._violations.append((event, f"{policy_name}: {detail}"))

    # -- grading -----------------------------------------------------------

    def _epoch(self, index: int) -> int:
        if self.total <= 0:
            return 0
        return min(self.epochs - 1, index * self.epochs // self.total)

    def _grade(self, cache_set, way: int, access):
        """Belady grade of evicting ``way``; severity for harmful grades.

        The trace's oracle has consumed positions ``0..index-1`` (it
        advances at end-of-access), so resident lines' ``next_use`` values
        are strictly future, while the inserted line's next use must skip
        its own in-flight occurrence at ``index`` —
        :meth:`~repro.rl.reward.FutureOracle.next_use_after` does exactly
        that.  Grades are bit-identical to
        :func:`repro.rl.reward.belady_reward` driven by an oracle advanced
        *past* the current access (the convention
        :class:`repro.eval.agreement.OracleProbePolicy` uses).
        """
        oracle = self.oracle
        next_uses = [
            oracle.next_use(line.line_address) if line.valid else _NEVER
            for line in cache_set.lines
        ]
        chosen = next_uses[way]
        if chosen == max(next_uses):
            return OPTIMAL, 0
        inserted = oracle.next_use_after(access.line_address, self.index)
        if chosen < inserted:
            # Severity: how much sooner the victim returns than the line
            # displacing it (never-reused inserts count as end-of-stream).
            bound = inserted if inserted != _NEVER else max(self.total, chosen + 1)
            return HARMFUL, int(bound - chosen)
        return NEUTRAL, 0

    def _note_worst(self, severity: int, event: DecisionEvent) -> None:
        self._worst.append((severity, event.index, event))
        # Amortized deterministic pruning: keep the table small without
        # resorting the list on every harmful decision.
        if len(self._worst) > 4 * self.worst_n:
            self._worst.sort(key=lambda item: (-item[0], item[1]))
            del self._worst[self.worst_n:]

    # -- results -----------------------------------------------------------

    @property
    def graded(self) -> int:
        """Number of graded decisions."""
        return self.optimal + self.neutral + self.harmful

    @property
    def regret_x2(self) -> int:
        """Twice the summed regret (regret = (1 - grade) / 2 per decision)."""
        return self.neutral + 2 * self.harmful

    def events(self) -> list:
        """The sampled events currently in the ring (oldest first)."""
        return list(self._ring)

    def violations(self) -> list:
        """Recorded contract violations as ``(event, detail)`` pairs."""
        return list(self._violations)

    def worst_decisions(self) -> list:
        """Top-N harmful decisions as ``(severity, event)``, worst first."""
        ranked = sorted(self._worst, key=lambda item: (-item[0], item[1]))
        return [(severity, event) for severity, _, event in ranked[: self.worst_n]]

    def summary(self) -> dict:
        """Aggregate integers (rates are derived by consumers)."""
        return {
            "evictions": self.evictions,
            "sampled": self.sampled,
            "dropped": self.dropped,
            "graded": self.graded,
            "optimal": self.optimal,
            "neutral": self.neutral,
            "harmful": self.harmful,
            "regret_x2": self.regret_x2,
            "violations": len(self._violations) + self.violation_overflow,
        }

    def cell_payload(self) -> dict:
        """The JSON-safe record of this cell for the decision log."""
        return {
            "workload": self.workload,
            "policy": self.policy,
            "sample_rate": self.sample_rate,
            "total": self.total,
            "graded_mode": self.oracle is not None,
            "summary": self.summary(),
            "epochs": {
                "decisions": list(self.epoch_decisions),
                "neutral": list(self.epoch_neutral),
                "harmful": list(self.epoch_harmful),
            },
            "set_evictions": {
                str(set_index): self.set_evictions[set_index]
                for set_index in sorted(self.set_evictions)
            },
            "worst": [
                {"severity": severity, **event_to_json(event)}
                for severity, event in self.worst_decisions()
            ],
            "events": [event_to_json(event) for event in self.events()],
            "violations": [
                {**event_to_json(event), "detail": detail}
                for event, detail in self._violations
            ],
        }


# -- the active-trace sink (sanitizer -> decision log) -------------------------

_active_trace: Optional[DecisionTrace] = None


def activate(trace: DecisionTrace) -> None:
    """Route sanitizer violations to ``trace`` (process-local, one deep)."""
    global _active_trace
    _active_trace = trace


def deactivate(trace: DecisionTrace = None) -> None:
    """Stop routing violations (no-op if ``trace`` is no longer active)."""
    global _active_trace
    if trace is None or _active_trace is trace:
        _active_trace = None


def active_trace() -> Optional[DecisionTrace]:
    """The trace currently receiving sanitizer violations, if any."""
    return _active_trace


# -- log codec -----------------------------------------------------------------


def _cell_events(cell: dict) -> list:
    """Event + violation records of one payload cell, in stream order."""
    events = [event_from_json(entry) for entry in cell.get("events", ())]
    events.extend(
        event_from_json(entry) for entry in cell.get("violations", ())
    )
    events.sort(key=lambda event: (event.index, event.kind))
    return events


def write_decisions_jsonl(path, cells) -> Path:
    """Atomically write the full JSONL decision log for ``cells``.

    ``cells`` are :meth:`DecisionTrace.cell_payload` dicts, already in
    deterministic ``(workload, policy)`` order.
    """
    lines = [
        json.dumps(
            {"format": "repro-decisions", "version": FORMAT_VERSION,
             "cells": len(cells)},
            sort_keys=True,
        )
    ]
    for cell in cells:
        header = {key: value for key, value in cell.items()
                  if key not in ("events", "violations")}
        header["type"] = "cell"
        header["events"] = len(cell.get("events", ()))
        header["violations"] = len(cell.get("violations", ()))
        lines.append(json.dumps(header, sort_keys=True))
        for entry in cell.get("events", ()):
            lines.append(json.dumps(entry, sort_keys=True))
        for entry in cell.get("violations", ()):
            lines.append(json.dumps(entry, sort_keys=True))
    path = Path(path)
    atomic_write_text(path, "\n".join(lines) + "\n")
    return path


def write_decisions_binary(path, cells) -> Path:
    """Atomically write the compact binary event log for ``cells``."""
    chunks = [MAGIC]
    for cell in cells:
        workload = str(cell.get("workload", "")).encode("utf-8")
        policy = str(cell.get("policy", "")).encode("utf-8")
        events = _cell_events(cell)
        chunks.append(CELL_STRUCT.pack(
            len(workload),
            len(policy),
            int(cell.get("sample_rate", 1)),
            int(cell.get("total", 0)),
            1 if cell.get("graded_mode") else 0,
            0,
            len(events),
        ))
        chunks.append(workload)
        chunks.append(policy)
        for event in events:
            chunks.append(RECORD_STRUCT.pack(*event))
    path = Path(path)
    atomic_write_bytes(path, b"".join(chunks))
    return path


def _count_salvaged(amount: int) -> None:
    """Bump the ``telemetry.salvaged`` counter (trace-quarantine idiom)."""
    from repro.telemetry import get_registry

    get_registry().counter("telemetry.salvaged").inc(amount)


def _read_jsonl(text: str, path=None, salvage: bool = False) -> list:
    from repro.store.errors import ArtifactCorruptionError

    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty decision log")
    header = json.loads(lines[0])
    if header.get("format") != "repro-decisions":
        raise ValueError("not a repro decision log (bad header line)")
    if header.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"decision-log version {header.get('version')!r} unsupported "
            f"(expected {FORMAT_VERSION})"
        )
    cells = []
    current = None
    declared = None  #: event+violation count the current cell header promised
    for number, line in enumerate(lines[1:], start=2):
        try:
            entry = json.loads(line)
            if not isinstance(entry, dict):
                raise ValueError("line is not a JSON object")
        except ValueError as error:
            if salvage:
                # Salvage: keep the complete leading cells.  A cell whose
                # declared event counts are unmet was interrupted and is
                # dropped; a cell already complete stays (the torn line
                # was the start of the *next* record).
                if current is not None:
                    received = (len(current["events"])
                                + len(current["violations"]))
                    if declared is None or received < declared:
                        cells.pop()
                dropped = len(lines) - number + 1
                _count_salvaged(dropped)
                return cells
            raise ArtifactCorruptionError(
                f"decision log is damaged: line {number} does not parse "
                f"({error})",
                reason="truncated" if number == len(lines) else "bad_payload",
                path=path,
                frame=number,
            ) from error
        kind = entry.get("type")
        if kind == "cell":
            declared = (
                entry["events"] + entry["violations"]
                if isinstance(entry.get("events"), int)
                and isinstance(entry.get("violations"), int)
                else None
            )
            current = dict(entry, events=[], violations=[])
            del current["type"]
            cells.append(current)
        elif kind in ("event", "violation"):
            if current is None:
                raise ValueError("decision event before any cell header")
            current["events" if kind == "event" else "violations"].append(entry)
        else:
            raise ValueError(f"unknown decision-log line type {kind!r}")
    return cells


def _read_binary(data: bytes, path=None, salvage: bool = False) -> list:
    from repro.store.errors import ArtifactCorruptionError

    if not data.startswith(MAGIC[:4]):
        raise ValueError("not a repro binary decision log (bad magic)")
    if data[: len(MAGIC)] != MAGIC:
        raise ValueError(
            f"binary decision-log version {data[4]} unsupported "
            f"(expected {FORMAT_VERSION})"
        )
    offset = len(MAGIC)
    cells = []

    def damaged(kind: str, at: int):
        if salvage:
            # Salvage: the complete leading cells are already in ``cells``.
            _count_salvaged(1)
            return None
        return ArtifactCorruptionError(
            f"binary decision log is damaged: truncated cell {kind} at "
            f"byte offset {at} (complete cells before it: {len(cells)})",
            reason="truncated",
            path=path,
            offset=at,
            frame=len(cells),
        )

    while offset < len(data):
        if offset + CELL_STRUCT.size > len(data):
            error = damaged("header", offset)
            if error is None:
                return cells
            raise error
        wlen, plen, sample_rate, total, graded, _reserved, count = (
            CELL_STRUCT.unpack_from(data, offset)
        )
        offset += CELL_STRUCT.size
        end_names = offset + wlen + plen
        body_end = end_names + count * RECORD_STRUCT.size
        if body_end > len(data):
            error = damaged("body", offset)
            if error is None:
                return cells
            raise error
        workload = data[offset: offset + wlen].decode("utf-8")
        policy = data[offset + wlen: end_names].decode("utf-8")
        events, violations = [], []
        for position in range(count):
            record = RECORD_STRUCT.unpack_from(
                data, end_names + position * RECORD_STRUCT.size
            )
            event = DecisionEvent(*record)
            target = violations if event.kind == KIND_VIOLATION else events
            target.append(event_to_json(event))
        offset = body_end
        cells.append({
            "workload": workload,
            "policy": policy,
            "sample_rate": sample_rate,
            "total": total,
            "graded_mode": bool(graded),
            "events": events,
            "violations": violations,
        })
    return cells


def read_decision_log(path, salvage: bool = False) -> list:
    """Load a decision log (JSONL or binary, sniffed by content).

    Returns a list of cell dicts shaped like
    :meth:`DecisionTrace.cell_payload`.  Binary logs carry the raw event
    stream only: the derived aggregates (``summary``/``epochs``/``worst``/
    ``set_evictions``) are present only for JSONL cells, and binary
    violation records have no detail strings.

    A damaged log (torn tail, truncation) raises a *located*
    :class:`~repro.store.errors.ArtifactCorruptionError` naming the first
    bad line/byte offset — unless ``salvage=True``, which instead returns
    every complete leading cell, drops the damaged tail, and counts the
    loss in the ``telemetry.salvaged`` counter (the trace-quarantine
    idiom), so readers degrade gracefully after a crash.
    """
    path = Path(path)
    if not path.is_file():
        raise ValueError(f"no decision log at {path}")
    data = path.read_bytes()
    if data.startswith(MAGIC[:4]):
        return _read_binary(data, path=path, salvage=salvage)
    return _read_jsonl(
        data.decode("utf-8", errors="replace"), path=path, salvage=salvage
    )


_EVENT_INT_KEYS = ("index", "set", "pc", "address")
_EVICT_INT_KEYS = (
    "way", "victim_line", "victim_age_insert", "victim_age_last",
    "victim_hits", "victim_recency",
)


def validate_decision_log(path) -> list:
    """Schema check; returns a list of problems (empty == valid)."""
    from repro.store.errors import ArtifactCorruptionError

    problems = []
    try:
        cells = read_decision_log(path)
    except (ValueError, KeyError, json.JSONDecodeError, UnicodeDecodeError,
            struct.error, ArtifactCorruptionError) as error:
        return [str(error)]
    for position, cell in enumerate(cells):
        label = f"cell {position} ({cell.get('workload')}/{cell.get('policy')})"
        if not cell.get("workload"):
            problems.append(f"{label}: missing workload name")
        if int(cell.get("sample_rate", 0)) < 1:
            problems.append(f"{label}: sample_rate must be >= 1")
        summary = cell.get("summary")
        if summary is not None and summary.get("sampled") != len(
            cell.get("events", ())
        ):
            problems.append(
                f"{label}: summary.sampled != number of event lines"
            )
        for entry in list(cell.get("events", ())) + list(
            cell.get("violations", ())
        ):
            try:
                event = event_from_json(entry)
            except (KeyError, ValueError, TypeError) as error:
                problems.append(f"{label}: bad event {entry!r}: {error}")
                continue
            if event.grade not in (OPTIMAL, NEUTRAL, HARMFUL, UNGRADED):
                problems.append(
                    f"{label}: event at index {event.index} has invalid "
                    f"grade {event.grade}"
                )
            if cell.get("total") and event.index > int(cell["total"]):
                problems.append(
                    f"{label}: event index {event.index} beyond stream "
                    f"total {cell['total']}"
                )
    return problems
