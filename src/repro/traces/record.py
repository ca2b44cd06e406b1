"""Memory access records — the unit of work fed to the simulators.

The paper's trace files are ChampSim LLC access logs of the form
``<PC, Access Type, Address>``.  This module defines the equivalent in-memory
representation used throughout the repository, for *CPU-level* traces (which
the cache hierarchy filters down to LLC accesses) as well as for pre-filtered
LLC traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

#: Cache line size used everywhere in this repository (bytes).
LINE_SIZE = 64
#: Number of low-order address bits covered by a cache line.
OFFSET_BITS = 6


class AccessType(IntEnum):
    """LLC access types, matching ChampSim / the paper's trace format."""

    LOAD = 0  #: Demand load (LD)
    RFO = 1  #: Request-for-ownership, i.e. a store miss (RFO)
    PREFETCH = 2  #: Hardware prefetch (PR)
    WRITEBACK = 3  #: Dirty eviction from an upper level (WB)

    @property
    def is_demand(self) -> bool:
        """True for access types that stall the core (LOAD and RFO)."""
        return self in _DEMAND_TYPES

    @property
    def short_name(self) -> str:
        """Two/three-letter code used in traces and reports (LD/RFO/PR/WB)."""
        return _SHORT_NAMES[self]


_SHORT_NAMES = {
    AccessType.LOAD: "LD",
    AccessType.RFO: "RFO",
    AccessType.PREFETCH: "PR",
    AccessType.WRITEBACK: "WB",
}

_FROM_SHORT = {name: atype for atype, name in _SHORT_NAMES.items()}

# Module constants: looking members up on the enum class costs more than
# the membership test itself, and these tests run on every cache access.
_DEMAND_TYPES = (AccessType.LOAD, AccessType.RFO)
_WRITE_TYPES = (AccessType.RFO, AccessType.WRITEBACK)


def access_type_from_name(name: str) -> AccessType:
    """Parse an access type from its short code ("LD", "RFO", "PR", "WB")."""
    try:
        return _FROM_SHORT[name.upper()]
    except KeyError:
        raise ValueError(f"unknown access type {name!r}") from None


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One memory reference in a trace.

    Attributes:
        address: Full byte address of the reference.
        pc: Program counter of the instruction issuing the reference.  The
            cache substrate carries PC so that PC-based baselines (SHiP,
            Hawkeye, ...) can be simulated; RLR itself never reads it.
        access_type: LOAD / RFO / PREFETCH / WRITEBACK.
        instr_delta: Number of instructions retired since the previous memory
            reference in the trace (used by the timing model to compute IPC).
        core: Issuing core id (0 for single-core traces).
        line_address: Derived — address with the intra-line offset stripped
            (precomputed once; records are looked up in several cache levels).
    """

    address: int
    pc: int = 0
    access_type: AccessType = AccessType.LOAD
    instr_delta: int = 1
    core: int = 0
    line_address: int = field(init=False, compare=False, default=-1)

    def __post_init__(self) -> None:
        object.__setattr__(self, "line_address", self.address >> OFFSET_BITS)

    @property
    def offset(self) -> int:
        """Low-order offset bits of the address (within the cache line)."""
        return self.address & (LINE_SIZE - 1)

    @property
    def is_write(self) -> bool:
        """True if the access writes the line (RFO or WRITEBACK)."""
        return self.access_type in _WRITE_TYPES


@dataclass
class Trace:
    """A named sequence of trace records plus bookkeeping metadata."""

    name: str
    records: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, index):
        return self.records[index]

    @property
    def instruction_count(self) -> int:
        """Total instructions represented by the trace."""
        return sum(record.instr_delta for record in self.records)

    def footprint_lines(self) -> int:
        """Number of distinct cache lines touched by the trace."""
        return len({record.line_address for record in self.records})
