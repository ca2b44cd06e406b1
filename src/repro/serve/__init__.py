"""Eviction-as-a-service: the deadline-bounded async policy server.

The bridge from "replay a trace" to "serve heavy traffic": a long-running
asyncio server (:mod:`repro.serve.server`) answers ``victim`` decisions
over a length+CRC framed socket protocol
(:mod:`repro.serve.protocol`) for many concurrent simulated cache
instances, under a per-request deadline budget with an always-available
LRU fallback, a per-tenant degradation state machine
(:mod:`repro.serve.state`), crash-safe snapshots
(:mod:`repro.serve.snapshot`), a defensive client
(:mod:`repro.serve.client`), and a chaos soak harness
(:mod:`repro.serve.soak`).  See docs/serving.md.
"""

from repro.serve.client import (
    CircuitBreaker,
    PolicyClient,
    ServerBackedPolicy,
)
from repro.serve.protocol import PROTOCOL_VERSION, FrameError
from repro.serve.server import (
    PolicyServer,
    ServeConfig,
    ServerHandle,
    TenantShard,
    start_in_thread,
)
from repro.serve.snapshot import (
    SnapshotError,
    load_server_snapshot,
    save_server_snapshot,
)
from repro.serve.state import (
    DEGRADED,
    HEALTHY,
    QUARANTINED,
    HealthConfig,
    ShardHealth,
)

__all__ = [
    "CircuitBreaker",
    "PolicyClient",
    "ServerBackedPolicy",
    "PROTOCOL_VERSION",
    "FrameError",
    "PolicyServer",
    "ServeConfig",
    "ServerHandle",
    "TenantShard",
    "start_in_thread",
    "SnapshotError",
    "load_server_snapshot",
    "save_server_snapshot",
    "DEGRADED",
    "HEALTHY",
    "QUARANTINED",
    "HealthConfig",
    "ShardHealth",
]
