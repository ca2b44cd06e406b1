"""Client side of eviction-as-a-service: never stall, never crash.

Two layers:

:class:`PolicyClient`
    A small blocking-socket framed-protocol client with the full
    reliability kit:
    per-attempt timeouts, bounded retries with **jittered exponential
    backoff** (seeded RNG + injectable sleep, so tests assert the exact
    schedule), **idempotent request ids** (a retransmitted victim request
    is deduplicated server-side against its recorded reply), automatic
    reconnect-and-rebind (a reply stream is never reused after a timeout,
    so half-read frames cannot misalign the protocol), and a **circuit
    breaker**: after ``failure_threshold`` consecutive transport failures
    the client stops touching the network entirely and only probes again
    after ``cooldown_requests`` locally-served requests.

:class:`ServerBackedPolicy`
    A :class:`~repro.cache.replacement.base.ReplacementPolicy` adapter
    that makes the existing replay/sweep machinery a tenant of the server:
    hooks stream as one-way frames, ``victim`` is a synchronous
    request/response.  Every reply is validated against the local cache
    set (a poisoned or malformed reply is *discarded*, not trusted) and
    every failure path — timeout, dropped connection, open breaker, dead
    server — degrades to the local ``cache_set.lru_way()`` fallback.  The
    replay loop therefore always receives a valid decision, which is the
    Cold-RL sidecar contract: the cache never blocks on the brain.

With no faults injected the adapter is a pure transport: the server runs
the same policy code against reconstructed-identical state, so reports are
byte-identical to in-process runs (proven in tests/test_serve_identity.py).
"""

from __future__ import annotations

import itertools
import os
import random
import socket
import time

from repro.cache.replacement import (
    BYPASS,
    POLICY_REGISTRY,
    ReplacementPolicy,
)
from repro.serve.protocol import (
    FrameError,
    bind_request,
    decode_frame,
    encode_frame,
    hook_request,
    pack_line,
    pack_lines,
    read_frame,
    victim_request,
)
from repro.telemetry import get_registry

#: Process-wide tenant-id allocator (tenant names never reach reports).
_TENANT_COUNTER = itertools.count(1)


class CircuitBreaker:
    """Consecutive-failure breaker with count-based half-open probing."""

    def __init__(self, failure_threshold: int = 5,
                 cooldown_requests: int = 50):
        self.failure_threshold = max(1, int(failure_threshold))
        self.cooldown_requests = max(1, int(cooldown_requests))
        self.consecutive_failures = 0
        self.open = False
        self._skipped = 0

    def allow(self) -> bool:
        """May this request touch the network?"""
        if not self.open:
            return True
        self._skipped += 1
        if self._skipped >= self.cooldown_requests:
            self._skipped = 0
            return True  # half-open: one probe
        return False

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self.open = False
        self._skipped = 0

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if self.consecutive_failures >= self.failure_threshold:
            self.open = True

    def __repr__(self) -> str:
        state = "open" if self.open else "closed"
        return (f"CircuitBreaker({state}, "
                f"failures={self.consecutive_failures})")


def backoff_delays(retries: int, base: float, cap: float, rng) -> list:
    """The jittered exponential backoff schedule, one delay per retry."""
    delays = []
    for attempt in range(retries):
        raw = min(cap, base * (2 ** attempt))
        delays.append(raw * (0.5 + rng.random() / 2))  # 50-100% of raw
    return delays


class PolicyClient:
    """Blocking framed-protocol client for one tenant connection.  A
    request is a dict; a packed op carries its encoded ``payload``."""

    def __init__(self, host: str, port: int, timeout: float = 2.0,
                 retries: int = 2, backoff_base: float = 0.01,
                 backoff_cap: float = 0.5, rng_seed: int = 7,
                 sleep=time.sleep, failure_threshold: int = 5,
                 cooldown_requests: int = 50):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.rng = random.Random(rng_seed)
        self.sleep = sleep
        self.breaker = CircuitBreaker(failure_threshold, cooldown_requests)
        self.transport_failures = 0
        self.dropped_hooks = 0
        self._sock = None
        self._file = None
        self._bind_frame = None  # replayed on every (re)connect

    # -- connection management ---------------------------------------------

    @property
    def connected(self) -> bool:
        return self._file is not None

    def _connect(self) -> None:
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        sock.settimeout(self.timeout)
        self._sock = sock
        self._file = sock.makefile("rwb")
        if self._bind_frame is not None:
            # Re-attach the tenant: servers treat a matching re-bind as a
            # no-op, and a restarted-with-restore server finds its shard.
            reply = self._roundtrip(self._bind_frame)
            if not reply.get("ok"):
                raise FrameError(f"re-bind refused: {reply.get('error')}")

    def close(self) -> None:
        for closer in (self._file, self._sock):
            if closer is not None:
                try:
                    closer.close()
                except OSError:
                    pass
        self._file = None
        self._sock = None

    def _roundtrip(self, frame: dict) -> dict:
        """One send + one reply on the live connection (no retries here)."""
        self._file.write(encode_frame(frame))
        self._file.flush()
        reply = self._decode(read_frame(self._file.read))
        want = frame.get("id")
        if want is not None and reply.get("id") not in (None, want):
            raise FrameError(
                f"reply id {reply.get('id')!r} does not match request "
                f"{want!r}"
            )
        return reply

    def _decode(self, payload: bytes) -> dict:
        """A reply payload as a dict (its own step: the bench times it)."""
        return decode_frame(payload)

    # -- request path --------------------------------------------------------

    def request(self, frame: dict):
        """Send a request frame; returns the reply dict or ``None``.

        ``None`` means *all* recovery failed (breaker open, or every retry
        exhausted) — the caller must serve its local fallback.  Never
        raises for transport problems.
        """
        if not self.breaker.allow():
            return None
        delays = backoff_delays(
            self.retries, self.backoff_base, self.backoff_cap, self.rng
        )
        for attempt in range(self.retries + 1):
            try:
                if not self.connected:
                    self._connect()
                reply = self._roundtrip(frame)
                self.breaker.record_success()
                return reply
            except (OSError, FrameError, socket.timeout):
                # Timeout, refused/dropped connection, malformed reply: the
                # stream can no longer be trusted — reconnect from scratch.
                self.transport_failures += 1
                self.breaker.record_failure()
                get_registry().counter("serve.client_transport_failures").inc()
                self.close()
                if attempt < self.retries:
                    self.sleep(delays[attempt])
        return None

    def send(self, frame: dict) -> bool:
        """One-way frame (hooks): buffered write, no reply expected."""
        if not self.breaker.allow():
            self.dropped_hooks += 1
            return False
        try:
            if not self.connected:
                self._connect()
            self._file.write(encode_frame(frame))
            return True
        except (OSError, FrameError, socket.timeout):
            self.transport_failures += 1
            self.breaker.record_failure()
            self.close()
            self.dropped_hooks += 1
            return False

    # -- typed helpers -------------------------------------------------------

    def bind(self, tenant: str, policy: str, config, params: dict = None,
             allow_bypass: bool = False):
        frame = bind_request(tenant, policy, config, params, allow_bypass)
        self._bind_frame = frame
        reply = self.request(frame)
        if reply is not None and not reply.get("ok"):
            return None
        return reply

    def ping(self):
        return self.request({"op": "ping"})

    def stats(self, tenant: str = None):
        frame = {"op": "stats"}
        if tenant is not None:
            frame["tenant"] = tenant
        return self.request(frame)

    def shutdown(self):
        return self.request({"op": "shutdown"})


class ServerBackedPolicy(ReplacementPolicy):
    """Run any registered policy *behind the server* in an ordinary replay.

    ``name`` mirrors the inner policy's registry name on purpose: report
    rows must be indistinguishable from in-process rows for the
    byte-identity guarantee.
    """

    def __init__(self, policy: str, host: str, port: int, params: dict = None,
                 client_options: dict = None, tenant: str = None):
        super().__init__()
        if policy not in POLICY_REGISTRY:
            raise ValueError(f"unknown policy {policy!r}")
        self._policy_name = policy
        self._params = dict(params or {})
        self._host = host
        self._port = port
        self._client_options = dict(client_options or {})
        self._tenant = tenant
        self.name = policy
        # Mirror the inner policy's flags from the local registry so the
        # replay loop reads sensible values even if bind never succeeds.
        factory = POLICY_REGISTRY[policy]
        self.needs_line_metadata = bool(
            getattr(factory, "needs_line_metadata", True)
        )
        self.uses_pc = bool(getattr(factory, "uses_pc", False))
        self._client = None
        self._seq = 0
        #: Packed line records of the last victim request: its ``on_evict``
        #: follows at once and reports the victim as that snapshot did.
        self._victim_lines = None
        self.local_fallbacks = 0  #: decisions served by the local LRU path
        self.server_fallbacks = 0  #: server replies flagged source=fallback

    # -- plumbing ------------------------------------------------------------

    def _ensure_client(self) -> PolicyClient:
        if self._client is None:
            self._client = PolicyClient(
                self._host, self._port, **self._client_options
            )
        return self._client

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_client"] = None  # live sockets never travel to workers
        return state

    def close(self) -> None:
        if self._client is not None:
            self._client.close()
            self._client = None

    # -- ReplacementPolicy surface -------------------------------------------

    def bind(self, config) -> None:
        super().bind(config)
        if self._tenant is None:
            self._tenant = f"t{os.getpid()}-{next(_TENANT_COUNTER)}"
        reply = self._ensure_client().bind(
            self._tenant, self._policy_name, config, self._params
        )
        if reply is not None:
            self.needs_line_metadata = bool(reply.get(
                "needs_line_metadata", self.needs_line_metadata
            ))
            self.uses_pc = bool(reply.get("uses_pc", self.uses_pc))

    def _send_hook(self, kind, set_index, access, way=None, record=None,
                   line=None, rank=0) -> None:
        """One hook frame.  Its line goes as ``record`` (already packed) or
        as ``line`` at ``rank``, aged 0 since its own last access."""
        client = self._ensure_client()
        try:
            if line is not None:
                record = pack_line(line, rank, line.stamp)
            frame = hook_request(self._tenant, kind, set_index, access, way,
                                 record)
        except FrameError:
            # A field the wire cannot carry: the event is lost, as on a
            # dead connection, and counted the same way.
            client.dropped_hooks += 1
            return
        client.send(frame)

    def on_hit(self, set_index, way, line, access) -> None:
        # A line just hit or filled is the set's MRU.
        self._send_hook("on_hit", set_index, access, way, line=line,
                        rank=self.ways - 1)

    def on_miss(self, set_index, access) -> None:
        self._send_hook("on_miss", set_index, access)

    def on_evict(self, set_index, way, line, access) -> None:
        # Without a victim request before it there is no snapshot to rank
        # the line in; report it as of its own last access.
        lines = self._victim_lines
        if lines:
            self._send_hook("on_evict", set_index, access, way, lines[way])
        else:
            self._send_hook("on_evict", set_index, access, way, line=line)

    def on_fill(self, set_index, way, line, access) -> None:
        self._send_hook("on_fill", set_index, access, way, line=line,
                        rank=self.ways - 1)

    def victim(self, set_index, cache_set, access) -> int:
        self._seq += 1
        request_id = f"{self._tenant}-{self._seq}"
        try:
            self._victim_lines = pack_lines(cache_set)
            frame = victim_request(self._tenant, request_id, set_index,
                                   cache_set, access, self._victim_lines)
        except FrameError:
            frame = self._victim_lines = None  # the wire cannot carry it
        reply = self._ensure_client().request(frame) if frame else None
        way = self._validate(reply, cache_set)
        if way is None:
            # Local LRU fallback: the sidecar contract — the cache never
            # blocks on (or crashes with) the brain.
            self.local_fallbacks += 1
            get_registry().counter(
                "serve.client_fallbacks", policy=self._policy_name
            ).inc()
            return cache_set.lru_way()
        if reply.get("source") == "fallback":
            self.server_fallbacks += 1
        return way

    def _validate(self, reply, cache_set):
        """The reply's way iff it is a decision this cache may apply."""
        if reply is None or not reply.get("ok"):
            return None
        way = reply.get("way")
        if not isinstance(way, int) or isinstance(way, bool):
            return None
        if way == BYPASS:
            return None  # replays here never enable bypass; do not trust it
        if not 0 <= way < cache_set.ways:
            return None  # poisoned or corrupt reply
        if not cache_set.lines[way].valid:
            return None
        return way

    def __repr__(self) -> str:
        return (f"ServerBackedPolicy({self._policy_name!r}, "
                f"{self._host}:{self._port})")
