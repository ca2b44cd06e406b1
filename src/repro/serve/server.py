"""The eviction-as-a-service policy server.

A long-running asyncio TCP server answering ``victim`` decisions for many
concurrent simulated cache instances (tenants) over the framed protocol in
:mod:`repro.serve.protocol`.  Designed robustness-first:

* **Deadline budget** — every victim request carries a *simulated* cost in
  microseconds (``base_cost_us`` plus whatever an injected
  ``slow:<ms>`` / ``hang_until_deadline`` fault charges).  A request whose
  cost exceeds ``deadline_us`` is answered immediately from the per-shard
  LRU fallback and counted.  Simulated (count-based) accounting — not
  wall-clock — is what keeps chaos-soak reports deterministic; see
  docs/serving.md for the rationale.
* **Micro-batched inference** — victim requests from all connections feed
  one decide queue; the decide loop drains up to ``max_batch`` requests
  per wakeup, so concurrent tenants amortize the per-wakeup overhead the
  way Cold-RL batches model invocations.
* **Graceful degradation** — each tenant owns a
  :class:`~repro.serve.state.ShardHealth` machine (healthy → degraded →
  quarantined, probation-based recovery) driven by deadline misses and
  policy errors from the strict contract sanitizer.
* **Always answer** — a victim request is *never* dropped and never
  crashes the connection: any internal failure degrades to the LRU
  fallback computed from the request's own set snapshot.
* **Crash safety** — periodic snapshots through
  :mod:`repro.serve.snapshot`; :meth:`PolicyServer.drain` (wired to
  SIGTERM by ``repro serve``) stops accepting, finishes in-flight
  decisions, and writes a final snapshot.

Chaos sites (see :mod:`repro.testing.faults`): ``serve.conn`` at
connection accept (dropped / stalled connections), ``serve.decide`` per
victim request (slow, deadline-blowing, erroring, or crashing decisions),
``serve.reply`` per victim reply (poisoned or truncated reply frames).
"""

from __future__ import annotations

import asyncio
import threading
from collections import OrderedDict

from repro.cache.replacement import BYPASS, make_policy
from repro.sanitize.policy_guard import CheckedPolicy
from repro.serve.protocol import (
    FRAME_PREFIX,
    PROTOCOL_VERSION,
    FrameError,
    check_payload,
    config_from_wire,
    decode_frame,
    decode_hook,
    decode_victim,
    encode_frame,
    error_reply,
    frame_header,
)
from repro.serve.state import QUARANTINED, HealthConfig, ShardHealth
from repro.telemetry import get_registry
from repro.testing.faults import (
    InjectedFault,
    maybe_fault_async,
    parse_action,
    poisoned,
)

#: Replies remembered per shard for idempotent-retry deduplication.
REPLY_CACHE_SIZE = 128

#: Fallback reasons carried in victim replies (and telemetry labels).
REASON_DEADLINE = "deadline"
REASON_POLICY_ERROR = "policy_error"
REASON_DEGRADED = "degraded"
REASON_QUARANTINED = "quarantined"


class ServeConfig:
    """Tunable serving knobs (all deterministic, count-based)."""

    def __init__(self, deadline_us: float = 500.0, base_cost_us: float = 50.0,
                 max_batch: int = 8, degrade_after: int = 3,
                 probation_ok: int = 16, quarantine_requests: int = 64,
                 snapshot_every: int = 0, snapshot_dir=None):
        if deadline_us <= 0:
            raise ValueError(f"deadline_us must be positive, got {deadline_us}")
        if base_cost_us >= deadline_us:
            raise ValueError(
                f"base_cost_us ({base_cost_us}) must stay below deadline_us "
                f"({deadline_us}) or every request would miss its deadline"
            )
        self.deadline_us = float(deadline_us)
        self.base_cost_us = float(base_cost_us)
        self.max_batch = max(1, int(max_batch))
        self.health = HealthConfig(
            degrade_after=degrade_after,
            probation_ok=probation_ok,
            quarantine_requests=quarantine_requests,
        )
        self.snapshot_every = int(snapshot_every)  # victim requests; 0 = off
        self.snapshot_dir = snapshot_dir


class TenantShard:
    """One tenant: its policy, health machine, and reply-dedup cache."""

    def __init__(self, tenant: str, policy_name: str, params: dict,
                 config, allow_bypass: bool, health_config: HealthConfig):
        self.tenant = tenant
        self.policy_name = policy_name
        self.params = dict(params or {})
        self.config = config
        self.allow_bypass = bool(allow_bypass)
        self.health = ShardHealth(
            config=HealthConfig.from_dict(health_config.to_dict())
        )
        self.replies = OrderedDict()  # request id -> recorded reply
        self.policy = self._build_policy()

    def _build_policy(self) -> CheckedPolicy:
        policy = make_policy(self.policy_name, **self.params)
        checked = CheckedPolicy(
            policy, strict=True, allow_bypass=self.allow_bypass
        )
        checked.bind(self.config)
        return checked

    def rebuild_policy(self) -> None:
        """Replace the policy with a fresh instance (quarantine exit)."""
        self.policy = self._build_policy()
        self.health.record_rebuild()

    def remember(self, request_id: str, reply: dict) -> None:
        self.replies[request_id] = reply
        while len(self.replies) > REPLY_CACHE_SIZE:
            self.replies.popitem(last=False)

    def apply_hook(self, kind: str, set_index: int, way, line,
                   access) -> None:
        """Feed one lifecycle event to the policy; errors are health signals."""
        if self.health.state == QUARANTINED:
            return  # the policy is benched; do not touch it
        try:
            if kind == "on_miss":
                self.policy.on_miss(set_index, access)
            else:
                getattr(self.policy, kind)(set_index, way, line, access)
        except Exception as error:  # policy bug: degrade, never crash
            self.health.record_error(f"{kind}: {error}")

    def describe(self) -> dict:
        return {
            "tenant": self.tenant,
            "policy": self.policy_name,
            "state": self.health.state,
            "requests": self.health.requests,
            "fallbacks": self.health.fallbacks,
            "deadline_misses": self.health.deadline_misses,
            "policy_errors": self.health.policy_errors,
            "rebuilds": self.health.rebuilds,
        }


class PolicyServer:
    """Asyncio framed-protocol policy server; see the module docstring."""

    def __init__(self, config: ServeConfig = None, host: str = "127.0.0.1",
                 port: int = 0, log=None):
        self.config = config or ServeConfig()
        self.host = host
        self.port = port
        self.shards = {}
        self.address = None
        self.draining = False
        self._log = log
        self._server = None
        self._decide_queue = None
        self._decide_task = None
        self._connections = set()
        self._victims_served = 0

    # -- logging / metrics -------------------------------------------------

    def log(self, message: str) -> None:
        if self._log is not None:
            self._log(message)

    def _count(self, name: str, **labels) -> None:
        get_registry().counter(name, **labels).inc()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self._decide_queue = asyncio.Queue()
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        self.address = self._server.sockets[0].getsockname()[:2]
        self._decide_task = asyncio.create_task(self._decide_loop())
        self.log(f"serving on {self.address[0]}:{self.address[1]}")

    async def drain(self, timeout: float = 10.0) -> None:
        """Stop accepting, finish in-flight decisions, snapshot, close."""
        if self.draining:
            return
        self.draining = True
        self.log("drain: stopped accepting connections")
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while (not self._decide_queue.empty()
               and loop.time() < deadline):
            await asyncio.sleep(0.005)
        if self.config.snapshot_dir:
            path = self.snapshot_now()
            self.log(f"drain: final snapshot -> {path}")
        for writer in list(self._connections):
            writer.close()
        if self._decide_task is not None:
            self._decide_task.cancel()
            try:
                await self._decide_task
            except asyncio.CancelledError:
                pass
        self.log("drain: complete")

    def snapshot_now(self):
        from repro.serve.snapshot import save_server_snapshot

        return save_server_snapshot(self.config.snapshot_dir, self)

    def restore(self, path) -> int:
        """Load a snapshot written by :func:`save_server_snapshot`.

        Returns the number of tenants restored.  Call before :meth:`start`
        (or at least before tenants reconnect).
        """
        from repro.serve.snapshot import restore_server_snapshot

        count = restore_server_snapshot(path, self)
        self.log(f"restored {count} tenant(s) from {path}")
        return count

    # -- connection handling -----------------------------------------------

    async def _on_connection(self, reader, writer) -> None:
        try:
            action = await maybe_fault_async("serve.conn")
        except InjectedFault:
            action = "error"
        if action == "error":  # dropped connection
            self.log("chaos: dropping incoming connection")
            writer.close()
            return
        self._connections.add(writer)
        try:
            await self._serve_connection(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer vanished: normal in chaos runs
        except Exception as error:  # never let a handler kill the server
            self.log(f"connection handler error: {error!r}")
        finally:
            self._connections.discard(writer)
            writer.close()

    async def _serve_connection(self, reader, writer) -> None:
        while not self.draining:
            try:
                prefix = await reader.readexactly(FRAME_PREFIX.size)
            except asyncio.IncompleteReadError as error:
                if error.partial:
                    self.log("truncated frame at EOF; closing connection")
                return  # EOF, clean or mid-prefix
            try:
                length, crc = frame_header(prefix)
                payload = check_payload(await reader.readexactly(length), crc)
            except asyncio.IncompleteReadError:
                self.log("truncated frame at EOF; closing connection")
                return
            except FrameError as error:
                # Too large, or a bad checksum: the length word may be the
                # damaged part, so the stream cannot be trusted past it.
                self._count("serve.bad_frames")
                await self._send(writer, error_reply(f"bad frame: {error}"))
                return
            try:
                if payload[:1] == b"H":  # one-way: nothing to answer
                    self._hook(*decode_hook(payload))
                    continue
                reply = await self._dispatch(payload)
            except FrameError as error:
                reply = error_reply(f"bad frame: {error}")
                self._count("serve.bad_frames")
            if reply is not None:
                await self._send(writer, reply)
                if reply.get("op") == "shutdown_ack":
                    asyncio.create_task(self.drain())
                    return

    async def _send(self, writer, reply: dict) -> None:
        payload = encode_frame(reply)
        if reply.get("op") == "victim":
            # Chaos: a 'corrupt' fault truncates the reply mid-frame.
            if poisoned("serve.reply.corrupt"):
                payload = payload[: max(1, len(payload) // 2)]
                self.log("chaos: truncating a victim reply frame")
        writer.write(payload)
        await writer.drain()

    async def _dispatch(self, payload: bytes):
        if payload[:1] == b"V":
            return await self._victim(*decode_victim(payload))
        frame = decode_frame(payload)
        op = frame.get("op")
        if op == "bind":
            return self._bind(frame)
        if op == "ping":
            return {"ok": True, "op": "pong", "protocol": PROTOCOL_VERSION}
        if op == "stats":
            return self._stats(frame)
        if op == "snapshot":
            if not self.config.snapshot_dir:
                return error_reply("server has no snapshot directory")
            return {"ok": True, "op": "snapshot",
                    "path": str(self.snapshot_now())}
        if op == "shutdown":
            return {"ok": True, "op": "shutdown_ack"}
        return error_reply(f"unknown op {op!r}", frame.get("id"))

    # -- ops ---------------------------------------------------------------

    def _bind(self, frame: dict) -> dict:
        tenant = frame.get("tenant")
        if not isinstance(tenant, str) or not tenant:
            return error_reply("bind needs a non-empty tenant string")
        policy_name = frame.get("policy")
        config = config_from_wire(frame.get("config") or {})
        shard = self.shards.get(tenant)
        if shard is None:
            try:
                shard = TenantShard(
                    tenant, policy_name, frame.get("params") or {}, config,
                    frame.get("allow_bypass", False), self.config.health,
                )
            except Exception as error:
                return error_reply(f"bind failed: {error}")
            self.shards[tenant] = shard
            self.log(f"bound tenant {tenant!r} -> policy {policy_name!r}")
        elif shard.policy_name != policy_name or shard.config != config:
            # Same tenant id, different identity: refuse rather than
            # silently serving the wrong brain.
            return error_reply(
                f"tenant {tenant!r} already bound to policy "
                f"{shard.policy_name!r}"
            )
        # else: reconnect after restore/retry — attach to the live shard.
        inner = shard.policy.wrapped
        return {
            "ok": True,
            "op": "bind",
            "tenant": tenant,
            "protocol": PROTOCOL_VERSION,
            "needs_line_metadata": bool(
                getattr(inner, "needs_line_metadata", True)
            ),
            "uses_pc": bool(getattr(inner, "uses_pc", False)),
            "state": shard.health.state,
        }

    def _hook(self, tenant: str, kind: str, *event) -> None:
        shard = self.shards.get(tenant)
        if shard is None:
            return  # one-way: nothing useful to answer
        shard.apply_hook(kind, *event)

    async def _victim(self, tenant: str, request_id: str, set_index: int,
                      cache_set, access) -> dict:
        shard = self.shards.get(tenant)
        if shard is None:
            return error_reply(
                f"unknown tenant {tenant!r} (bind first)", request_id
            )
        if request_id in shard.replies:
            self._count("serve.duplicate_requests")
            return dict(shard.replies[request_id])

        # Chaos at the decide site: charge simulated cost / inject errors.
        cost_us = self.config.base_cost_us
        fault_error = None
        try:
            action = await maybe_fault_async(
                "serve.decide",
                tenant=shard.tenant, policy=shard.policy_name,
            )
        except InjectedFault as error:
            action = None
            fault_error = error
        if action is not None:
            kind, duration_ms = parse_action(action)
            if kind == "slow":
                cost_us += duration_ms * 1000.0
            elif kind in ("hang", "hang_until_deadline"):
                cost_us = self.config.deadline_us + 1.0

        future = asyncio.get_running_loop().create_future()
        self._decide_queue.put_nowait(
            (shard, set_index, cache_set, access, cost_us, fault_error,
             future)
        )
        reply = await future
        reply["id"] = request_id
        shard.remember(request_id, dict(reply))
        # Chaos: a poisoned reply carries an out-of-range way.
        if poisoned("serve.reply", tenant=shard.tenant):
            reply = dict(reply)
            reply["way"] = cache_set.ways + 7
            self.log(f"chaos: poisoning reply {request_id!r}")
        return reply

    def _stats(self, frame: dict) -> dict:
        tenant = frame.get("tenant")
        if tenant is not None:
            shard = self.shards.get(tenant)
            if shard is None:
                return error_reply(f"unknown tenant {tenant!r}")
            payload = shard.describe()
            payload["history"] = list(shard.health.history)
            return {"ok": True, "op": "stats", "tenant": payload}
        return {
            "ok": True,
            "op": "stats",
            "victims_served": self._victims_served,
            "tenants": [self.shards[name].describe()
                        for name in sorted(self.shards)],
        }

    def health_payload(self) -> dict:
        """``/healthz`` body: ok iff no shard is quarantined."""
        states = {name: shard.health.state
                  for name, shard in sorted(self.shards.items())}
        return {
            "ok": all(state != QUARANTINED for state in states.values()),
            "draining": self.draining,
            "tenants": states,
            "victims_served": self._victims_served,
        }

    # -- the decide loop (micro-batching) ----------------------------------

    async def _decide_loop(self) -> None:
        while True:
            batch = [await self._decide_queue.get()]
            while (len(batch) < self.config.max_batch
                   and not self._decide_queue.empty()):
                batch.append(self._decide_queue.get_nowait())
            get_registry().histogram("serve.batch_size").observe(len(batch))
            for item in batch:
                shard, set_index, cache_set, access, cost_us, fault, future = item
                try:
                    reply = self._decide_one(
                        shard, set_index, cache_set, access, cost_us, fault
                    )
                except Exception as error:
                    # Absolute backstop: even a bug in the decide path must
                    # answer with a valid LRU decision.
                    self.log(f"decide-loop error: {error!r}")
                    reply = self._fallback_reply(
                        shard, cache_set, REASON_POLICY_ERROR
                    )
                if not future.done():
                    future.set_result(reply)
                self._maybe_snapshot()

    def _fallback_reply(self, shard, cache_set, reason: str) -> dict:
        self._count("serve.fallbacks", reason=reason,
                    policy=shard.policy_name)
        return {
            "ok": True,
            "op": "victim",
            "way": cache_set.lru_way(),
            "source": "fallback",
            "reason": reason,
            "state": shard.health.state,
        }

    def _decide_one(self, shard, set_index, cache_set, access,
                    cost_us: float, fault_error) -> dict:
        health = shard.health
        self._victims_served += 1
        self._count("serve.requests", policy=shard.policy_name)
        if health.should_rebuild():
            shard.rebuild_policy()
            self.log(f"tenant {shard.tenant!r}: policy rebuilt after "
                     f"quarantine (probation starts)")
        deadline_miss = cost_us > self.config.deadline_us
        if deadline_miss:
            self._count("serve.deadline_misses", policy=shard.policy_name)

        if health.state == QUARANTINED:
            health.record_decision(deadline_miss=False, served_fallback=True)
            return self._fallback_reply(shard, cache_set, REASON_QUARANTINED)

        if fault_error is not None:
            self._count("serve.policy_errors", policy=shard.policy_name)
            health.record_error(str(fault_error))
            health.record_decision(deadline_miss=True, served_fallback=True)
            return self._fallback_reply(shard, cache_set, REASON_POLICY_ERROR)

        if deadline_miss:
            health.record_decision(deadline_miss=True, served_fallback=True)
            return self._fallback_reply(shard, cache_set, REASON_DEADLINE)

        if health.policy_decides:
            try:
                way = shard.policy.victim(set_index, cache_set, access)
            except Exception as error:
                self._count("serve.policy_errors", policy=shard.policy_name)
                health.record_error(str(error))
                health.record_decision(deadline_miss=True,
                                       served_fallback=True)
                return self._fallback_reply(
                    shard, cache_set, REASON_POLICY_ERROR
                )
            health.record_decision(deadline_miss=False, served_fallback=False)
            return {
                "ok": True,
                "op": "victim",
                "way": int(way) if way != BYPASS else BYPASS,
                "source": "policy",
                "reason": None,
                "state": health.state,
            }

        # Degraded: LRU serves; the policy decides in shadow for probation.
        try:
            shard.policy.victim(set_index, cache_set, access)
        except Exception as error:
            self._count("serve.policy_errors", policy=shard.policy_name)
            health.record_error(f"shadow: {error}")
            health.record_decision(deadline_miss=True, served_fallback=True)
            return self._fallback_reply(shard, cache_set, REASON_POLICY_ERROR)
        health.record_decision(deadline_miss=False, served_fallback=True)
        return self._fallback_reply(shard, cache_set, REASON_DEGRADED)

    def _maybe_snapshot(self) -> None:
        if (self.config.snapshot_dir
                and self.config.snapshot_every
                and self._victims_served % self.config.snapshot_every == 0):
            self.snapshot_now()


# -- threaded harness (tests and the soak driver) ------------------------------


class ServerHandle:
    """A :class:`PolicyServer` running on a background event loop."""

    def __init__(self, server: PolicyServer, loop, thread):
        self.server = server
        self.loop = loop
        self.thread = thread

    @property
    def host(self) -> str:
        return self.server.address[0]

    @property
    def port(self) -> int:
        return self.server.address[1]

    def stop(self, timeout: float = 10.0) -> None:
        """Drain the server and stop its event loop."""
        if self.loop.is_running():
            future = asyncio.run_coroutine_threadsafe(
                self.server.drain(), self.loop
            )
            try:
                future.result(timeout)
            except Exception:
                pass
            self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_in_thread(config: ServeConfig = None, host: str = "127.0.0.1",
                    port: int = 0, log=None,
                    restore=None) -> ServerHandle:
    """Run a :class:`PolicyServer` on a dedicated daemon thread."""
    started = threading.Event()
    holder = {}

    def run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        server = PolicyServer(config, host=host, port=port, log=log)
        if restore is not None:
            server.restore(restore)
        loop.run_until_complete(server.start())
        holder["server"] = server
        holder["loop"] = loop
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    thread = threading.Thread(target=run, daemon=True, name="repro-serve")
    thread.start()
    if not started.wait(timeout=10.0):
        raise RuntimeError("policy server failed to start within 10s")
    return ServerHandle(holder["server"], holder["loop"], thread)
