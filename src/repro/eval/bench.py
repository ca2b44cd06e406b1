"""Throughput micro-benchmarks (``repro bench``): the perf observatory.

A matrix of fixed, small, deterministic workloads, one family per engine:

* **replay**: a CPU workload prepared once (warm prep-cache path, so pass 1
  is excluded) and its recorded LLC stream replayed per policy;
* **objcache**: the golden object-cache scenario shape (Zipfian trace,
  lognormal inverse-correlated sizes) per object policy, plus
  admission-gated variants (``lru+size_threshold``, ``lru+freq_gate``);
* **serve**: round-trip decide latency against the threaded policy server
  (count-based nearest-rank percentiles, decides/sec);
* **train**: one Q-learning epoch over a recorded LLC stream (records/sec);
* **overhead**: the disabled-path budget guards (telemetry hooks, decision
  observer loops, sanitizer off-mode, profiler parity) as asserted checks.

Every payload is schema-versioned (:data:`BENCH_SCHEMA_VERSION`), stamps
the environment (python, machine, git SHA + dirty flag), and — where an
engine is profiled — carries the per-phase attribution breakdown from
:mod:`repro.telemetry.perf`, so a regression report can name the phase
that got slower, not just the number that moved.

Results are committed as ``BENCH_*.json`` at the repo root (one snapshot
per PR) and appended to ``BENCH_history.jsonl``
(:mod:`repro.eval.bench_history`) for the regression gate.  Numbers are
machine-dependent by nature — the history tracks *relative* movement on
the CI machine class, not absolute truth.
"""

from __future__ import annotations

import json
import platform
import statistics
import time
from pathlib import Path

#: Bumped whenever a payload's shape changes (satellite: snapshots must be
#: correlatable with history — see docs/observability.md).
#: v2: added schema/git stamps, phases, serve/train/overhead families.
BENCH_SCHEMA_VERSION = 2

DEFAULT_REPEATS = 3

#: The fixed objcache benchmark shape (mirrors scenarios/objcache goldens).
OBJCACHE_BENCH = {
    "objects": 4000,
    "length": 20_000,
    "seed": 7,
    "alpha": 1.0,
    "capacity_bytes": 12_000_000,
    "policies": ("lru", "lru_size", "gdsf", "random_size", "rlr", "rlr_size"),
    #: admission gates benched in front of an LRU cache (key "lru+<gate>").
    "admissions": ("size_threshold", "freq_gate"),
}

#: The fixed CPU replay benchmark shape.
REPLAY_BENCH = {
    "workload": "473.astar",
    "scale": 16,
    "trace_length": 20_000,
    "seed": 7,
    "policies": ("lru", "srrip", "drrip", "ship++", "rlr"),
}

#: The serve round-trip benchmark shape.
SERVE_BENCH = {
    "requests": 150,
    "policies": ("lru", "rlr"),
}

#: One training epoch over a small recorded LLC stream.
TRAIN_BENCH = {
    "workload": "429.mcf",
    "scale": 64,
    "trace_length": 3000,
    "seed": 7,
    "hidden_size": 32,
    "epochs": 1,
}

#: The overhead-budget suite (folds the ad-hoc <2% guards into the bench
#: history so they regress visibly, not silently).
OVERHEAD_BENCH = {
    "workload": "429.mcf",
    "scale": 64,
    "trace_length": 1500,
    "seed": 7,
    "budget": 0.02,
}


def _merged(default: dict, spec) -> dict:
    return dict(default) if spec is None else {**default, **spec}


def _best_rate(run, units: int, repeats: int) -> float:
    """Best-of-N throughput in units/sec (min timing noise, not mean)."""
    best = 0.0
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        run()
        elapsed = time.perf_counter() - started
        if elapsed > 0:
            best = max(best, units / elapsed)
    return best


def _nearest_rank(sorted_values, percentile: float) -> float:
    """Count-based nearest-rank percentile (deterministic given the list)."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * percentile // 100))  # ceil
    return sorted_values[int(rank) - 1]


def _git_state() -> dict:
    """Current commit SHA + dirty flag; ``None`` fields outside a repo."""
    import subprocess

    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}
    sha = head.stdout.strip() if head.returncode == 0 else None
    dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
    return {"sha": sha or None, "dirty": dirty}


def _environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "git": _git_state(),
    }


def bench_objcache(repeats: int = DEFAULT_REPEATS, spec: dict = None) -> dict:
    """Accesses/sec of ``ObjectCache.replay`` per policy and admission gate.

    Rates come from unprofiled caches (best-of-N); one additional profiled
    replay per variant supplies the phase-attribution breakdown.
    """
    from repro.objcache import (
        ObjectCache,
        generate_object_trace,
        make_object_policy,
    )
    from repro.objcache.admission import make_admission
    from repro.telemetry.perf import PhaseProfile, make_profiled_object_cache

    spec = _merged(OBJCACHE_BENCH, spec)
    trace = generate_object_trace(
        name="bench-zipf", kind="zipf", objects=spec["objects"],
        length=spec["length"], seed=spec["seed"], alpha=spec["alpha"],
        sizes={"dist": "lognormal", "min": 256, "max": 1 << 20,
               "correlate": "inverse"},
    )
    variants = [(name, name, None) for name in spec["policies"]]
    variants += [(f"lru+{gate}", "lru", gate)
                 for gate in spec.get("admissions", ())]
    rates, phases = {}, {}
    for key, policy, gate in variants:
        def run(policy=policy, gate=gate):
            cache = ObjectCache(
                spec["capacity_bytes"], make_object_policy(policy),
                admission=make_admission(gate) if gate else None,
            )
            cache.replay(trace.requests)

        rates[key] = round(_best_rate(run, len(trace.requests), repeats), 1)
        profile = PhaseProfile("objcache")
        profiled_cache = make_profiled_object_cache(
            spec["capacity_bytes"], make_object_policy(policy), profile,
            admission=make_admission(gate) if gate else None,
        )
        profiled_cache.replay(trace.requests)
        phases[key] = profile.as_dict()
    return {
        "bench": "objcache",
        "schema": BENCH_SCHEMA_VERSION,
        "unit": "accesses/sec",
        "repeats": repeats,
        "requests": len(trace.requests),
        "capacity_bytes": spec["capacity_bytes"],
        "environment": _environment(),
        "rates": rates,
        "phases": phases,
    }


def bench_replay(repeats: int = DEFAULT_REPEATS, spec: dict = None) -> dict:
    """LLC accesses/sec of the pass-2 replay per CPU policy.

    ``prepare_workload`` runs once up front — the warm-prep-cache path — so
    the timing covers only the policy-dependent replay loop.  A profiled
    replay per policy (not timed for the rate) supplies phase attribution.
    """
    from repro.eval.runner import prepare_workload, replay
    from repro.eval.workloads import EvalConfig
    from repro.telemetry.perf import PhaseProfile

    spec = _merged(REPLAY_BENCH, spec)
    config = EvalConfig(scale=spec["scale"],
                        trace_length=spec["trace_length"], seed=spec["seed"])
    trace = config.trace(spec["workload"])
    prepared = prepare_workload(config, trace)
    rates, phases = {}, {}
    for policy in spec["policies"]:
        def run(policy=policy):
            replay(prepared, policy)

        rates[policy] = round(
            _best_rate(run, len(prepared.llc_records), repeats), 1
        )
        profile = PhaseProfile("replay")
        replay(prepared, policy, profile=profile)
        phases[policy] = profile.as_dict()
    return {
        "bench": "replay",
        "schema": BENCH_SCHEMA_VERSION,
        "unit": "llc accesses/sec",
        "repeats": repeats,
        "workload": spec["workload"],
        "trace_length": spec["trace_length"],
        "llc_records": len(prepared.llc_records),
        "environment": _environment(),
        "rates": rates,
        "phases": phases,
    }


def bench_serve(repeats: int = DEFAULT_REPEATS, spec: dict = None) -> dict:
    """Round-trip decide latency/throughput against the threaded server.

    Latency percentiles are count-based nearest-rank over the best repeat's
    per-request wall times (deterministic given the measurements); the
    phase split times ``policy.victim`` on the server side and the
    client's request packing (``encode``) and reply parsing (``decode``),
    with the remainder attributed to ``transport`` (socket, server-side
    framing and decoding, micro-batch queueing).
    """
    from repro.cache.cache_set import CacheSet
    from repro.cache.config import CacheConfig
    from repro.serve.client import PolicyClient
    from repro.serve.protocol import victim_request
    from repro.serve.server import ServeConfig, start_in_thread
    from repro.telemetry.perf import PhaseProfile
    from repro.traces.record import AccessType, TraceRecord

    spec = _merged(SERVE_BENCH, spec)
    requests = spec["requests"]
    record = TraceRecord(address=0x1000, pc=0x40,
                         access_type=AccessType.LOAD, core=0)
    config = CacheConfig("llc", 64 * 1024, 16, 30)
    cache_set = CacheSet(0, 16)
    for way in range(16):  # way 0 filled first: the LRU line
        cache_set.accesses += 1
        cache_set.fill(way, 0x10 + way, 0x4000 + way, record)

    rates, latency_us, phases = {}, {}, {}
    with start_in_thread(ServeConfig()) as handle:
        for policy in spec["policies"]:
            tenant = f"bench-{policy}"
            client = PolicyClient(handle.host, handle.port)
            try:
                if client.bind(tenant, policy, config) is None:
                    raise RuntimeError(f"serve bench: bind({policy}) failed")
                shard = handle.server.shards[tenant]
                victim_box = [0.0, 0]  # seconds, calls (GIL-safe accum)
                original = shard.policy.victim

                def timed_victim(set_index, victim_set, access,
                                 original=original, box=victim_box):
                    started = time.perf_counter()
                    way = original(set_index, victim_set, access)
                    box[0] += time.perf_counter() - started
                    box[1] += 1
                    return way

                shard.policy.victim = timed_victim
                decode_box = [0.0]
                original_decode = client._decode

                def timed_decode(payload, original=original_decode,
                                 box=decode_box):
                    started = time.perf_counter()
                    reply = original(payload)
                    box[0] += time.perf_counter() - started
                    return reply

                client._decode = timed_decode
                best_rate, best = 0.0, None
                for repeat in range(max(1, repeats)):
                    victim_box[0], victim_box[1] = 0.0, 0
                    decode_box[0] = encode_seconds = 0.0
                    latencies = []
                    started = time.perf_counter()
                    for index in range(requests):
                        packing = time.perf_counter()
                        frame = victim_request(
                            tenant, f"{policy}-{repeat}-{index}", 0,
                            cache_set, record,
                        )
                        sent = time.perf_counter()
                        encode_seconds += sent - packing
                        reply = client.request(frame)
                        latencies.append(time.perf_counter() - sent)
                        if reply is None or not reply.get("ok"):
                            raise RuntimeError(
                                f"serve bench: victim({policy}) failed: "
                                f"{reply!r}"
                            )
                    elapsed = time.perf_counter() - started
                    rate = requests / elapsed if elapsed > 0 else 0.0
                    if rate >= best_rate:
                        best_rate = rate
                        best = (sorted(latencies), elapsed,
                                victim_box[0], victim_box[1],
                                encode_seconds, decode_box[0])
                rates[policy] = round(best_rate, 1)
                (latencies, elapsed, victim_seconds, victim_calls,
                 encode_seconds, decode_seconds) = best
                latency_us[policy] = {
                    f"p{pct}": round(
                        _nearest_rank(latencies, pct) * 1e6, 1
                    )
                    for pct in (50, 90, 99)
                }
                profile = PhaseProfile("serve")
                profile.accesses = requests
                profile.raw["victim"] = victim_seconds
                profile.raw["encode"] = encode_seconds
                profile.raw["decode"] = decode_seconds
                profile.count("victim_scoring", victim_calls)
                profile.count("encode", requests)
                profile.count("decode", requests)
                profile.finish(elapsed)
                phases[policy] = profile.as_dict()
            finally:
                client.close()
    return {
        "bench": "serve",
        "schema": BENCH_SCHEMA_VERSION,
        "unit": "decides/sec",
        "repeats": repeats,
        "requests": requests,
        "environment": _environment(),
        "rates": rates,
        "latency_us": latency_us,
        "phases": phases,
    }


def bench_train(repeats: int = DEFAULT_REPEATS, spec: dict = None) -> dict:
    """Records/sec of one Q-learning epoch over a recorded LLC stream."""
    from repro.eval.workloads import EvalConfig
    from repro.rl.trainer import (
        TrainerConfig,
        llc_stream_records,
        train_on_stream,
    )

    spec = _merged(TRAIN_BENCH, spec)
    config = EvalConfig(scale=spec["scale"],
                        trace_length=spec["trace_length"], seed=spec["seed"])
    records = llc_stream_records(config, spec["workload"])
    llc_config = config.hierarchy().llc
    trainer_config = TrainerConfig(hidden_size=spec["hidden_size"],
                                   epochs=spec["epochs"])

    def run():
        train_on_stream(llc_config, records, trainer_config)

    rate = _best_rate(run, len(records) * spec["epochs"], repeats)
    return {
        "bench": "train",
        "schema": BENCH_SCHEMA_VERSION,
        "unit": "records/sec",
        "repeats": repeats,
        "workload": spec["workload"],
        "llc_records": len(records),
        "hidden_size": spec["hidden_size"],
        "environment": _environment(),
        "rates": {"qlearner": round(rate, 1)},
        "phases": {},
    }


#: Minimum interleaved replay pairs behind the disabled-observer A/B.
OBSERVER_AB_PAIRS = 10


def observer_probes(prepared, traced: bool = False) -> list:
    """Observer machinery one replay touched: ``[]`` on the plain path.

    Replays ``prepared`` under LRU with every observer registration and
    the eviction-notification branch of :class:`~repro.cache.cache.Cache`
    replaced by recorders (``traced=True`` attaches a decision trace, so
    the probes are shown to fire when observers exist).  Deterministic:
    it names code paths, it does not time them.
    """
    from repro.cache.cache import Cache
    from repro.eval.runner import replay
    from repro.telemetry.decisions import DecisionTrace

    touched = []
    originals = {}
    for name in ("add_access_observer", "add_eviction_observer",
                 "add_decision_observer", "_notify_eviction"):
        original = originals[name] = getattr(Cache, name)

        def probe(self, *args, name=name, original=original):
            touched.append(name)
            return original(self, *args)

        setattr(Cache, name, probe)
    try:
        decisions = DecisionTrace(workload="probe") if traced else None
        replay(prepared, "lru", decisions=decisions)
    finally:
        for name, original in originals.items():
            setattr(Cache, name, original)
    return sorted(set(touched))


def _cache_without_observers():
    """:class:`~repro.cache.cache.Cache` compiled with every ``if
    self._observed:`` branch deleted: observers structurally absent."""
    import ast
    import inspect

    from repro.cache import cache as module

    class StripObserverBranches(ast.NodeTransformer):
        def visit_If(self, node):
            self.generic_visit(node)
            test = node.test
            if isinstance(test, ast.Attribute) and test.attr == "_observed":
                return node.orelse
            return node

    tree = StripObserverBranches().visit(ast.parse(inspect.getsource(module)))
    namespace = {"__name__": module.__name__}
    exec(compile(ast.fix_missing_locations(tree), module.__file__, "exec"),
         namespace)
    return namespace["Cache"]


def observer_overhead_ab(prepared, pairs: int = OBSERVER_AB_PAIRS) -> list:
    """Per-pair slowdown of LRU replays with the observer hooks present.

    Each pair replays ``prepared`` through the shipped cache (hooks
    present, none registered) and through the same cache with the hooks
    compiled out, back to back in alternating order, timed in process CPU
    time with the garbage collector paused.  Returns ``present / absent -
    1`` per pair.  Raises if the two sides simulate differently.
    """
    import gc

    from repro.eval import runner

    sides = (runner.Cache, _cache_without_observers())
    ratios = []
    results = [None, None]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for pair in range(max(1, pairs)):
            seconds = [0.0, 0.0]
            for side in (0, 1) if pair % 2 == 0 else (1, 0):
                runner.Cache = sides[side]
                started = time.process_time()
                results[side] = runner.replay(prepared, "lru")
                seconds[side] = time.process_time() - started
            ratios.append(seconds[0] / seconds[1] - 1.0)
    finally:
        runner.Cache = sides[0]
        if was_enabled:
            gc.enable()
    if results[0] != results[1]:
        raise RuntimeError("observer-free cache simulated differently")
    return ratios


def bench_overhead(repeats: int = DEFAULT_REPEATS, spec: dict = None) -> dict:
    """The disabled-path budget guards as history-tracked checks.

    Each check carries ``value``/``budget``/``ok``; the regression gate
    fails on any ``ok: false`` regardless of baseline (these are absolute
    budgets, not relative movements).  Mirrors the structural guards in
    tests/test_telemetry_overhead.py so the same invariants appear in
    every bench report.
    """
    import timeit

    from repro import telemetry
    from repro.cache.replacement import make_policy
    from repro.eval.runner import prepare_workload, replay
    from repro.eval.workloads import EvalConfig
    from repro.sanitize import wrap_policy
    from repro.telemetry.perf import PhaseProfile
    from repro.telemetry.profiling import profiled
    from repro.telemetry.registry import NULL_REGISTRY
    from repro.telemetry.spans import NULL_SPAN

    spec = _merged(OVERHEAD_BENCH, spec)
    budget = spec["budget"]
    config = EvalConfig(scale=spec["scale"],
                        trace_length=spec["trace_length"], seed=spec["seed"])
    prepared = prepare_workload(config, config.trace(spec["workload"]))

    # Mean-of-N denominator (same as the tier-1 guard): the budget bounds
    # typical replay cost, and a min-of-N denominator would tighten the
    # ratio artificially under CI load.
    started = time.perf_counter()
    result = None
    for _ in range(max(1, repeats)):
        result = replay(prepared, "lru")
    replay_seconds = (time.perf_counter() - started) / max(1, repeats)

    checks = {}

    # Telemetry hooks with telemetry disabled: one span() + one profiled()
    # call per *loop*, bounded against the smallest replay the sweep
    # engine ever schedules.
    calls = 2000
    hook_seconds = timeit.timeit(
        lambda: (telemetry.span("replay", workload="w"),
                 profiled((), "replay")),
        number=calls,
    ) / calls
    ratio = hook_seconds / replay_seconds
    checks["telemetry_hooks_disabled"] = {
        "value": round(ratio, 6), "budget": budget, "ok": ratio < budget,
        "unit": "fraction of smallest replay",
    }

    # Decision log disabled: the replay registers no observer and never
    # enters the eviction-notification branch (a traced replay does, so
    # the probes are live).  What the hooks still cost is an A/B of real
    # replays, hooks present versus compiled out: they bust the budget
    # only when present is slower by more than the budget in at least
    # nine pairs out of ten (a single pair is noise on a shared host).
    plain = (observer_probes(prepared) == []
             and "_notify_eviction" in observer_probes(prepared, traced=True))
    ratios = observer_overhead_ab(
        prepared, pairs=max(repeats, OBSERVER_AB_PAIRS)
    )
    over = sum(ratio > budget for ratio in ratios)
    checks["decision_observer_loop"] = {
        "value": round(statistics.median(ratios), 6), "budget": budget,
        "ok": plain and over < 0.9 * len(ratios),
        "pairs": len(ratios), "pairs_over_budget": over,
        "unit": "median replay slowdown, hooks present vs absent",
    }

    # profiled()/span()/registry identity: the disabled path binds the
    # exact objects telemetry-free code would.
    items = [1, 2, 3]
    generator = (item for item in items)
    identity = (
        not telemetry.is_enabled()
        and profiled(items, "replay") is items
        and profiled(generator, "replay") is generator
        and telemetry.span("replay") is NULL_SPAN
        and telemetry.get_registry() is NULL_REGISTRY
    )
    checks["profiled_disabled_identity"] = {
        "value": 1.0 if identity else 0.0, "budget": None, "ok": identity,
        "unit": "identity",
    }

    # Sanitizer off-mode identity + idempotent re-wrap.
    policy = make_policy("lru")
    wrapped = wrap_policy(make_policy("lru"), mode="normal")
    identity = (
        wrap_policy(policy, mode="off") is policy
        and wrap_policy(wrapped, mode="normal") is wrapped
    )
    checks["sanitize_off_identity"] = {
        "value": 1.0 if identity else 0.0, "budget": None, "ok": identity,
        "unit": "identity",
    }

    # Attribution profiler: bit-identical results and phase sum within 1%
    # of the loop wall time.
    profile = PhaseProfile("replay")
    profiled_result = replay(prepared, "lru", profile=profile)
    error = profile.reconciliation()["relative_error"]
    parity = profiled_result == result and error <= 0.01
    checks["profiler_parity"] = {
        "value": round(error, 6), "budget": 0.01, "ok": parity,
        "unit": "phase-sum relative error",
    }

    return {
        "bench": "overhead",
        "schema": BENCH_SCHEMA_VERSION,
        "unit": "budget checks",
        "repeats": repeats,
        "workload": spec["workload"],
        "budget": budget,
        "environment": _environment(),
        "rates": {},
        "checks": checks,
    }


BENCHES = {
    "replay": (bench_replay, "BENCH_replay.json"),
    "objcache": (bench_objcache, "BENCH_objcache.json"),
    "serve": (bench_serve, "BENCH_serve.json"),
    "train": (bench_train, "BENCH_train.json"),
    "overhead": (bench_overhead, "BENCH_overhead.json"),
}


def write_bench(name: str, output_dir=".", repeats: int = DEFAULT_REPEATS,
                spec: dict = None):
    """Run one named benchmark and write its JSON snapshot; returns
    ``(payload, path)``."""
    from repro.runs.atomic import atomic_write_text

    run, filename = BENCHES[name]
    payload = run(repeats=repeats, spec=spec)
    path = Path(output_dir) / filename
    atomic_write_text(path, json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return payload, path


def capture_flamegraph(name: str, spec: dict = None) -> str:
    """One cProfile'd bench run folded into flamegraph lines.

    Opt-in (``repro bench --profile``): runs the bench once (repeats=1)
    under cProfile and returns collapsed-stack text any folded-format
    flamegraph renderer can draw.
    """
    from repro.telemetry.perf import capture_collapsed

    run, _ = BENCHES[name]
    _, folded = capture_collapsed(lambda: run(repeats=1, spec=spec))
    return folded
