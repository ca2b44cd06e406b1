"""The benchmark's four workloads, driven through the program's public calls.

Each workload has a ``setup`` (what a user pays before the first result:
imports, input generation, server start) and a ``run_pass`` (one pass of
the operation the user waits for).  A pass
returns its wall time, its simulated statistics, and what it attempted and
failed; when handed a tracer it also returns the per-layer numbers, read
from spans that wrappers installed around public calls recorded.

Sizes are fixed here, so a seed alone fixes every simulated statistic.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from array import array
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from tracing import Patches, timed

#: Five models spanning the access classes: reuse, pointer chase,
#: streaming, mixed, and a multi-PC server.
SWEEP_MODELS = ("403.gcc", "429.mcf", "470.lbm", "483.xalancbmk", "cassandra")
SWEEP_POLICIES = ("lru", "srrip", "drrip", "ship++", "hawkeye", "rlr")
SWEEP_SIZE = {"scale": 16, "trace_length": 4000}

OBJCACHE_POLICIES = ("lru", "gdsf", "rlr", "rlr_size")
#: The two golden object-cache shapes (scenarios/objcache), shortened.
OBJCACHE_SHAPES = (
    {
        "name": "zipf-inverse", "kind": "zipf", "objects": 4000,
        "length": 8000, "alpha": 1.0, "capacity_bytes": 12_000_000,
        "sizes": {"dist": "lognormal", "min": 256, "max": 1 << 20,
                  "correlate": "inverse"},
        "params": {}, "admission": None,
    },
    {
        "name": "flash-crowd", "kind": "flash_crowd", "objects": 3000,
        "length": 8000, "alpha": 0.9, "capacity_bytes": 6_000_000,
        "sizes": {"dist": "lognormal", "min": 512, "max": 524288},
        "params": {"burst_start": 0.5, "burst_length": 0.25,
                   "burst_fraction": 0.6},
        "admission": "freq_gate",
    },
)

SERVE_SIZE = {"model": "483.xalancbmk", "scale": 64, "trace_length": 1500}
SERVE_POLICIES = ("lru", "rlr")

#: The paper's network: 334 Table II inputs, 175 hidden units.
TRAIN_SIZE = {"model": "429.mcf", "scale": 16, "trace_length": 5000,
              "hidden_size": 175}

if os.environ.get("PERFBENCH_SMOKE") == "1":
    # Tiny sizes for the benchmark's own tests; measured runs never set it.
    SWEEP_SIZE = {"scale": 64, "trace_length": 800}
    OBJCACHE_SHAPES = tuple(
        dict(shape, length=1000, capacity_bytes=shape["capacity_bytes"] // 8)
        for shape in OBJCACHE_SHAPES
    )
    SERVE_SIZE = dict(SERVE_SIZE, trace_length=500)
    TRAIN_SIZE = dict(TRAIN_SIZE, scale=64, trace_length=1200, hidden_size=16)

CPU_HOOKS = ("on_hit", "on_miss", "on_fill", "on_evict")

#: Whose decide latency the end-to-end percentiles report: RLR, and the RL
#: agent on rl-train.  Policies decide at costs orders of magnitude apart,
#: so percentiles over pooled decides would move with each seed's mix.
LEARNED_POLICIES = ("rlr", "agent")


def metric_policy(name: str) -> str:
    """A policy name usable inside a metric name (no ``+``)."""
    return name.replace("++", "_pp").replace("+", "_p")


def digest(stats) -> str:
    text = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Probe:
    """What one pass records: decide latencies, or spans when traced."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        #: decide seconds of the learned policy, per input stream
        self.decides = {}
        self.counts = {}
        self.patches = Patches()
        #: True while pass 1 runs: its hierarchy caches are not measured
        #: as replacement decisions.
        self.in_prepare = False

    def span(self, name: str):
        return nullcontext() if self.tracer is None else self.tracer.span(name)

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def decide(self, fn, policy: str, name: str, stream: str = ""):
        """``fn`` traced as span ``name``; untraced, the learned policy's
        decides are timed per input ``stream`` and every other policy runs
        unwrapped."""
        if self.tracer is not None:
            return self.tracer.wrap(fn, name)
        if policy in LEARNED_POLICIES:
            key = f"{policy} {stream}".strip()
            return timed(fn, self.decides.setdefault(key, array("d")))
        return fn

    def restore(self) -> None:
        self.patches.restore()


@dataclass
class PassResult:
    wall: float  #: host seconds of the pass's operation
    units: int  #: work units done (the workload's work_per_s unit)
    stats: dict  #: every simulated statistic (compared across passes)
    attempted: int
    failed: int
    problems: list  #: failed output checks
    layers: dict = None  #: per-layer numbers of a traced pass
    speed: float = 1.0  #: host-speed scale (see calibration.py)


def _seconds(totals, name) -> float:
    return totals.get(name, (0, 0.0, 0.0))[1]


def _self_seconds(totals, name) -> float:
    return totals.get(name, (0, 0.0, 0.0))[2]


def _calls(totals, name) -> int:
    return totals.get(name, (0, 0.0, 0.0))[0]


def _per(total_seconds, units) -> float:
    """Nanoseconds per unit."""
    return total_seconds / units * 1e9 if units else 0.0


def _instrument_cpu_policies(probe: Probe) -> None:
    """Wrap every CPU replacement policy as the sanitizer takes it in.

    All replays wrap their policy in ``CheckedPolicy`` (the default
    ``normal`` sanitizer mode), so its constructor sees each policy
    instance once, before the cache binds the hooks.  The wrappers are set
    on the instance, so a policy calling its base class counts once.
    """
    from repro.sanitize.policy_guard import CheckedPolicy

    original = CheckedPolicy.__init__

    def init(self, policy, *args, **kwargs):
        if probe.in_prepare:
            return original(self, policy, *args, **kwargs)
        name = metric_policy(policy.name)
        # Replays run in a fixed order, so the n-th instance of a policy
        # in every pass replays the same input stream.
        stream = str(probe.counts.get(f"instances.{name}", 0))
        probe.count(f"instances.{name}", 1)
        policy.victim = probe.decide(
            policy.victim, name, f"replacement.victim.{name}", stream
        )
        if probe.tracer is not None:
            for hook in CPU_HOOKS:
                setattr(policy, hook, probe.tracer.wrap(
                    getattr(policy, hook), f"replacement.hooks.{name}"
                ))
        original(self, policy, *args, **kwargs)

    probe.patches.set(CheckedPolicy, "__init__", init)


def _cpu_stats(result) -> dict:
    return {"llc": result.llc_stats, "ipc": result.ipc}


def _cpu_problems(label: str, llc_stats: dict) -> list:
    from repro.scenarios.runner import conservation_problems

    return [f"{label}: {problem}"
            for problem in conservation_problems(llc_stats)]


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = Path(workdir)

    def setup(self) -> None:
        """Timed set-up: everything before the first pass can start."""

    def prepare_checks(self) -> None:
        """Untimed: reference results the pass checks compare against."""

    def run_pass(self, probe: Probe) -> PassResult:
        raise NotImplementedError

    def close(self) -> None:
        """Stop whatever the workload started."""


# -- CPU sweeps ---------------------------------------------------------------


class CpuSweepCold(Workload):
    """``repro sweep``'s path on a fresh checkout: a run directory with its
    journal, then ``parallel_sweep(jobs=1)`` with an empty prep cache over
    the five models and every policy plus Belady, then the report write."""

    name = "cpu-sweep-cold"

    def _config(self):
        from repro.eval.workloads import EvalConfig

        return EvalConfig(seed=self.seed, **SWEEP_SIZE)

    def setup(self) -> None:
        import repro.eval.parallel  # noqa: F401  (the import is set-up)

        self.run_root = self.workdir / "runs"
        self.cache_dir = self.workdir / "prep-cache"

    def _install(self, probe: Probe) -> None:
        from repro.eval import parallel, workloads
        from repro.eval.prep_cache import PrepCache
        from repro.runs.journal import RunJournal

        _instrument_cpu_policies(probe)
        tracer = probe.tracer
        patches = probe.patches

        def prepare_wrapper(fn):
            if tracer is not None:
                fn = tracer.wrap(fn, "hierarchy.prepare")

            def prepare(eval_config, trace, *args, **kwargs):
                probe.count("hierarchy.records", len(trace.records))
                probe.in_prepare = True
                try:
                    return fn(eval_config, trace, *args, **kwargs)
                finally:
                    probe.in_prepare = False

            return prepare

        patches.wrap(parallel, "prepare_workload", prepare_wrapper)
        if tracer is None:
            return
        patches.wrap(workloads, "build_trace",
                     lambda fn: tracer.wrap(fn, "traces.build"))
        patches.wrap(parallel, "workload_cache_key",
                     lambda fn: tracer.wrap(fn, "prep_cache.key"))
        patches.wrap(PrepCache, "load",
                     lambda fn: tracer.wrap(fn, "prep_cache.load"))
        patches.wrap(PrepCache, "store",
                     lambda fn: tracer.wrap(fn, "prep_cache.store"))
        patches.wrap(RunJournal, "append",
                     lambda fn: tracer.wrap(fn, "runs.journal"))

        def replay_wrapper(fn):
            def span_name(prepared, policy, *args, **kwargs):
                name = policy if isinstance(policy, str) else policy.name
                name = metric_policy(name)
                probe.count(f"replay.accesses.{name}",
                            len(prepared.llc_records))
                return f"replay.{name}"

            return tracer.wrap_named(fn, span_name)

        patches.wrap(parallel, "replay", replay_wrapper)

    def run_pass(self, probe: Probe) -> PassResult:
        from repro.eval.parallel import parallel_sweep
        from repro.runs.supervisor import create_run

        cache_dir = self.cache_dir
        config = self._config()
        self._install(probe)
        try:
            started = time.perf_counter()
            with probe.span("sweep"):
                with probe.span("runs.run_dir"):
                    run = create_run(self.run_root, {
                        "kind": "sweep",
                        "args": {"models": list(SWEEP_MODELS),
                                 "policies": list(SWEEP_POLICIES),
                                 "seed": self.seed, **SWEEP_SIZE},
                    })
                    journal = run.journal()
                with probe.span("parallel.sweep"):
                    report = parallel_sweep(
                        config, SWEEP_MODELS, SWEEP_POLICIES, jobs=1,
                        include_belady=True, cache_dir=cache_dir,
                        journal=journal,
                    )
                with probe.span("runs.run_dir"):
                    run.write_report(report.to_csv())
                    run.mark("failed" if report.failures() else "complete")
            wall = time.perf_counter() - started
        finally:
            probe.restore()
        shutil.rmtree(self.run_root, ignore_errors=True)
        shutil.rmtree(cache_dir, ignore_errors=True)
        return self._result(report, wall, probe)

    def _result(self, report, wall, probe) -> PassResult:
        stats, problems, failed, units = {}, [], 0, 0
        hit_rates = {}
        for cell in report.cells:
            label = f"{cell.workload}/{cell.policy}"
            if not cell.ok or cell.violations:
                failed += 1
                problems.append(f"{label}: cell {cell.status}")
                continue
            stats[label] = _cpu_stats(cell.result)
            problems += _cpu_problems(label, cell.result.llc_stats)
            units += cell.result.llc_stats["accesses"]
            hit_rates.setdefault(cell.workload, {})[cell.policy] = (
                cell.result.llc_hit_rate
            )
        for model, rates in hit_rates.items():
            optimum = rates.get("belady")
            for policy, rate in rates.items():
                if optimum is not None and rate > optimum + 1e-9:
                    problems.append(
                        f"{model}/{policy}: hit rate {rate:.4f} exceeds "
                        f"Belady's {optimum:.4f}"
                    )
        expected_cells = len(SWEEP_MODELS) * (len(SWEEP_POLICIES) + 1)
        if len(report.cells) != expected_cells:
            problems.append(
                f"sweep returned {len(report.cells)} cells, "
                f"expected {expected_cells}"
            )
        layers = None
        if probe.tracer is not None:
            layers = self._layers(probe, report, stats)
        return PassResult(wall, units, stats, len(report.cells), failed,
                          problems, layers)

    def _layers(self, probe, report, stats) -> dict:
        totals = probe.tracer.totals()
        counts = probe.counts
        prepare_s = _seconds(totals, "hierarchy.prepare")
        layers = {
            "traces.build_s": _seconds(totals, "traces.build"),
            "hierarchy.prepare_s": prepare_s,
            "hierarchy.ns_per_record": _per(
                prepare_s, counts.get("hierarchy.records", 0)
            ),
            "prep_cache.key_s": _seconds(totals, "prep_cache.key"),
            "prep_cache.load_s": _seconds(totals, "prep_cache.load"),
            "prep_cache.store_s": _seconds(totals, "prep_cache.store"),
            "runs.journal_s": (_seconds(totals, "runs.journal")
                               + _seconds(totals, "runs.run_dir")),
            "parallel.other_s": _self_seconds(totals, "parallel.sweep"),
        }
        for policy in SWEEP_POLICIES + ("belady",):
            name = metric_policy(policy)
            replay_s = _seconds(totals, f"replay.{name}")
            layers[f"replay.{name}.ns_per_access"] = _per(
                replay_s, counts.get(f"replay.accesses.{name}", 0)
            )
            layers[f"cache.{name}.self_s"] = _self_seconds(
                totals, f"replay.{name}"
            )
            layers[f"replacement.{name}.victim_s"] = _seconds(
                totals, f"replacement.victim.{name}"
            )
            layers[f"replacement.{name}.hooks_s"] = _seconds(
                totals, f"replacement.hooks.{name}"
            )
            layers[f"replacement.{name}.victims"] = _calls(
                totals, f"replacement.victim.{name}"
            )
        layers["replay.rlr_ipc_speedup_pct"] = rlr_ipc_speedup_pct(stats)
        return layers


def rlr_ipc_speedup_pct(stats: dict) -> float:
    """Geomean simulated IPC speedup of rlr over lru across the models
    (statistics start after the 20% warm-up)."""
    logs = []
    for model in SWEEP_MODELS:
        rlr = stats.get(f"{model}/rlr")
        lru = stats.get(f"{model}/lru")
        if rlr is None or lru is None or lru["ipc"][0] <= 0:
            return 0.0
        logs.append(math.log(rlr["ipc"][0] / lru["ipc"][0]))
    return (math.exp(sum(logs) / len(logs)) - 1.0) * 100.0


# -- object cache -------------------------------------------------------------


class ObjcacheReplay(Workload):
    """Both golden object-cache shapes through every object policy."""

    name = "objcache-replay"

    def setup(self) -> None:
        from repro.objcache import generate_object_trace

        self.traces = [
            generate_object_trace(
                name=shape["name"], kind=shape["kind"],
                objects=shape["objects"], length=shape["length"],
                seed=self.seed, alpha=shape["alpha"], sizes=shape["sizes"],
                **shape["params"],
            )
            for shape in OBJCACHE_SHAPES
        ]

    def run_pass(self, probe: Probe) -> PassResult:
        from repro.objcache import (
            ObjectCache,
            make_admission,
            make_object_policy,
        )

        tracer = probe.tracer
        caches, problems, failed, attempted = [], [], 0, 0
        started = time.perf_counter()
        for shape, trace in zip(OBJCACHE_SHAPES, self.traces):
            for policy_name in OBJCACHE_POLICIES:
                label = f"{shape['name']}/{policy_name}"
                policy = make_object_policy(policy_name)
                policy.victim = probe.decide(
                    policy.victim, policy_name,
                    f"objcache.victim.{policy_name}", shape["name"],
                )
                admission = None
                if shape["admission"]:
                    admission = make_admission(shape["admission"])
                    if tracer is not None:
                        for method in ("record", "admit"):
                            setattr(admission, method, tracer.wrap(
                                getattr(admission, method),
                                "objcache.admission",
                            ))
                cache = ObjectCache(shape["capacity_bytes"], policy,
                                    admission=admission)
                attempted += len(trace.requests)
                try:
                    with probe.span(f"objcache.replay.{policy_name}"):
                        cache.replay(trace.requests)
                except Exception as error:  # counted, reported, not fatal
                    failed += len(trace.requests)
                    problems.append(f"{label}: replay raised {error!r}")
                    continue
                caches.append((label, cache))
        wall = time.perf_counter() - started
        stats = {}
        for label, cache in caches:
            stats[label] = cache.stats.as_dict()
            problems += [f"{label}: {problem}"
                         for problem in cache.check_conservation()]
        layers = None
        if tracer is not None:
            totals = tracer.totals()
            layers = {"objcache.admission_s": _seconds(
                totals, "objcache.admission")}
            requests = sum(len(trace.requests) for trace in self.traces)
            for policy_name in OBJCACHE_POLICIES:
                layers[f"objcache.{policy_name}.ns_per_request"] = _per(
                    _seconds(totals, f"objcache.replay.{policy_name}"),
                    requests,
                )
                layers[f"objcache.{policy_name}.victim_s"] = _seconds(
                    totals, f"objcache.victim.{policy_name}"
                )
        return PassResult(wall, attempted, stats, attempted, failed,
                          problems, layers)


# -- served replay ------------------------------------------------------------


class ServeReplay(Workload):
    """One prepared LLC stream replayed through ``ServerBackedPolicy``.

    The policy server runs in its own process; one client with one
    connection per policy drives a closed loop, so every eviction waits
    for its decide.
    """

    name = "serve-replay"

    def setup(self) -> None:
        from repro.eval.runner import prepare_workload
        from repro.eval.workloads import EvalConfig
        from repro.serve.client import PolicyClient

        config = EvalConfig(seed=self.seed, scale=SERVE_SIZE["scale"],
                            trace_length=SERVE_SIZE["trace_length"])
        self.prepared = prepare_workload(
            config, config.trace(SERVE_SIZE["model"])
        )
        self.server_maxrss_kb = 0
        script = Path(__file__).with_name("serve_process.py")
        self.server = subprocess.Popen(
            [sys.executable, str(script)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        line = self.server.stdout.readline()
        if not line:
            raise RuntimeError("policy server exited before reporting a port")
        self.port = json.loads(line)["port"]
        client = PolicyClient("127.0.0.1", self.port)
        try:
            if client.ping() is None:
                raise RuntimeError("policy server does not answer")
        finally:
            client.close()

    def prepare_checks(self) -> None:
        from repro.eval.runner import replay

        self.reference = {
            policy: _cpu_stats(replay(self.prepared, policy))
            for policy in SERVE_POLICIES
        }

    def _install(self, probe: Probe) -> None:
        _instrument_cpu_policies(probe)
        tracer = probe.tracer
        if tracer is None:
            return
        from repro.serve.client import PolicyClient

        probe.patches.wrap(
            PolicyClient, "request",
            lambda fn: tracer.wrap_named(
                fn, lambda client, frame: f"serve.request.{frame.get('op')}"
            ),
        )
        probe.patches.wrap(PolicyClient, "send",
                           lambda fn: tracer.wrap(fn, "serve.send"))

    def run_pass(self, probe: Probe) -> PassResult:
        from repro.eval.runner import replay
        from repro.serve.client import ServerBackedPolicy

        stats, problems, attempted, failed = {}, [], 0, 0
        self._install(probe)
        try:
            started = time.perf_counter()
            for policy_name in SERVE_POLICIES:
                policy = ServerBackedPolicy(policy_name, "127.0.0.1",
                                            self.port)
                try:
                    with probe.span(f"replay.{policy_name}"):
                        result = replay(self.prepared, policy)
                    client = policy._client
                    attempted += policy._seq  # one per victim request
                    failed += (policy.local_fallbacks + policy.server_fallbacks
                               + (client.transport_failures if client else 0))
                finally:
                    policy.close()
                stats[policy_name] = _cpu_stats(result)
            wall = time.perf_counter() - started
        finally:
            probe.restore()
        for policy_name, served in stats.items():
            problems += _cpu_problems(policy_name, served["llc"])
            if served != self.reference[policy_name]:
                problems.append(
                    f"{policy_name}: served replay differs from the "
                    f"in-process replay"
                )
        units = len(self.prepared.llc_records) * len(SERVE_POLICIES)
        layers = None
        if probe.tracer is not None:
            totals = probe.tracer.totals()
            decides = _calls(totals, "serve.request.victim")
            requests = sum(calls for name, (calls, _, _) in totals.items()
                           if name.startswith("serve.request."))
            layers = {
                "serve.decide_s": _seconds(totals, "serve.request.victim"),
                "serve.hook_send_s": _seconds(totals, "serve.send"),
                "serve.cache_self_s": sum(
                    _self_seconds(totals, f"replay.{name}")
                    for name in SERVE_POLICIES
                ),
                "serve.decides": decides,
                "serve.frames": requests + _calls(totals, "serve.send"),
            }
        return PassResult(wall, units, stats, attempted, failed, problems,
                          layers)

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is None:
            return
        try:
            tail, _ = server.communicate(timeout=20)  # closes its stdin
        except subprocess.TimeoutExpired:
            server.kill()
            server.communicate()
            return
        for line in tail.splitlines():
            if line.startswith(b"{"):
                self.server_maxrss_kb = json.loads(line).get("maxrss_kb", 0)


# -- RL training --------------------------------------------------------------


class RlTrain(Workload):
    """One Q-learning epoch at the paper's network size over the recorded
    LLC stream of 429.mcf."""

    name = "rl-train"

    def setup(self) -> None:
        from repro.eval.runner import prepare_workload
        from repro.eval.workloads import EvalConfig
        import repro.rl.trainer  # noqa: F401  (the import is set-up)

        config = EvalConfig(seed=self.seed, scale=TRAIN_SIZE["scale"],
                            trace_length=TRAIN_SIZE["trace_length"])
        prepared = prepare_workload(config, config.trace(TRAIN_SIZE["model"]))
        self.records = prepared.llc_records
        self.llc_config = prepared.llc_config

    def _install(self, probe: Probe) -> None:
        from repro.rl.features import FeatureExtractor
        from repro.rl.network import MLP
        from repro.rl.policy_adapter import AgentReplacementPolicy
        from repro.rl.replay import ReplayMemory

        tracer = probe.tracer
        patches = probe.patches
        if tracer is None:
            patches.wrap(AgentReplacementPolicy, "victim",
                         lambda fn: probe.decide(fn, "agent", ""))
            return
        for owner, method, name in (
            (FeatureExtractor, "vector", "rl.features"),
            (MLP, "forward", "rl.forward"),
            (MLP, "train_batch", "rl.train_step"),
            (MLP, "train_batch_full", "rl.train_step"),
            (ReplayMemory, "push", "rl.replay_memory"),
            (ReplayMemory, "sample", "rl.replay_memory"),
        ):
            patches.wrap(owner, method,
                         lambda fn, name=name: tracer.wrap(fn, name))

    def run_pass(self, probe: Probe) -> PassResult:
        from repro.rl.trainer import TrainerConfig, train_on_stream

        config = TrainerConfig(hidden_size=TRAIN_SIZE["hidden_size"],
                               epochs=1, seed=self.seed)
        self._install(probe)
        try:
            started = time.perf_counter()
            with probe.span("rl.epoch"):
                trained = train_on_stream(self.llc_config, self.records,
                                          config)
            wall = time.perf_counter() - started
        finally:
            probe.restore()
        agent = trained.agent
        losses = [float(loss) for loss in agent.losses]
        problems = []
        if not all(math.isfinite(loss) for loss in losses):
            problems.append("training loss is not finite")
        if not losses:
            problems.append("no training step ran")
        stats = {
            "hit_rate": trained.train_hit_rate,
            "decisions": agent.decisions,
            "train_steps": agent.train_steps,
            "losses": losses,
        }
        units = len(self.records)
        layers = None
        if probe.tracer is not None:
            totals = probe.tracer.totals()
            parts = {
                "rl.features_s": _seconds(totals, "rl.features"),
                "rl.forward_s": _seconds(totals, "rl.forward"),
                "rl.train_step_s": _seconds(totals, "rl.train_step"),
                "rl.replay_memory_s": _seconds(totals, "rl.replay_memory"),
            }
            layers = dict(parts)
            layers["rl.cache_self_s"] = (
                _seconds(totals, "rl.epoch") - sum(parts.values())
            )
        return PassResult(wall, units, stats, units,
                          units if problems else 0, problems, layers)


WORKLOADS = {
    cls.name: cls
    for cls in (CpuSweepCold, ObjcacheReplay, ServeReplay, RlTrain)
}
