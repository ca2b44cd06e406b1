"""The repository benchmark: one workload, measured end to end or per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cpu-sweep-cold --seed 7 \\
        --seconds 10 --trace 0

``BENCHMARK.json`` names the workloads and metrics.  Each workload runs in
fresh processes with a pinned environment: the program's own environment
switches cleared, one BLAS thread, a fixed hash seed.  Set-up is timed from
process launch to the worker's READY line in several set-up-only
processes, scaled by the host's speed (``calibration.py``), and reported
as the median.  A further process then measures.  The last
line printed is the JSON result; ``correct`` is false when any output check
failed, including, on the default seed, the digest of every simulated
statistic against ``perfbench/expected.json``.

``--bless`` records the digest for the default seed.  ``--faults`` installs
a ``REPRO_FAULTS`` spec list in the workload's processes, so the tests can
show that injected faults are counted as failed operations.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from calibration import reference_seconds, speed_factor

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 7
SETUP_REPEATS = 3
#: Every run ends well inside three minutes, or is stopped.
TIME_LIMIT_S = 170.0
#: The program's environment switches; a run must not inherit them.
CLEARED_ENV = (
    "REPRO_SANITIZE", "REPRO_FAULTS", "REPRO_FAULTS_STATE",
    "REPRO_PREP_CACHE", "REPRO_SCENARIO_DIR", "REPRO_GOLDEN_DIR",
)
THREAD_ENV = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
EXPECTED = HERE / "expected.json"


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env(faults, state_dir) -> dict:
    env = {key: value for key, value in os.environ.items()
           if key not in CLEARED_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for name in THREAD_ENV:
        env[name] = "1"
    if faults:
        env["REPRO_FAULTS"] = faults
        env["REPRO_FAULTS_STATE"] = str(state_dir)
    return env


def pin_to_one_cpu() -> None:
    """Run this process and every process it starts on one CPU.

    Every workload is single-threaded, and serve-replay's client and server
    take turns (a closed loop), so one CPU is enough.  Sharing it turns
    each hand-over between them into a local switch, which measured
    steadier than a wake-up sent to the other CPU.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_worker(args, workdir: Path, setup_only: bool, deadline: float):
    """Start one worker; returns ``(setup seconds, report or None)``."""
    spans = ROOT / ".perfbench" / "spans" / f"{args.workload}.spans"
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir), "--spans", str(spans),
    ]
    if setup_only:
        command.append("--setup-only")
    started = time.perf_counter()
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, cwd=ROOT,
        env=child_env(args.faults, workdir / "faults"),
    )
    # A stopped worker's policy server sees its stdin close and exits.
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()),
                               process.kill)
    watchdog.start()
    try:
        ready = process.stdout.readline()
        setup_seconds = time.perf_counter() - started
        rest = process.stdout.read().decode("utf-8", "replace")
        code = process.wait()
    finally:
        watchdog.cancel()
        process.stdout.close()
        if process.poll() is None:
            process.kill()
            process.wait()
    if ready.strip() != b"READY":
        raise BenchError(f"{args.workload}: set-up failed (exit {code})")
    if code != 0:
        raise BenchError(f"{args.workload}: worker exited with {code}")
    if setup_only:
        return setup_seconds, None
    lines = [line for line in rest.splitlines() if line.strip()]
    if not lines:
        raise BenchError(f"{args.workload}: worker printed no report")
    return setup_seconds, json.loads(lines[-1])


def digest_problems(args, report) -> list:
    if args.seed != DEFAULT_SEED:
        return []
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    if args.bless:
        expected[args.workload] = report["digest"]
        EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True)
                            + "\n")
    want = expected.get(args.workload)
    if want is None:
        return [f"no expected digest for {args.workload} in {EXPECTED.name}"]
    if want != report["digest"]:
        return [f"simulated statistics digest {report['digest'][:16]} "
                f"differs from the expected {want[:16]}"]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--bless", action="store_true",
                        help="record the default seed's statistics digest")
    parser.add_argument("--faults", default=None,
                        help="REPRO_FAULTS spec list (JSON) to inject")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.bless and args.seed != DEFAULT_SEED:
        print(f"error: --bless needs the default seed {DEFAULT_SEED}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    pin_to_one_cpu()
    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = ROOT / ".perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    repeats = 0 if args.trace else SETUP_REPEATS
    setups = []
    try:
        reference = reference_seconds()
        for attempt in range(repeats):
            seconds, _ = run_worker(args, workdir / str(attempt),
                                    setup_only=True, deadline=deadline)
            before, reference = reference, reference_seconds()
            setups.append(seconds * speed_factor(before, reference))
        _, report = run_worker(args, workdir / "measure", setup_only=False,
                               deadline=deadline)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = dict(report["metrics"])
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        # Layers a workload never enters read 0 (no time, no calls).
        values = {m["name"]: values.get(m["name"], 0.0) for m in wanted}
    else:
        values["setup_s"] = statistics.median(setups)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    problems = report["problems"] + digest_problems(args, report)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    samples = dict(report["samples"])
    if not args.trace:
        samples["set-ups"] = len(setups)
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"passes={report['passes']} samples: "
          + ", ".join(f"{key}={value}" for key, value in samples.items()))
    for metric in wanted:
        print(f"  {metric['name']:40s} {values[metric['name']]:14.6g} "
              f"{metric['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
