"""One workload in a fresh process: set up, say READY, measure, report.

``run.py`` starts this script and times it from launch to the READY line
(the set-up a user waits for, imports included).  A set-up-only start stops
there.  Otherwise passes run until ``--seconds`` have gone by; the last
line of standard output is a JSON report.

The first pass is a warm-up: its outputs are checked, its times are not
used.  Untraced passes give the end-to-end numbers: medians over passes
of host times scaled by the host's speed around each pass (see
``calibration.py``).  With ``--trace 1`` traced passes alternate with
untraced ones, so the tracing overhead is measured on the same machine
state, and the per-layer numbers are medians over the traced passes.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time

from calibration import reference_seconds, speed_factor
from tracing import Tracer
from workloads import WORKLOADS, Probe, digest

#: Timed passes, not counting the warm-up.
MIN_PASSES = 3
MIN_TRACED_PASSES = 2


def nearest_rank(sorted_values, percentile: float) -> float:
    rank = max(1, -(-len(sorted_values) * percentile // 100))
    return sorted_values[int(rank) - 1]


def decide_percentile(streams: dict, percentile: float) -> float:
    """Geometric mean over input streams of each stream's percentile, µs,
    for the decides of one pass.

    Decide costs differ by stream (an object cache's resident count sets
    RLR's candidate window), so a percentile of pooled decides would move
    with each seed's share of evictions per stream.
    """
    ranks = [nearest_rank(sorted(seconds), percentile)
             for seconds in streams.values() if seconds]
    return statistics.geometric_mean(ranks) * 1e6 if ranks else 0.0


def measure(workload, seconds: float, trace: bool, spans_path) -> dict:
    warmup = workload.run_pass(Probe(None))
    gc.collect()
    passes = []  # (traced, PassResult), timed
    decide_p50s = []  # per untraced pass, calibrated µs
    decide_counts = {}  # stream -> decides timed, untraced passes
    last_tracer = None
    problems = list(warmup.problems)
    deadline = time.perf_counter() + seconds
    reference = reference_seconds()
    while True:
        traced = trace and len(passes) % 2 == 1
        probe = Probe(Tracer() if traced else None)
        result = workload.run_pass(probe)
        before, reference = reference, reference_seconds()
        result.speed = speed_factor(before, reference)
        passes.append((traced, result))
        # Each pass starts from a collected heap, as a one-pass process
        # would; otherwise peak RSS would depend on how many passes ran.
        gc.collect()
        if traced:
            last_tracer = probe.tracer
            problems += probe.tracer.nesting_problems()[:5]
        else:
            if probe.decides:
                decide_p50s.append(decide_percentile(probe.decides, 50)
                                   * result.speed)
            for stream, seconds in probe.decides.items():
                decide_counts[stream] = (decide_counts.get(stream, 0)
                                         + len(seconds))
        need = 2 * MIN_TRACED_PASSES if trace else MIN_PASSES
        if len(passes) >= need and time.perf_counter() >= deadline:
            break

    first = digest(warmup.stats)
    for index, (traced, result) in enumerate(passes, start=1):
        problems += result.problems
        if digest(result.stats) != first:
            kind = "traced" if traced else "untraced"
            problems.append(
                f"pass {index} ({kind}) simulated statistics differ from "
                f"the warm-up pass"
            )
    plain = [result for traced, result in passes if not traced]
    walls = [result.wall * result.speed for result in plain]
    report = {
        "attempted": warmup.attempted + sum(r.attempted for _, r in passes),
        "failed": warmup.failed + sum(r.failed for _, r in passes),
        "problems": sorted(set(problems)),
        "digest": first,
        "passes": 1 + len(passes),
        "metrics": {},
        "samples": {},
    }
    if trace:
        traced_results = [result for traced, result in passes if traced]
        layers = {
            name: statistics.median(
                result.layers.get(name, 0.0) for result in traced_results
            )
            for name in traced_results[0].layers
        }
        traced_wall = statistics.median(
            r.wall * r.speed for r in traced_results
        )
        layers["tracing.overhead_pct"] = (
            traced_wall / statistics.median(walls) - 1.0
        ) * 100.0
        report["metrics"] = layers
        report["samples"] = {
            "traced passes": len(traced_results),
            "untraced passes": len(walls),
            "spans in the last traced pass": len(last_tracer),
        }
        last_tracer.write(spans_path)
        return report
    report["metrics"] = {
        "wall_s": statistics.median(walls),
        "work_per_s": statistics.median(
            r.units / (r.wall * r.speed) for r in plain
        ),
        "decide_p50_us": (statistics.median(decide_p50s)
                          if decide_p50s else 0.0),
    }
    report["samples"] = {"passes": len(walls)}
    report["samples"].update(
        (f"{stream} decides", count)
        for stream, count in sorted(decide_counts.items())
    )
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    try:
        workload.setup()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        workload.prepare_checks()
        report = measure(workload, args.seconds, bool(args.trace), args.spans)
    finally:
        workload.close()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_kb += getattr(workload, "server_maxrss_kb", 0)
    if not args.trace:
        report["metrics"]["peak_rss_mb"] = rss_kb / 1024.0
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
