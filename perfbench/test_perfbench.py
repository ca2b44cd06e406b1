"""The benchmark's own tests: tiny-size smoke runs of every workload.

Run from the repository root with ``python3 -m pytest perfbench -q``.
``PERFBENCH_SMOKE=1`` shrinks every input, so each run takes seconds; a
non-default seed skips the digest check, which holds only at full size.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(workload, trace=0, seed=3, faults=None, root=ROOT):
    command = [sys.executable, str(root / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", "0", "--trace", str(trace)]
    if faults is not None:
        command += ["--faults", json.dumps(faults)]
    env = dict(os.environ, PERFBENCH_SMOKE="1")
    return subprocess.run(command, cwd=root, env=env, capture_output=True,
                          text=True, timeout=170)


def result_of(completed) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= SPEC["run_seconds"] <= 60
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"]
                         + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in SPEC["end_to_end"])
            } in SPEC["end_to_end"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_end_to_end_metric(workload):
    result = result_of(bench(workload))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"],
                    "unit": m["unit"]}
        for m in SPEC["end_to_end"]
    }
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced_run_reports_every_layer_metric(workload):
    # A traced run fails its own checks when traced statistics differ
    # from untraced ones or when its spans do not nest.
    result = result_of(bench(workload, trace=1))
    assert result["correct"] is True
    assert [(name, entry["unit"]) for name, entry in
            result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in SPEC["per_layer"]
    ]
    spans = ROOT / ".perfbench" / "spans" / f"{workload}.spans"
    header = json.loads(spans.read_bytes().split(b"\n", 1)[0])
    assert header["spans"] > 0


def test_hang_until_deadline_decides_count_as_failed():
    fault = {"site": "serve.decide", "action": "hang_until_deadline",
             "match": {"policy": "rlr"}, "times": 3}
    result = result_of(bench("serve-replay", faults=[fault]))
    assert result["failed"] >= 3


def test_replay_error_counts_as_failed_cell():
    fault = {"site": "replay", "action": "error",
             "match": {"policy": "rlr"}, "times": 1}
    result = result_of(bench("cpu-sweep-cold", faults=[fault]))
    assert result["failed"] == 1
    assert result["correct"] is False


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = bench("cpu-sweep-cold", root=tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_self_time_excludes_children(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr("tracing.time.perf_counter",
                        lambda: float(next(ticks)))
    tracer = Tracer()
    leaf = tracer.wrap(lambda: None, "leaf")
    with tracer.span("root"):  # 0 to 9
        leaf()  # 1 to 2
        with tracer.span("mid"):  # 3 to 6
            leaf()  # 4 to 5
        leaf()  # 7 to 8
    totals = tracer.totals()
    assert totals["leaf"] == (3, 3.0, 3.0)
    assert totals["mid"] == (1, 3.0, 2.0)
    assert totals["root"] == (1, 9.0, 4.0)
    assert tracer.nesting_problems() == []
