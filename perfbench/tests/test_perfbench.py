"""Smoke tests of the benchmark itself.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from concurrent.futures import Future

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import openloop  # noqa: E402

WORKLOADS = ("algo1_resnet20_t5", "serve_open_t5", "sweep_evo_w2")


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(cwd: str, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_workloads_declared_in_benchmark_json():
    assert [w["name"] for w in spec()["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_and_its_oracles_pass(workload, trace):
    proc = run_bench(ROOT, workload, trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[-2].startswith("info ")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(str(tmp_path), WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _done(value=None) -> Future:
    future = Future()
    future.set_result(value)
    return future


def test_prompt_dispatcher_is_not_generator_bound():
    offsets = np.arange(50) * 0.002
    rung = openloop.run_rung(_done, [None] * 50, offsets, rate=500.0)
    assert rung.sent == 50 and rung.failed == 0
    assert not rung.generator_bound


def test_stalled_dispatcher_is_flagged_generator_bound():
    calls = []

    def stalling_submit(payload):
        calls.append(payload)
        if len(calls) == 5:
            time.sleep(0.1)  # the dispatcher misses every arrival due meanwhile
        return _done()

    offsets = np.arange(50) * 0.002
    rung = openloop.run_rung(stalling_submit, [None] * 50, offsets, rate=500.0)
    assert rung.lag_p99_ms > openloop.LAG_BOUND_MS
    assert rung.generator_bound
    assert not rung.meets_slo(slo_p99_ms=1e9)


def test_rejected_submit_counts_as_failed():
    def reject(payload):
        raise RuntimeError("queue full")

    rung = openloop.run_rung(reject, [None] * 3, np.array([0.0, 0.001, 0.002]), rate=1000.0)
    assert rung.failed == 3
    assert rung.ok_latency_ms.size == 0


def _rung(rate: float, p99_ms: float) -> openloop.RungResult:
    latency = np.full(100, p99_ms)
    return openloop.RungResult(
        rate=rate, offsets=np.linspace(0, 1, 100), lag_ms=np.zeros(100),
        latency_ms=latency, futures=[], failed=0, duration_s=1.0 + p99_ms / 1e3,
    )


def test_max_rate_interpolates_between_passing_and_failing_rung():
    rungs = [_rung(100, 20), _rung(200, 60), _rung(300, 140)]
    assert openloop.max_rate_at_slo(rungs, 100.0) == pytest.approx(250.0)
    assert openloop.max_rate_at_slo(rungs[:2], 100.0) == 200.0
