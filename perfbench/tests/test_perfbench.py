"""The benchmark's own tests, on tiny shapes of every workload.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import run, speed
from perfbench.cell import MODES, run_cell, run_profiled, run_traced
from perfbench.speed import SpeedSampler
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def pinned_tiny(workload: str, seed: int) -> list:
    pins = run.load_pinned("tiny", workload, seed)
    assert pins is not None, f"no tiny pins for {workload} seed {seed}"
    return pins


def bench(*args: str, env: dict | None = None, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(
        command, cwd=cwd, env=env, capture_output=True, text=True, timeout=170
    )


def clean_env() -> dict:
    return {k: v for k, v in os.environ.items() if k not in run.GUARDED_ENV}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_shape_reproduces_pinned_fingerprint(workload: str) -> None:
    expected = pinned_tiny(workload, 0)
    assert len(expected) == WORKLOADS[workload].repetitions
    for rep in range(WORKLOADS[workload].repetitions):
        record = run_cell(WORKLOADS[workload], 0, rep, tiny=True)
        assert record["fingerprint"] == expected[rep]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tracing_is_pure_observation(workload: str) -> None:
    plain = run_cell(WORKLOADS[workload], 1, 0, tiny=True)
    traced = run_traced(WORKLOADS[workload], 1, 0, tiny=True)
    assert json.dumps(traced["fingerprint"], sort_keys=True) == json.dumps(
        plain["fingerprint"], sort_keys=True
    )
    counters = traced["counters"]
    assert counters["simulator.events"] == plain["fingerprint"]["events"]
    assert counters["mapreduce.attempts"] == plain["fingerprint"]["attempts"]
    assert counters["core.blocks_placed"] > 0
    assert counters["hdfs.replicas_written"] == (
        counters["core.blocks_placed"] * WORKLOADS[workload].strategy.replication
    )
    # The probe's wrappers are gone again once the traced cell ends.
    assert run_cell(WORKLOADS[workload], 1, 0, tiny=True)["fingerprint"] == plain["fingerprint"]


def test_speed_sampler_scales_by_its_own_interval() -> None:
    previous = signal.getsignal(signal.SIGALRM)
    with SpeedSampler() as sampler:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 8 + 2 * speed.EDGE_SAMPLES
    assert sampler.scale() > 0
    # An interval with too few samples of its own takes the whole block's speed.
    first = sampler.samples[0][0]
    assert sampler.scale(first, first) == sampler.scale()
    # Slower kernel samples in an interval mean more reference seconds per
    # wall second there.
    sampler.samples = [(float(i), 1.0 if i < 10 else 2.0) for i in range(20)]
    assert sampler.scale(0, 9) == 2 * sampler.scale(10, 19)


def test_profiler_attribution_conserves_time() -> None:
    record = run_profiled(WORKLOADS["fig3-adapt"], 0, 0, tiny=True)
    self_s = record["self_s"]
    assert set(self_s) >= {"simulator.network", "simulator.engine", "bench"}
    assert all(NAME.match(f"self_s.{module}") for module in self_s)
    # Every profiled second lands in exactly one bucket.
    assert sum(self_s.values()) == pytest.approx(record["cell_s"], rel=0.5)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_strict_audit_pass_matches_pinned_fingerprint(workload: str) -> None:
    audited = MODES["audit"](WORKLOADS[workload], 0, rep=0, tiny=True)["fingerprint"]
    pinned = pinned_tiny(workload, 0)[0]
    fields = run.AUDITED_FIELDS
    assert {k: audited[k] for k in fields} == {k: pinned[k] for k in fields}


def test_declared_metrics_match_benchmark_json() -> None:
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == run.per_layer_units()
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert end_to_end == run.END_TO_END
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for name in [*declared, *end_to_end, *WORKLOADS]:
        assert NAME.match(name), name


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_are_declared(trace: str) -> None:
    proc = bench(
        "--workload", "fig5-existing3", "--seed", "0", "--seconds", "0.1",
        "--trace", trace, "--tiny", env=clean_env(),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    section = "per_layer" if trace == "1" else "end_to_end"
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        assert NAME.match(name), name
        assert isinstance(metric["value"], (int, float))
    if trace == "0":
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_wrong_pin_fails_the_run(tmp_path: Path, monkeypatch: pytest.MonkeyPatch) -> None:
    pins = json.loads(run.PINNED.read_text(encoding="utf-8"))
    pins["tiny"]["fig3-adapt"]["0"][2]["events"] += 1
    bad = tmp_path / "fingerprints.json"
    bad.write_text(json.dumps(pins), encoding="utf-8")
    monkeypatch.setattr(run, "PINNED", bad)
    for name in run.GUARDED_ENV:
        monkeypatch.delenv(name, raising=False)
    args = run.parse_args(
        ["--workload", "fig3-adapt", "--seed", "0", "--seconds", "0", "--tiny"]
    )
    record, errors = run.measure(args)
    repetitions = WORKLOADS["fig3-adapt"].repetitions
    # Both repeats of repetition 2 miss the wrong pin.
    assert record["failed"] == run.MIN_CYCLES
    assert record["attempted"] == run.MIN_CYCLES * repetitions
    assert any("repetition 2" in error for error in errors)


def test_unpinned_seed_gets_repeats_to_compare(monkeypatch: pytest.MonkeyPatch) -> None:
    for name in run.GUARDED_ENV:
        monkeypatch.delenv(name, raising=False)
    assert run.load_pinned("tiny", "fig5-existing3", 999) is None
    args = run.parse_args(
        ["--workload", "fig5-existing3", "--seed", "999", "--seconds", "0", "--tiny"]
    )
    record, errors = run.measure(args)
    assert errors == []
    assert record["gate"] == "repeats agree" and record["failed"] == 0
    for rep in range(WORKLOADS["fig5-existing3"].repetitions):
        assert sum(1 for c in record["cells"] if c["rep"] == rep) >= 2


def test_default_path_guard_refuses_overrides() -> None:
    env = clean_env()
    env["REPRO_EVENT_QUEUE"] = "calendar"
    proc = bench(
        "--workload", "fig3-adapt", "--seed", "0", "--seconds", "1", "--tiny", env=env
    )
    assert proc.returncode != 0
    assert "REPRO_EVENT_QUEUE" in proc.stderr
    assert proc.stdout.strip() == ""


def test_refuses_to_run_without_program_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out")
    )
    proc = bench(
        "--workload", "fig3-adapt", "--seed", "0", "--seconds", "1", "--trace", "0",
        env=clean_env(), cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
