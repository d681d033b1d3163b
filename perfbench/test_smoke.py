"""Smoke tests for the benchmark itself (not part of the package's test suite).

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs once untraced and once traced at tiny size; each named
metric must print with its unit, and no operation may fail.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402
from catalog import E2E_UNITS, LAYER_UNITS, WORKLOADS  # noqa: E402


def _declared(key: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def _bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.startswith("failed_frac 0 ") for line in lines[:-1])

    declared = _declared("per_layer" if trace else "end_to_end")
    assert declared == (LAYER_UNITS if trace else E2E_UNITS)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)


def test_one_command_runs_every_workload():
    proc = _bench(ROOT, "--seconds", "1", "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {f"{w}.{m}" for w in WORKLOADS for m in E2E_UNITS}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench(str(tmp_path), "--workload", "fuzz-batched", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_restores_targets_and_reports_absent_ones(monkeypatch):
    fake = types.ModuleType("fake_pqdist_mod")
    fake.present = lambda x: x + 1
    fake.table = {"k": lambda: 3}
    original_present, original_entry = fake.present, fake.table["k"]
    monkeypatch.setitem(sys.modules, "fake_pqdist_mod", fake)
    monkeypatch.setattr(spans, "TARGETS", (
        ("fuzz.campaign", "fake_pqdist_mod", "present", None),
        ("fuzz.chunk", "fake_pqdist_mod", "table", "k"),
        ("metric.hermitian_eig3", "fake_pqdist_mod", "gone", None),
        ("fuzz.chunk", "fake_pqdist_mod", "table", "missing"),
        ("cli.main", "no_such_module_anywhere", "main", None),
    ))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert fake.present(1) == 2 and fake.table["k"]() == 3
    finally:
        tracer.remove()
    assert fake.present is original_present and fake.table["k"] is original_entry
    assert [s[0] for s in tracer.spans] == ["fuzz.campaign", "fuzz.chunk"]
    assert len(tracer.absent) == 3


def test_self_time_subtracts_children_on_other_threads():
    tracer = spans.Tracer()
    child = tracer.wrap("sampling.states", lambda: time.sleep(0.05))

    def parent():
        workers = [threading.Thread(target=child) for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=5)
        assert not any(w.is_alive() for w in workers)
        time.sleep(0.02)

    tracer.wrap("fuzz.campaign", parent)()
    agg = spans.aggregate(tracer.spans)
    campaign, states = agg["names"]["fuzz.campaign"], agg["names"]["sampling.states"]
    assert states["calls"] == 2 and campaign["calls"] == 1
    # The two children overlap, so only their union (~0.05 s) is subtracted.
    assert 0.015 <= campaign["self_s"] <= campaign["s"] - 0.045
    assert agg["layers"]["sampling"]["busy_s"] == pytest.approx(states["s"])
