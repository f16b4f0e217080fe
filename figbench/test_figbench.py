"""Tests of the figure-regeneration benchmark itself, at tiny sizes.

Run from the repository root::

    python3 -m pytest figbench/test_figbench.py
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
import time

import pytest

import run

run.import_checkout()

import make_reference  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY = wl.Caps(fig12=64, functional=96, oracle=48)


@pytest.fixture(autouse=True)
def _two_setups(monkeypatch):
    monkeypatch.setattr(wl, "SETUP_REPEATS", 2)


def _spec(section: str) -> dict:
    spec = json.loads(run.SPEC_PATH.read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    result, lines = run.run(workload, seed=3, seconds=0.0, trace=trace, caps=TINY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == len(wl.unit_names(workload)) * (2 if trace else 1)
    expected = _spec("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
    assert json.loads(json.dumps(result)) == result
    if not trace:
        assert result["metrics"]["pass_rate"]["value"] == 1.0
        # verified_rate can be 0 here: tiny prefixes leave no time to train.
        positive = set(expected) - {"verified_rate"}
        assert all(result["metrics"][name]["value"] > 0 for name in positive)


def test_traced_layers_match_the_workload():
    result, _ = run.run("functional_limit", seed=3, seconds=0.0, trace=True, caps=TINY)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["gpu.baseline_s"] == metrics["gpu.predicted_s"] == 0.0
    assert metrics["core.simulate_predictor_s"] > 0
    assert metrics["trace.span_coverage_frac"] >= run.MIN_SPAN_COVERAGE

    result, _ = run.run("fig12_sorted", seed=3, seconds=0.0, trace=True, caps=TINY)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["gpu.baseline_s"] > 0 and metrics["rays.sort_s"] > 0
    assert metrics["core.simulate_predictor_s"] == 0.0


@pytest.mark.parametrize(
    "workload, unit, field",
    [
        ("fig12_unsorted", "SP/predicted", "cycles"),
        ("functional_limit", "LR/oracle_lookup", "verified"),
    ],
)
def test_perturbed_reference_fails(workload, unit, field):
    reference = make_reference.reference_units(workload, 3, TINY)
    result, _ = run.run(workload, 3, 0.0, False, caps=TINY, reference=reference)
    assert result["failed"] == 0

    perturbed = copy.deepcopy(reference)
    perturbed[unit][field] += 1
    result, _ = run.run(workload, 3, 0.0, False, caps=TINY, reference=perturbed)
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["metrics"]["pass_rate"]["value"] < 1.0


def test_committed_reference_covers_default_caps():
    data = json.loads(run.REFERENCE_PATH.read_text())
    assert data["caps"] == wl.Caps().as_dict()
    for workload in wl.WORKLOADS:
        seeds = set(data["workloads"][workload])
        assert seeds == {str(s) for s in make_reference.SEEDS}
        for units in data["workloads"][workload].values():
            assert sorted(units) == sorted(wl.unit_names(workload))


def test_self_times_partition_the_root():
    tracer = Tracer(enabled=True)
    with tracer.span("root"):
        with tracer.span("a"):
            time.sleep(0.002)
            with tracer.span("b"):
                time.sleep(0.002)
        with tracer.span("a"):
            time.sleep(0.001)
    root = tracer.spans[0]
    times = tracer.self_times(0)
    assert set(times) == {"root", "a", "b"}
    assert sum(times.values()) == pytest.approx(root.end - root.start)
    assert times["b"] >= 0.002 and times["a"] >= 0.003
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        run.HERE, tmp_path / "figbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "figbench/run.py", "--workload", "fig12_unsorted",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
