"""Golden RT-unit results: every per-SM counter and the cycle count, exactly.

Each cell runs the timing model on a short issue-order prefix of
``SWEEP_WORKLOAD`` and compares ``dataclasses.asdict`` of every per-SM
:class:`~repro.gpu.rt_unit.RTUnitResult`, plus ``cycles``, with
``tests/data/rt_unit_golden.json``.  The matrix covers all seven scenes
x unsorted/Morton-sorted rays x (baseline, predictor without repacking,
predictor with repacking) x warp barrier off/on, on one SM at the
paper's 32x8 shape, so predictions, misprediction restarts and
repacked warps all occur.  A few extra cells cover the shared-L2 two-SM
default, stack spills, a 64-wide warp, 32-byte cache lines (smaller
than a triangle record) and a predictor whose corrupted table entries
bypass the range guard, so the RT unit's own guard restarts threads.

The file pins the timing model's output, not an implementation: a
change to how the RT unit computes its results must reproduce it
bit for bit.  A deliberate change to the model re-records it::

    PYTHONPATH=src python tests/test_rt_unit_golden.py
"""

import dataclasses
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.experiments import (
    SWEEP_WORKLOAD,
    ExperimentContext,
    all_scene_codes,
    scaled_gpu_config,
    scaled_predictor_config,
)
from repro.core.predictor import RayPredictor
from repro.faults import FaultConfig, FaultInjector, FaultyPredictor
from repro.gpu.config import CacheConfig
from repro.gpu.simulator import simulate_workload
from repro.rays.sorting import morton_sort_rays

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "data", "rt_unit_golden.json")

#: Issue-order rays per cell.  One SM's 12-warp buffer (8 + 4 extra)
#: holds 384 rays, so the last warps are admitted after the first rays
#: trained the table and the predictor paths run.
PREFIX = 512

VARIANTS = ("baseline", "predictor", "predictor_repack")


class _UnguardedFaultyPredictor(FaultyPredictor):
    """Corrupts table entries and hands them out unchecked."""

    predict = FaultyPredictor.predict_raw


def _config(variant, barrier=False, **overrides):
    predictor = None
    if variant != "baseline":
        predictor = scaled_predictor_config(repack=variant == "predictor_repack")
    config = scaled_gpu_config(predictor, **overrides)
    return replace(config, rt_unit=replace(config.rt_unit, warp_barrier=barrier))


def _matrix():
    """Cell name -> (scene, sorted, prefix, GPUConfig, faulty table)."""
    cells = {}
    for code in all_scene_codes():
        for sort in (False, True):
            for variant in VARIANTS:
                for barrier in (False, True):
                    name = "/".join((
                        code,
                        "sorted" if sort else "unsorted",
                        variant,
                        "barrier" if barrier else "free",
                    ))
                    cells[name] = (
                        code, sort, PREFIX,
                        _config(variant, barrier, num_sms=1), False,
                    )
    pred = _config("predictor_repack")
    one_sm = replace(pred, num_sms=1)
    cells["SP/unsorted/two_sms_shared_l2"] = ("SP", False, 2 * PREFIX, pred, False)
    cells["SP/unsorted/stack_entries_2"] = (
        "SP", False, PREFIX,
        replace(one_sm, rt_unit=replace(pred.rt_unit, stack_entries=2)), False,
    )
    cells["SP/unsorted/warp_size_64"] = (
        "SP", False, 2 * PREFIX,
        replace(one_sm, rt_unit=replace(pred.rt_unit, warp_size=64)), False,
    )
    small_lines = replace(
        pred.memory,
        l1=CacheConfig(size_bytes=4 * 1024, line_bytes=32),
        l2=CacheConfig(size_bytes=32 * 1024, line_bytes=32, latency=30),
    )
    cells["SP/unsorted/line_bytes_32"] = (
        "SP", False, PREFIX, replace(one_sm, memory=small_lines), False,
    )
    cells["SP/unsorted/unguarded_faulty_table"] = ("SP", False, PREFIX, one_sm, True)
    return cells


CELLS = _matrix()


def run_cell(ctx, name):
    """``cycles`` and every per-SM result field of one cell."""
    code, sort, prefix, config, faulty = CELLS[name]
    bvh = ctx.bvh(code)
    rays = ctx.rays(code, SWEEP_WORKLOAD)
    rays = rays.subset(np.arange(min(prefix, len(rays))))
    if sort:
        rays = rays.subset(morton_sort_rays(rays))
    predictors = None
    if faulty:
        injector = FaultInjector(FaultConfig(seed=5, table_rate=0.5))
        predictors = [
            _UnguardedFaultyPredictor(RayPredictor(bvh, config.predictor), injector)
        ]
    out = simulate_workload(bvh, rays, config, predictors=predictors)
    return {
        "cycles": out.cycles,
        "per_sm": [dataclasses.asdict(r) for r in out.per_sm],
    }


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_covers_every_cell(golden):
    assert sorted(golden) == sorted(CELLS)


def test_matrix_exercises_the_predictor(golden):
    """The prefix is long enough for predictions, verifications and restarts."""
    for name, stats in golden.items():
        predicted = sum(sm["predicted"] for sm in stats["per_sm"])
        assert (predicted == 0) == ("/baseline/" in name), name
    totals = {
        key: sum(s[key] for stats in golden.values() for s in stats["per_sm"])
        for key in ("verified", "misprediction_node_fetches", "stack_spills",
                    "collector_warps", "guard_restarts")
    }
    assert all(totals.values()), totals


@pytest.mark.parametrize("name", sorted(CELLS))
def test_rt_unit_matches_golden(ctx, golden, name):
    assert run_cell(ctx, name) == golden[name]


if __name__ == "__main__":
    context = ExperimentContext()
    recorded = {name: run_cell(context, name) for name in sorted(CELLS)}
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(recorded)} cells to {GOLDEN}")
