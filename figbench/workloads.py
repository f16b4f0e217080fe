"""The figure-regeneration workloads, driven through ``repro``'s public API.

Three workloads, each a closed loop in one process (one caller, serial,
no worker processes, ``sm_jobs=1``):

* ``fig12_unsorted`` - Figure 12: baseline and scaled-predictor RT-unit
  timing runs at the paper shape (32-lane warps, 8-warp buffer, shared
  L2) on ``SWEEP_SCENES`` with ``SWEEP_WORKLOAD`` rays in issue order.
  Nearly all of its time is in ``gpu.simulate_workload``.
* ``fig12_sorted`` - the same runs on Morton-sorted rays.  Coherent
  warps fetch fewer distinct lines per step and train the predictor
  less, so a ``gpu`` change tuned to divergent warps shows here.
* ``functional_limit`` - Table 5's functional ``simulate_predictor`` on
  ``FULL_WORKLOAD`` and Figure 2's ``run_limit_study`` with every
  ``OracleKind``.  It never calls ``gpu``, so a ``gpu`` change must read
  "no change" here; ``core`` and ``trace`` do the work.

Every run caps the rays per scene at an issue-order prefix (``Caps``) so
a regeneration pass takes seconds.  All simulated statistics are
deterministic, so each *unit* - one ``(scene, config)`` simulate call or
one oracle kind - is checked exactly against a reference.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.experiments import (
    FULL_WORKLOAD,
    SWEEP_SCENES,
    SWEEP_WORKLOAD,
    ExperimentContext,
    scaled_gpu_config,
    scaled_predictor_config,
)
from repro.analysis.stats import geometric_mean
from repro.analysis.tables import format_table
from repro.bvh.nodes import FlatBVH
from repro.core import OracleKind, run_limit_study, simulate_predictor
from repro.core.baseline import baseline_record, clear_baseline_cache
from repro.geometry.ray import RayBatch
from repro.gpu.simulator import SimOutput, simulate_workload
from repro.rays.sorting import morton_sort_rays

from probe import SpeedProbe
from tracer import Tracer

WORKLOADS = ("fig12_unsorted", "fig12_sorted", "functional_limit")

#: Setup repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Paper Figure 12 geometric-mean speedup (unsorted AO rays).
PAPER_FIG12_GEOMEAN = 1.26

#: Span name per oracle kind (one ``run_limit_study(kinds=[k])`` call each).
ORACLE_SPANS = {
    OracleKind.PROPOSED: "core.limit_proposed",
    OracleKind.ORACLE_LOOKUP: "core.oracle_lookup",
    OracleKind.ORACLE_TRAINING: "core.oracle_training",
    OracleKind.ORACLE_UPDATES: "core.oracle_updates",
}

#: ``RTUnitResult`` fields summed across SMs and units for the gpu layer.
_GPU_SUMS = (
    "rays", "hits", "predicted", "verified", "node_fetches", "tri_fetches",
    "misprediction_node_fetches", "misprediction_tri_fetches", "warp_steps",
    "active_thread_steps", "l1_accesses", "l1_hits", "l2_accesses", "l2_hits",
    "dram_accesses", "predictor_lookups", "guard_restarts",
)


@dataclass(frozen=True)
class Caps:
    """Rays per scene: issue-order prefixes of the named workloads."""

    fig12: int = 2048  # SWEEP_WORKLOAD rays per timing run
    functional: int = 4096  # FULL_WORKLOAD rays per functional run
    oracle: int = 512  # SWEEP_WORKLOAD rays per limit-study run

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


@dataclass
class SceneInputs:
    """One scene's set-up products."""

    code: str
    triangles: int
    nodes: int
    bvh: FlatBVH
    rays: RayBatch  # fig12 rays, or the functional (FULL) prefix
    oracle_rays: Optional[RayBatch] = None  # functional_limit only


#: Unit name -> exact simulated statistics (JSON-safe).
UnitStats = Dict[str, dict]


@dataclass
class Timed:
    """One timed set-up or pass.

    ``raw_s`` is host time with the probe samples taken inside it
    removed; ``factor`` corrects it to the reference host speed.
    """

    raw_s: float
    factor: float
    root_span: Optional[int]

    @property
    def wall_s(self) -> float:
        return self.raw_s * self.factor


@dataclass
class PassResult(Timed):
    """One measured regeneration pass."""

    units: UnitStats = field(default_factory=dict)
    failed_units: List[str] = field(default_factory=list)


def _prefix(rays: RayBatch, cap: int) -> RayBatch:
    return rays.subset(np.arange(min(cap, len(rays))))


def setup(workload: str, seed: int, caps: Caps, tracer: Tracer) -> List[SceneInputs]:
    """Scenes, SAH BVHs and AO rays (plus sort) from a cold context."""
    ctx = ExperimentContext()
    sweep = replace(SWEEP_WORKLOAD, seed=seed)
    full = replace(FULL_WORKLOAD, seed=seed)
    inputs = []
    for code in SWEEP_SCENES:
        with tracer.span("scenes.get_scene"):
            scene = ctx.scene(code)
        with tracer.span("bvh.build"):
            bvh = ctx.bvh(code)
        oracle_rays = None
        if workload == "functional_limit":
            with tracer.span("rays.ao_gen"):
                rays = ctx.workload(code, full).rays
                oracle_rays = ctx.workload(code, sweep).rays
            rays = _prefix(rays, caps.functional)
            oracle_rays = _prefix(oracle_rays, caps.oracle)
        else:
            with tracer.span("rays.ao_gen"):
                rays = ctx.workload(code, sweep).rays
            rays = _prefix(rays, caps.fig12)
            if workload == "fig12_sorted":
                with tracer.span("rays.sort"):
                    rays = rays.subset(morton_sort_rays(rays))
        inputs.append(
            SceneInputs(
                code, scene.num_triangles, bvh.num_nodes, bvh, rays, oracle_rays
            )
        )
    return inputs


def timed_setups(
    workload: str, seed: int, caps: Caps, tracer: Tracer, probe: SpeedProbe
) -> Tuple[List[SceneInputs], List[Timed]]:
    """``SETUP_REPEATS`` cold set-ups, each between two probe samples."""
    timings: List[Timed] = []
    for _ in range(SETUP_REPEATS):
        root = len(tracer.spans) if tracer.enabled else None
        t0 = time.perf_counter()
        with tracer.span("setup"):
            inputs = probe.run(lambda: setup(workload, seed, caps, tracer))
        timings.append(Timed(*probe.close(time.perf_counter() - t0), root))
    return inputs, timings


# ----------------------------------------------------------------------
# Unit statistics


def gpu_stats(out: SimOutput) -> dict:
    """Exact statistics of one timing run: cycles and every per-SM count."""
    return {
        "cycles": out.cycles,
        "per_sm": [dataclasses.asdict(r) for r in out.per_sm],
    }


def functional_stats(result) -> dict:
    """Exact ``SimulationResult`` counts (per-ray outcomes dropped)."""
    stats = dataclasses.asdict(result)
    stats.pop("outcomes")
    return stats


def gpu_sums(stats: dict) -> Dict[str, int]:
    return {
        field: sum(sm[field] for sm in stats["per_sm"]) for field in _GPU_SUMS
    }


# ----------------------------------------------------------------------
# Measured passes


def _unit(
    name: str,
    units: UnitStats,
    failed: List[str],
    probe: SpeedProbe,
    call: Callable[[], dict],
) -> None:
    """Run one unit between probe samples; a unit that raises fails."""
    try:
        units[name] = probe.run(call)
    except Exception:  # a unit boundary: report and keep measuring
        traceback.print_exc()
        failed.append(name)


def fig12_pass(
    inputs: List[SceneInputs], tracer: Tracer, probe: SpeedProbe
) -> Tuple[UnitStats, List[str]]:
    units: UnitStats = {}
    failed: List[str] = []
    base_cfg = scaled_gpu_config()
    pred_cfg = scaled_gpu_config(scaled_predictor_config())
    for scene in inputs:
        for config, cfg in (("baseline", base_cfg), ("predicted", pred_cfg)):

            def call(scene=scene, config=config, cfg=cfg) -> dict:
                with tracer.span(f"gpu.{config}"):
                    out = simulate_workload(scene.bvh, scene.rays, cfg)
                return gpu_stats(out)

            _unit(f"{scene.code}/{config}", units, failed, probe, call)
    with tracer.span("analysis.table"):
        _fig12_table(units)
    return units, failed


def scene_speedups(units: UnitStats) -> Dict[str, float]:
    """Baseline over predictor cycles per scene (Figure 12's bars)."""
    speedups = {}
    for code in SWEEP_SCENES:
        base, pred = units.get(f"{code}/baseline"), units.get(f"{code}/predicted")
        if base and pred:
            speedups[code] = base["cycles"] / pred["cycles"]
    return speedups


def _fig12_table(units: UnitStats) -> str:
    speedups = scene_speedups(units)
    geo = geometric_mean(speedups.values()) if speedups else 0.0
    rows = [[code, value] for code, value in speedups.items()]
    return format_table(["Scene", "Speedup"], rows + [["GEOMEAN", geo]])


def functional_pass(
    inputs: List[SceneInputs], tracer: Tracer, probe: SpeedProbe
) -> Tuple[UnitStats, List[str]]:
    units: UnitStats = {}
    failed: List[str] = []
    config = scaled_predictor_config()
    for scene in inputs:

        def functional(scene=scene) -> dict:
            clear_baseline_cache()
            with tracer.span("trace.baseline_pass"):
                record = baseline_record(scene.bvh, scene.rays, "wavefront")
            with tracer.span("core.simulate_predictor"):
                result = simulate_predictor(scene.bvh, scene.rays, config)
            stats = functional_stats(result)
            # The pass's own view of the full traversals, for the
            # invariant checks (the simulation must reuse it unchanged).
            stats["record"] = {
                "hits": int((record.hit_tri >= 0).sum()),
                "node_fetches": int(record.node_fetches.sum()),
                "tri_fetches": int(record.tri_fetches.sum()),
            }
            return stats

        _unit(f"{scene.code}/functional", units, failed, probe, functional)
        for kind, span_name in ORACLE_SPANS.items():

            def oracle(scene=scene, kind=kind, span_name=span_name) -> dict:
                with tracer.span(span_name):
                    study = run_limit_study(
                        scene.bvh, scene.oracle_rays, config, kinds=[kind]
                    )
                return functional_stats(study[kind])

            _unit(f"{scene.code}/{kind.value}", units, failed, probe, oracle)
    with tracer.span("analysis.table"):
        _functional_table(units)
    return units, failed


def _functional_table(units: UnitStats) -> str:
    rows = []
    for code in SWEEP_SCENES:
        row: List[object] = [code]
        for kind in OracleKind:
            stats = units.get(f"{code}/{kind.value}")
            row.append(stats["verified"] / stats["num_rays"] if stats else 0.0)
        rows.append(row)
    means = [statistics.fmean(r[i] for r in rows) for i in range(1, len(rows[0]))]
    return format_table(
        ["Scene"] + [kind.value for kind in OracleKind], rows + [["MEAN"] + means]
    )


PASSES = {
    "fig12_unsorted": fig12_pass,
    "fig12_sorted": fig12_pass,
    "functional_limit": functional_pass,
}


def measure(
    workload: str,
    inputs: List[SceneInputs],
    seconds: float,
    tracer: Tracer,
    probe: SpeedProbe,
    traced: bool,
) -> List[PassResult]:
    """Repeat the workload's regeneration pass for about ``seconds`` seconds.

    A pass starts only if half of it (judged by the last pass) fits in
    the time left, so runs measure ``seconds`` on average.  In a traced
    run every other pass is traced, so the untraced passes in between
    give the tracing overhead from the same process.
    """
    run_pass = PASSES[workload]
    results: List[PassResult] = []
    min_passes = 2 if traced else 1
    start = time.perf_counter()
    while (
        len(results) < min_passes
        or time.perf_counter() - start + results[-1].raw_s / 2 < seconds
    ):
        tracer.enabled = traced and len(results) % 2 == 0
        root = len(tracer.spans) if tracer.enabled else None
        t0 = time.perf_counter()
        with tracer.span("iteration"):
            units, failed = run_pass(inputs, tracer, probe)
        raw, factor = probe.close(time.perf_counter() - t0)
        results.append(PassResult(raw, factor, root, units, failed))
    tracer.enabled = traced
    return results


# ----------------------------------------------------------------------
# Correctness


def oracle_reference(inputs: List[SceneInputs]) -> UnitStats:
    """Reference statistics for the timing units from the scalar RT unit."""
    base_cfg = scaled_gpu_config()
    pred_cfg = scaled_gpu_config(scaled_predictor_config())
    reference: UnitStats = {}
    for scene in inputs:
        for config, cfg in (("baseline", base_cfg), ("predicted", pred_cfg)):
            out = simulate_workload(scene.bvh, scene.rays, cfg, engine="scalar")
            reference[f"{scene.code}/{config}"] = gpu_stats(out)
    return reference


def invariant_errors(
    workload: str, inputs: List[SceneInputs], units: UnitStats
) -> List[str]:
    """Unit names whose statistics break an invariant of the model.

    These hold for any seed: a predictor never changes which rays are
    occluded, never verifies more rays than it predicted, and the
    functional simulation reuses the memoized full-traversal counters.
    """
    bad = []
    for scene in inputs:
        code = scene.code
        if workload == "functional_limit":
            fn = units.get(f"{code}/functional")
            if fn is not None:
                rec = fn["record"]
                if not (
                    fn["num_rays"] == len(scene.rays)
                    and fn["verified"] <= fn["predicted"] <= fn["num_rays"]
                    and fn["hits"] == rec["hits"]
                    and fn["baseline_node_fetches"] == rec["node_fetches"]
                    and fn["baseline_tri_fetches"] == rec["tri_fetches"]
                ):
                    bad.append(f"{code}/functional")
            hits = set()
            for kind in OracleKind:
                name = f"{code}/{kind.value}"
                st = units.get(name)
                if st is None:
                    continue
                hits.add(st["hits"])
                if not (
                    st["num_rays"] == len(scene.oracle_rays)
                    and st["verified"] <= st["predicted"] <= st["num_rays"]
                ):
                    bad.append(name)
            if len(hits) > 1:  # the kinds disagree on which rays hit
                bad.extend(f"{code}/{kind.value}" for kind in OracleKind)
        else:
            base = units.get(f"{code}/baseline")
            pred = units.get(f"{code}/predicted")
            if base is None or pred is None:
                continue
            b, p = gpu_sums(base), gpu_sums(pred)
            if not (
                b["rays"] == p["rays"] == len(scene.rays)
                and b["hits"] == p["hits"]
                and b["predicted"] == b["verified"] == 0
                and p["verified"] <= p["predicted"] <= p["rays"]
            ):
                bad.append(f"{code}/predicted")
    return bad


def unit_names(workload: str) -> List[str]:
    if workload == "functional_limit":
        kinds = ["functional"] + [kind.value for kind in OracleKind]
    else:
        kinds = ["baseline", "predicted"]
    return [f"{code}/{kind}" for code in SWEEP_SCENES for kind in kinds]


def check(
    workload: str,
    inputs: List[SceneInputs],
    passes: List[PassResult],
    reference: UnitStats,
) -> Tuple[int, int, List[str]]:
    """Count attempted and failed units over every measured pass.

    A unit fails if it raised, if its statistics differ from
    ``reference``, or if they break an invariant.
    """
    names = unit_names(workload)
    attempted = len(names) * len(passes)
    failures: List[str] = []
    for i, result in enumerate(passes):
        bad = set(result.failed_units) | set(
            invariant_errors(workload, inputs, result.units)
        )
        for name in names:
            stats = result.units.get(name)
            if name in bad or stats is None or exact(stats) != reference.get(name):
                failures.append(f"pass {i}: {name}")
    return attempted, len(failures), failures


def exact(stats: dict) -> dict:
    """The reference-compared part of a unit's statistics."""
    return {k: v for k, v in stats.items() if k != "record"}


# ----------------------------------------------------------------------
# Metrics


def median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def first_units(passes: List[PassResult]) -> UnitStats:
    """Each unit's statistics from the first pass where it succeeded."""
    units: UnitStats = {}
    for result in passes:
        for name, stats in result.units.items():
            units.setdefault(name, stats)
    return units


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when nothing was measured."""
    return num / den if den else 0.0


def model_metrics(workload: str, units: UnitStats) -> Dict[str, float]:
    """Simulated (host-independent) metrics of one regeneration pass.

    ``verified_rate`` and ``mem_access_ratio`` come from the RT unit on
    ``fig12_*`` and from the functional (Table 5) run of the proposed
    predictor on ``functional_limit``.  Every key is present for every
    workload; a layer the workload does not run reads 0.
    """
    if workload == "functional_limit":
        return {**_timing_metrics({}), **_functional_metrics(units)}
    return {**_functional_metrics({}), **_timing_metrics(units)}


def _functional_metrics(units: UnitStats) -> Dict[str, float]:
    def present(kind: str) -> List[dict]:
        names = (f"{code}/{kind}" for code in SWEEP_SCENES)
        return [units[name] for name in names if name in units]

    fns = present("functional")
    rays = sum(s["num_rays"] for s in fns)
    predicted = sum(s["predicted"] for s in fns)
    verified = sum(s["verified"] for s in fns)
    pred_acc = sum(
        s["predictor_node_fetches"] + s["predictor_tri_fetches"] for s in fns
    )
    base_acc = sum(s["baseline_node_fetches"] + s["baseline_tri_fetches"] for s in fns)
    ols = present(OracleKind.ORACLE_LOOKUP.value)
    ol_rays = sum(s["num_rays"] for s in ols)
    return {
        "verified_rate": ratio(verified, rays),
        "mem_access_ratio": ratio(pred_acc, base_acc),
        "core.functional_rays": rays,
        "core.predicted_rate": ratio(predicted, rays),
        "core.verify_success_frac": ratio(verified, predicted),
        "limit_ol_verified_rate": ratio(sum(s["verified"] for s in ols), ol_rays),
    }


def _timing_metrics(units: UnitStats) -> Dict[str, float]:
    speedups = scene_speedups(units)
    base_sum, pred_sum = dict.fromkeys(_GPU_SUMS, 0), dict.fromkeys(_GPU_SUMS, 0)
    pred_cycles = 0
    for code in speedups:
        base, pred = units[f"{code}/baseline"], units[f"{code}/predicted"]
        pred_cycles += pred["cycles"]
        for field, value in gpu_sums(base).items():
            base_sum[field] += value
        for field, value in gpu_sums(pred).items():
            pred_sum[field] += value
    both = {f: base_sum[f] + pred_sum[f] for f in _GPU_SUMS}

    def accesses(s: Dict[str, int]) -> int:
        return s["node_fetches"] + s["tri_fetches"]

    return {
        "verified_rate": ratio(pred_sum["verified"], pred_sum["rays"]),
        "mem_access_ratio": ratio(accesses(pred_sum), accesses(base_sum)),
        "speedup_geomean": geometric_mean(speedups.values()) if speedups else 0.0,
        "sim_cycles_predictor": pred_cycles,
        "gpu.warp_steps": both["warp_steps"],
        "gpu.node_fetches": both["node_fetches"],
        "gpu.tri_fetches": both["tri_fetches"],
        "gpu.misprediction_accesses": (
            both["misprediction_node_fetches"] + both["misprediction_tri_fetches"]
        ),
        "gpu.l1_hit_rate": ratio(both["l1_hits"], both["l1_accesses"]),
        "gpu.l2_hit_rate": ratio(both["l2_hits"], both["l2_accesses"]),
        "gpu.dram_accesses": both["dram_accesses"],
        "gpu.simt_efficiency": ratio(
            both["active_thread_steps"], both["warp_steps"] * 32
        ),
        "gpu.predictor_lookups": both["predictor_lookups"],
        "gpu.guard_restarts": both["guard_restarts"],
    }
