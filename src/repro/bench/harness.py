"""Timed scalar-vs-wavefront benchmarks emitting ``BENCH_<name>.json``.

Three benchmarks run per scene, each once per engine on identical
pinned-seed workloads:

* ``occlusion_trace`` - batch any-hit tracing of the scene's AO rays
  (the paper's headline workload and the wavefront engine's target);
* ``closest_trace``   - batch closest-hit tracing of the same rays;
* ``predictor_sim``   - the functional predictor simulation
  (:func:`repro.core.simulate.simulate_predictor`) over a capped prefix.

The JSON artifact (schema ``repro-bench/6``, documented in
``docs/BENCHMARKING.md``; older ``repro-bench/*`` artifacts are still
read) records wall time, rays/second, and the deterministic traversal
counters, plus derived wavefront-over-scalar speedups and a
``predictor_throughput`` section (per-scene simulation rates, counters,
and engine speedups for the predictor pipeline).  When telemetry
is switched on (``repro --telemetry bench`` or ``REPRO_TELEMETRY=1``)
the artifact gains a ``telemetry`` section: the labeled metrics
snapshot and per-stage span summaries collected during the timed runs
(see ``docs/OBSERVABILITY.md``).  Regression checking intentionally gates on *machine
independent* quantities - the speedup ratios (both engines time on the
same host, so the ratio transfers) and the traversal counters (exact
functions of seed + scene) - because absolute rays/second differs
across CI hosts; absolute numbers are recorded for trend-watching only.

Resilient sweeps: passing :class:`~repro.resilience.ResilienceOptions`
(CLI ``--resume`` / ``--max-retries`` / ``--unit-timeout`` /
``--no-degrade``) runs each scene as a supervised unit with
checkpoint/resume, retry with backoff, and the degradation ladder; the
artifact then gains a ``resilience`` section (attempts, degradations,
checkpoint hits, and the partial-results manifest).  See
``docs/ROBUSTNESS.md``.

Parallel sweeps: ``jobs > 1`` (CLI ``--jobs N``) shards the scene units
across worker processes.  Checkpointing, sharding, supervision and the
telemetry merge live in the shared sweep driver
(:func:`repro.resilience.sweep.run_units`); this module supplies the
unit function (:func:`_bench_unit`) and the payload.  Every unit is a
pure function of the pinned preset, so the payload matches a serial
run modulo the timing fields (``wall_time_s`` / ``rays_per_sec``).
The opt-in BVH artifact cache (``--artifact-cache DIR``,
:mod:`repro.bvh.cache`) lets workers - and repeated sweeps - skip
redundant SAH builds; when enabled, its identity joins the checkpoint
fingerprint so cached and uncached runs can never be mixed by
``--resume``.
"""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.bvh.cache import cached_build_bvh
from repro.core.simulate import simulate_baseline, simulate_predictor
from repro.errors import TelemetryAggregationError
from repro.faults.injector import UnitFaultPlan
from repro.rays import generate_ao_workload
from repro.resilience import ResilienceOptions
from repro.resilience.sweep import pin_cache_identity, run_units
from repro.scenes import get_scene
from repro.telemetry import distributed
from repro.trace import TraversalStats, trace_closest_batch, trace_occlusion_batch
from repro.trace.wavefront import ENGINES

#: Artifact schema identifier; bump on incompatible layout changes.
#: 2 added the optional ``telemetry`` section; 3 added the optional
#: ``resilience`` section; 4 added the derived ``predictor_throughput``
#: section and the preset's ``benchmarks`` selector; 5 added the
#: ``rt_timing`` benchmark (RT-unit cycle simulation) with its derived
#: section; 6 added the ``bvh_build``/``bvh_refit`` benchmarks
#: (level-synchronous vector builders vs the scalar oracles) with the
#: derived ``bvh_build`` section and build-preset knobs (all additive -
#: older artifacts remain readable, see :data:`ACCEPTED_SCHEMAS`).
BENCH_SCHEMA = "repro-bench/6"

#: Schema tags :func:`load_payload` accepts.  Baselines written before
#: the telemetry/resilience sections existed stay valid.
ACCEPTED_SCHEMAS = (
    "repro-bench/1", "repro-bench/2", "repro-bench/3", "repro-bench/4",
    "repro-bench/5", "repro-bench/6",
)

#: Benchmarks gated by the regression check, in artifact order.
BENCHMARKS = ("occlusion_trace", "closest_trace", "predictor_sim")

#: Allowed relative regression before the check fails (satellite spec: 20%).
DEFAULT_TOLERANCE = 0.20


@dataclass(frozen=True)
class BenchPreset:
    """A pinned benchmark configuration.

    Everything that shapes the workload is recorded here and embedded in
    the artifact, so a baseline is reproducible from its JSON alone.
    """

    name: str
    scenes: Tuple[str, ...]
    width: int
    height: int
    spp: int
    seed: int
    detail: float
    sim_rays: int
    in_flight: int = 32
    repeats: int = 2
    #: Which benchmarks to run (subset of :data:`BENCHMARKS` plus
    #: ``rt_timing``); the predictor preset times only the simulation
    #: pipeline, the timing preset only the RT-unit cycle simulator.
    benchmarks: Tuple[str, ...] = BENCHMARKS
    #: Build methods timed by the ``bvh_build`` benchmark, each once
    #: per build engine (vector frontier builder + scalar oracle).
    build_methods: Tuple[str, ...] = ("sah", "median", "lbvh")
    #: Per-triangle jitter magnitude for the ``bvh_refit`` benchmark's
    #: deformed mesh (same ``seed`` as the workload).
    build_jitter: float = 0.05

    def describe(self) -> str:
        return (
            f"{self.name}: scenes={','.join(self.scenes)} "
            f"{self.width}x{self.height}@{self.spp}spp seed={self.seed} "
            f"detail={self.detail} sim_rays={self.sim_rays}"
        )


#: CI smoke preset: tiny scenes, fixed seeds, well under a minute.
QUICK_PRESET = BenchPreset(
    name="quick",
    scenes=("SB", "SP", "CK"),
    width=16,
    height=16,
    spp=2,
    seed=1,
    detail=0.4,
    sim_rays=256,
)

#: Full preset: all seven scenes at the default AO workload knobs.
FULL_PRESET = BenchPreset(
    name="wavefront",
    scenes=("SB", "SP", "LE", "LR", "FR", "BI", "CK"),
    width=64,
    height=64,
    spp=2,
    seed=1,
    detail=1.0,
    sim_rays=2048,
)

#: Predictor-throughput preset: all seven scenes, simulation only.
#: This seeds the ``BENCH_predictor.json`` trajectory - the committed
#: baseline future PRs regress the vectorized predictor pipeline
#: against (counters and engine speedups, both machine-independent).
PREDICTOR_PRESET = BenchPreset(
    name="predictor",
    scenes=("SB", "SP", "LE", "LR", "FR", "BI", "CK"),
    width=48,
    height=48,
    spp=2,
    seed=1,
    detail=0.7,
    sim_rays=1024,
    benchmarks=("predictor_sim",),
    # Best-of-5: the gated speedup ratio sits near 2-4x since the
    # scalar engine's table probes were optimized, so run-to-run jitter
    # is a larger fraction of the band; extra repeats keep the minimum
    # estimator stable on small CI runners.
    repeats=5,
)

#: RT-unit timing preset: all seven scenes through the discrete-event
#: cycle simulator at the paper's shape (``scaled_gpu_config()``: 32-lane
#: warps, an 8-warp ray buffer), baseline and with
#: ``scaled_predictor_config()``.  This seeds the ``BENCH_timing.json``
#: trajectory: cycles gate exactly; cache and DRAM row-buffer hit rates
#: gate within the tolerance.
TIMING_PRESET = BenchPreset(
    name="timing",
    scenes=("SB", "SP", "LE", "LR", "FR", "BI", "CK"),
    width=32,
    height=32,
    spp=2,
    seed=1,
    detail=0.6,
    sim_rays=2048,
    benchmarks=("rt_timing",),
)

#: BVH-construction preset: all seven scenes through the level-
#: synchronous vector builders and the scalar oracle builders, once per
#: (method, engine), plus a refit pass per engine on a jittered mesh.
#: This seeds the ``BENCH_build.json`` trajectory: node counts, tree
#: depths and SAH costs are exact functions of scene + build parameters
#: and gate exactly; ``engines_agree`` asserts the vector trees were
#: array-identical to the scalar oracle's in *this* run; the
#: vector-over-scalar build and refit speedups gate against the usual
#: tolerance floor.
BUILD_PRESET = BenchPreset(
    name="build",
    scenes=("SB", "SP", "LE", "LR", "FR", "BI", "CK"),
    width=16,
    height=16,
    spp=1,
    seed=1,
    detail=1.0,
    sim_rays=0,
    benchmarks=("bvh_build",),
    # Builds finish in milliseconds, so run-to-run jitter is a larger
    # fraction of the wall time than for the trace benchmarks; best-of
    # extra repeats keeps the gated speedup ratios stable on CI hosts.
    repeats=3,
)

#: Presets addressable from the CLI (``repro bench --preset NAME``).
PRESETS = {
    "quick": QUICK_PRESET,
    "full": FULL_PRESET,
    "predictor": PREDICTOR_PRESET,
    "timing": TIMING_PRESET,
    "build": BUILD_PRESET,
}


@dataclass
class BenchRecord:
    """One timed run of one benchmark on one scene with one engine."""

    benchmark: str
    scene: str
    engine: str
    rays: int
    wall_time_s: float
    rays_per_sec: float
    node_fetches: int
    tri_fetches: int
    extra: Dict[str, float] = field(default_factory=dict)


def _timed(fn, repeats: int) -> Tuple[float, object]:
    """Best-of-``repeats`` wall time for ``fn()`` (minimum damps noise)."""
    best = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _trace_record(
    benchmark: str, scene_code: str, engine: str, bvh, rays, repeats: int
) -> BenchRecord:
    stats = TraversalStats()
    if benchmark == "occlusion_trace":
        def run():
            return trace_occlusion_batch(bvh, rays, stats=stats, engine=engine)
    else:
        def run():
            return trace_closest_batch(bvh, rays, stats=stats, engine=engine)
    wall, _ = _timed(run, repeats)
    n = len(rays)
    # Counters accumulated across repeats; report the per-run share.
    runs = max(1, repeats)
    return BenchRecord(
        benchmark=benchmark,
        scene=scene_code,
        engine=engine,
        rays=n,
        wall_time_s=round(wall, 6),
        rays_per_sec=round(n / wall, 1) if wall > 0 else float("inf"),
        node_fetches=stats.node_fetches // runs,
        tri_fetches=stats.tri_fetches // runs,
    )


def _sim_record(
    scene_code: str, engine: str, bvh, rays, preset: BenchPreset,
    predictor_enabled: bool = True,
) -> BenchRecord:
    sub = rays.subset(np.arange(min(preset.sim_rays, len(rays))))

    if predictor_enabled:
        def run():
            return simulate_predictor(
                bvh, sub, in_flight=preset.in_flight, engine=engine
            )
    else:
        # The ``predictor_off`` ladder rung: exact occlusion and
        # traversal traffic from plain full traversal, no table.
        def run():
            return simulate_baseline(bvh, sub, engine=engine)

    # The simulation trains a fresh table per call, so repeats are
    # independent; time a single run per repeat and keep the best.
    wall, result = _timed(run, preset.repeats)
    n = len(sub)
    extra = {
        "verified_rate": round(result.verified_rate, 6),
        "memory_savings": round(result.memory_savings, 6),
        "predicted_rate": round(result.predicted_rate, 6),
        "baseline_node_fetches": float(result.baseline_node_fetches),
    }
    if not predictor_enabled:
        extra["predictor_disabled"] = 1.0
    return BenchRecord(
        benchmark="predictor_sim",
        scene=scene_code,
        engine=engine,
        rays=n,
        wall_time_s=round(wall, 6),
        rays_per_sec=round(n / wall, 1) if wall > 0 else float("inf"),
        node_fetches=result.predictor_node_fetches,
        tri_fetches=result.predictor_tri_fetches,
        extra=extra,
    )


def _timing_record(
    scene_code: str, bvh, rays, preset: BenchPreset, predictor_enabled: bool,
) -> BenchRecord:
    """One RT-unit cycle-simulation run (``rt_timing`` benchmark).

    Runs at the paper's shape (``scaled_gpu_config()``).  Cycles, fetch
    counters and hit rates are exact functions of seed + scene + config;
    wall time is recorded for trend-watching only.
    """
    from repro.analysis.experiments import (
        scaled_gpu_config,
        scaled_predictor_config,
    )
    from repro.gpu.simulator import simulate_workload

    sub = rays.subset(np.arange(min(preset.sim_rays, len(rays))))
    config = scaled_gpu_config(
        scaled_predictor_config() if predictor_enabled else None
    )

    def run():
        return simulate_workload(bvh, sub, config)

    wall, out = _timed(run, preset.repeats)
    n = len(sub)
    extra = {
        "cycles": float(out.cycles),
        "l1_hit_rate": round(out.l1_hit_rate, 6),
        "l2_hit_rate": round(out.l2_hit_rate, 6),
        "dram_row_hits": float(out.dram_row_hits),
        "dram_row_hit_rate": round(out.dram_row_hit_rate, 6),
        "hit_rate": round(out.hit_rate, 6),
    }
    if predictor_enabled:
        extra["predicted_rate"] = round(out.predicted_rate, 6)
        extra["verified_rate"] = round(out.verified_rate, 6)
    return BenchRecord(
        benchmark="rt_timing_predictor" if predictor_enabled else "rt_timing",
        scene=scene_code,
        engine="scalar",
        rays=n,
        wall_time_s=round(wall, 6),
        rays_per_sec=round(n / wall, 1) if wall > 0 else float("inf"),
        node_fetches=out.node_fetches,
        tri_fetches=out.tri_fetches,
        extra=extra,
    )


def _build_records(
    preset: BenchPreset, code: str, build_engines: Sequence[str], say, scene
) -> List[BenchRecord]:
    """Timed BVH construction + refit for one scene (``bvh_build``).

    Every method in ``preset.build_methods`` builds once per build
    engine; the vector tree is compared array-for-array against the
    scalar oracle's and the verdict rides in the vector record's extras
    (``agrees_with_scalar``).  A refit pass then times both refit
    engines on a jittered copy of the SAH tree's mesh.  ``rays`` holds
    the triangle count, so ``rays_per_sec`` reads as build throughput
    in triangles/second.
    """
    from repro.bvh.builder import build_bvh
    from repro.bvh.refit import jitter_mesh, refit_bvh
    from repro.bvh.stats import compute_stats
    from repro.bvh.vector import trees_identical

    n = len(scene.mesh)
    records: List[BenchRecord] = []
    refit_base = None
    for method in preset.build_methods:
        trees: Dict[str, object] = {}
        method_records: Dict[str, BenchRecord] = {}
        for engine in build_engines:
            def run(method=method, engine=engine):
                return build_bvh(scene.mesh, method=method, engine=engine)

            wall, tree = _timed(run, preset.repeats)
            trees[engine] = tree
            stats = compute_stats(tree)
            rec = BenchRecord(
                benchmark=f"bvh_build_{method}",
                scene=code,
                engine=engine,
                rays=n,
                wall_time_s=round(wall, 6),
                rays_per_sec=round(n / wall, 1) if wall > 0 else float("inf"),
                node_fetches=0,
                tri_fetches=0,
                extra={
                    "nodes": float(tree.num_nodes),
                    "max_depth": float(stats.max_depth),
                    "sah_cost": round(stats.sah_cost, 6),
                    "levels": float(len(tree.levels())),
                },
            )
            records.append(rec)
            method_records[engine] = rec
            say(
                f"[{code}] {'bvh_build_' + method:16s} {engine:9s} "
                f"{rec.wall_time_s * 1e3:8.1f} ms  "
                f"{rec.rays_per_sec:>12,.0f} tris/s"
            )
        if "vector" in trees and "scalar" in trees:
            agree = trees_identical(trees["vector"], trees["scalar"])
            method_records["vector"].extra["agrees_with_scalar"] = float(agree)
        if method == "sah" or refit_base is None:
            refit_base = trees[build_engines[0]]

    deformed = jitter_mesh(refit_base.mesh, preset.build_jitter, seed=preset.seed)
    refitted: Dict[str, object] = {}
    refit_records: Dict[str, BenchRecord] = {}
    for engine in build_engines:
        def run_refit(engine=engine):
            return refit_bvh(refit_base, deformed, engine=engine)

        wall, out = _timed(run_refit, preset.repeats)
        refitted[engine] = out
        rec = BenchRecord(
            benchmark="bvh_refit",
            scene=code,
            engine=engine,
            rays=n,
            wall_time_s=round(wall, 6),
            rays_per_sec=round(n / wall, 1) if wall > 0 else float("inf"),
            node_fetches=0,
            tri_fetches=0,
            extra={"nodes": float(refit_base.num_nodes)},
        )
        records.append(rec)
        refit_records[engine] = rec
        say(
            f"[{code}] {'bvh_refit':16s} {engine:9s} "
            f"{rec.wall_time_s * 1e3:8.1f} ms  "
            f"{rec.rays_per_sec:>12,.0f} tris/s"
        )
    if "vector" in refitted and "scalar" in refitted:
        agree = np.array_equal(
            refitted["vector"].lo, refitted["scalar"].lo
        ) and np.array_equal(refitted["vector"].hi, refitted["scalar"].hi)
        refit_records["vector"].extra["agrees_with_scalar"] = float(agree)
    return records


def _scene_records(
    preset: BenchPreset,
    code: str,
    engines: Sequence[str],
    say,
    predictor_enabled: bool = True,
    *,
    build_engines: Sequence[str],
) -> List[BenchRecord]:
    """Run the full benchmark matrix for one scene (one sweep *unit*).

    ``engines`` are the traversal engines timed; ``build_engines`` the
    BVH builders the ``bvh_build`` benchmark times (the vector builder
    against its scalar oracle on the full rung).
    """
    records: List[BenchRecord] = []
    selected = tuple(getattr(preset, "benchmarks", BENCHMARKS))
    # The build benchmark times its own construction, so a unit that
    # runs nothing else skips the cached BVH and the AO workload.
    needs_workload = any(b != "bvh_build" for b in selected)
    say(f"[{code}] building scene (detail={preset.detail})")
    with telemetry.label_context(scene=code):
        scene = get_scene(code, detail=preset.detail)
        if "bvh_build" in selected:
            records.extend(
                _build_records(preset, code, build_engines, say, scene)
            )
        if not needs_workload:
            return records
        bvh = cached_build_bvh(scene.mesh)
        workload = generate_ao_workload(
            scene,
            bvh,
            width=preset.width,
            height=preset.height,
            spp=preset.spp,
            seed=preset.seed,
        )
        rays = workload.rays
        say(f"[{code}] {len(rays)} AO rays")
        for benchmark in ("occlusion_trace", "closest_trace"):
            if benchmark not in selected:
                continue
            for engine in engines:
                rec = _trace_record(
                    benchmark, code, engine, bvh, rays, preset.repeats
                )
                records.append(rec)
                say(
                    f"[{code}] {benchmark:16s} {engine:9s} "
                    f"{rec.wall_time_s * 1e3:8.1f} ms  {rec.rays_per_sec:>12,.0f} rays/s"
                )
        if "predictor_sim" in selected:
            for engine in engines:
                rec = _sim_record(
                    code, engine, bvh, rays, preset,
                    predictor_enabled=predictor_enabled,
                )
                records.append(rec)
                say(
                    f"[{code}] {'predictor_sim':16s} {engine:9s} "
                    f"{rec.wall_time_s * 1e3:8.1f} ms  {rec.rays_per_sec:>12,.0f} rays/s"
                )
        if "rt_timing" in selected:
            variants = (False, True) if predictor_enabled else (False,)
            for with_predictor in variants:
                rec = _timing_record(
                    code, bvh, rays, preset, predictor_enabled=with_predictor,
                )
                records.append(rec)
                say(
                    f"[{code}] {rec.benchmark:16s} {rec.engine:9s} "
                    f"{rec.wall_time_s * 1e3:8.1f} ms  "
                    f"cycles={int(rec.extra['cycles'])}"
                )
    return records


def _rung_plan(
    engines: Sequence[str], rung: str
) -> Tuple[Tuple[str, ...], Tuple[str, ...], bool]:
    """(traversal engines, build engines, predictor_enabled) at ``rung``.

    Rung semantics for a bench unit:

    * ``wavefront``     - the requested traversal engines with the
      predictor sim on, and the vector builders timed against the
      scalar oracle (scalar builders only when the caller asked for
      scalar traversal alone);
    * ``scalar``        - scalar engines only (lower peak memory);
    * ``predictor_off`` - scalar engines, predictor-disabled baseline
      simulation (:func:`repro.core.simulate.simulate_baseline`).
    """
    if rung == "wavefront":
        build = ("vector", "scalar") if "wavefront" in engines else ("scalar",)
        return tuple(engines), build, True
    return ("scalar",), ("scalar",), rung != "predictor_off"


def _bench_unit(
    preset: BenchPreset, engines: Tuple[str, ...], code: str, rung: str, say
) -> dict:
    """One bench sweep unit: the scene's records at ``rung``."""
    use_engines, build_engines, predictor_enabled = _rung_plan(engines, rung)
    records = _scene_records(
        preset, code, use_engines, say,
        predictor_enabled=predictor_enabled, build_engines=build_engines,
    )
    return {"records": [asdict(rec) for rec in records]}


def run_benchmarks(
    preset: BenchPreset,
    engines: Sequence[str] = ENGINES,
    scenes: Optional[Sequence[str]] = None,
    progress=None,
    resilience: Optional[ResilienceOptions] = None,
    fault_plan: Optional[UnitFaultPlan] = None,
    jobs: int = 1,
    aggregate_telemetry: bool = True,
) -> dict:
    """Run the full benchmark matrix for ``preset``.

    Args:
        preset: the pinned configuration to run.
        engines: traversal engines to time (default: both).
        scenes: optional scene-code override (subset runs for quick
            local iteration; the artifact records what actually ran).
        progress: optional callable receiving one-line status strings.
        resilience: run each scene as a supervised unit with
            checkpoint/resume, retry, and the degradation ladder; the
            artifact gains a ``resilience`` section.  None keeps the
            classic fail-fast behavior.
        fault_plan: chaos mode - deterministic synthetic unit failures
            (implies supervision even when ``resilience`` is None).
        jobs: worker processes sharding the scene units (1 = in
            process).  Results are deterministic, so the payload matches
            a serial run except for the timing fields.  With telemetry
            enabled, each worker ships its metrics/span snapshot back on
            the result path and the parent merges them
            (:mod:`repro.telemetry.distributed`), so the artifact's
            ``telemetry`` section equals the label-wise sum of the
            per-worker snapshots - identical in shape to a serial run.
        aggregate_telemetry: merge worker telemetry snapshots into the
            parent registry (the default).  Setting this ``False`` on a
            sharded run with telemetry enabled raises
            :class:`~repro.errors.TelemetryAggregationError` - worker
            metrics must never be dropped silently.

    Returns:
        The artifact payload (JSON-serializable dict).
    """
    scene_codes = tuple(scenes) if scenes else preset.scenes
    if not aggregate_telemetry and telemetry.enabled() and jobs > 1:
        raise TelemetryAggregationError(
            "telemetry is enabled and the sweep is sharded "
            f"(--jobs {jobs}), but telemetry aggregation is disabled; "
            "worker-side metrics would be dropped silently - re-enable "
            "aggregation, run serially, or disable telemetry"
        )
    if resilience is None and fault_plan is not None:
        resilience = ResilienceOptions()
    bodies, section = run_units(
        scene_codes,
        functools.partial(_bench_unit, preset, tuple(engines)),
        options=resilience,
        fault_plan=fault_plan,
        empty_body={"records": []},
        fingerprint=sweep_fingerprint(preset, scene_codes, engines),
        schema=BENCH_SCHEMA,
        jobs=jobs,
        say=progress,
    )
    records = [BenchRecord(**rec) for body in bodies for rec in body["records"]]
    payload = _build_payload(preset, scene_codes, records)
    if section is not None:
        payload["resilience"] = section
    return payload


def sweep_fingerprint(
    preset: BenchPreset,
    scene_codes: Sequence[str],
    engines: Sequence[str],
) -> dict:
    """The configuration identity a checkpoint pins a sweep to, plus
    the artifact cache's identity while the cache is on
    (:func:`~repro.resilience.sweep.pin_cache_identity`)."""
    return pin_cache_identity({
        "kind": "bench",
        "preset": asdict(preset),
        "scenes": list(scene_codes),
        "engines": list(engines),
    })


def _build_payload(
    preset: BenchPreset, scene_codes: Sequence[str], records: List[BenchRecord]
) -> dict:
    by_key = {(r.benchmark, r.scene, r.engine): r for r in records}
    speedups: Dict[str, Dict[str, float]] = {}
    for benchmark in BENCHMARKS:
        per_scene: Dict[str, float] = {}
        for code in scene_codes:
            scalar = by_key.get((benchmark, code, "scalar"))
            wave = by_key.get((benchmark, code, "wavefront"))
            if scalar and wave and wave.wall_time_s > 0:
                per_scene[code] = round(scalar.wall_time_s / wave.wall_time_s, 3)
        if per_scene:
            speedups[benchmark] = per_scene
    payload = {
        "schema": BENCH_SCHEMA,
        "name": preset.name,
        "preset": asdict(preset),
        "scenes": list(scene_codes),
        "results": [asdict(r) for r in records],
        "derived": {
            "speedup_wavefront_over_scalar": speedups,
            "predictor_throughput": _predictor_throughput(
                by_key, scene_codes
            ),
            "rt_timing": _rt_timing_section(by_key, scene_codes),
            "bvh_build": _bvh_build_section(by_key, scene_codes),
        },
    }
    section = distributed.payload_section()
    if section is not None:
        payload["telemetry"] = section
    return payload


def _predictor_throughput(
    by_key: Dict[Tuple[str, str, str], BenchRecord],
    scene_codes: Sequence[str],
) -> Dict[str, dict]:
    """Per-scene predictor-simulation summary (schema 4).

    ``rays_per_sec`` is machine-dependent and recorded for
    trend-watching; the regression gate uses the engine speedup (both
    engines time on the same host) and the deterministic rates and
    counters copied from the simulation's extras.
    """
    section: Dict[str, dict] = {}
    for code in scene_codes:
        scalar = by_key.get(("predictor_sim", code, "scalar"))
        wave = by_key.get(("predictor_sim", code, "wavefront"))
        row: Dict[str, object] = {}
        if wave is not None:
            row["rays_per_sec"] = wave.rays_per_sec
            row["rates"] = {
                key: wave.extra[key]
                for key in ("predicted_rate", "verified_rate",
                            "memory_savings")
                if key in wave.extra
            }
            row["node_fetches"] = wave.node_fetches
        if scalar is not None and wave is not None and wave.wall_time_s > 0:
            row["speedup_wavefront_over_scalar"] = round(
                scalar.wall_time_s / wave.wall_time_s, 3
            )
        if row:
            section[code] = row
    return section


def _rt_timing_section(
    by_key: Dict[Tuple[str, str, str], BenchRecord],
    scene_codes: Sequence[str],
) -> Dict[str, dict]:
    """Per-scene RT-unit timing summary (schema 5).

    ``cycles`` / ``cycles_predictor`` are machine-independent and gate
    exactly; the hit rates gate within the tolerance.
    """
    section: Dict[str, dict] = {}
    for code in scene_codes:
        base = by_key.get(("rt_timing", code, "scalar"))
        pred = by_key.get(("rt_timing_predictor", code, "scalar"))
        row: Dict[str, object] = {}
        if base is not None:
            row["cycles"] = base.extra["cycles"]
            for key in ("l1_hit_rate", "l2_hit_rate", "dram_row_hit_rate"):
                row[key] = base.extra[key]
        if pred is not None:
            row["cycles_predictor"] = pred.extra["cycles"]
            if base is not None and pred.extra["cycles"]:
                row["cycle_speedup_predictor"] = round(
                    base.extra["cycles"] / pred.extra["cycles"], 4
                )
        if row:
            section[code] = row
    return section


def _bvh_build_section(
    by_key: Dict[Tuple[str, str, str], BenchRecord],
    scene_codes: Sequence[str],
) -> Dict[str, dict]:
    """Per-scene BVH-construction summary (schema 6).

    Reconstructable from the records alone: ``nodes`` / ``max_depth`` /
    ``sah_cost`` per method are exact functions of scene + build
    parameters and gate exactly; ``engines_agree`` asserts every vector
    tree (and the refit bounds) matched the scalar oracle array-for-
    array in *this* run; the vector-over-scalar speedups gate against a
    tolerance floor like the other engine pairs.
    """
    methods = sorted({
        key[0][len("bvh_build_"):]
        for key in by_key
        if key[0].startswith("bvh_build_")
    })
    section: Dict[str, dict] = {}
    for code in scene_codes:
        per_method: Dict[str, dict] = {}
        agree_flags: List[bool] = []
        for method in methods:
            bench = f"bvh_build_{method}"
            vec = by_key.get((bench, code, "vector"))
            sca = by_key.get((bench, code, "scalar"))
            primary = vec or sca
            if primary is None:
                continue
            row = {
                "nodes": int(primary.extra["nodes"]),
                "max_depth": int(primary.extra["max_depth"]),
                "sah_cost": primary.extra["sah_cost"],
            }
            if vec is not None and "agrees_with_scalar" in vec.extra:
                agree_flags.append(bool(vec.extra["agrees_with_scalar"]))
            if vec is not None and sca is not None and vec.wall_time_s > 0:
                row["speedup_vector_over_scalar"] = round(
                    sca.wall_time_s / vec.wall_time_s, 3
                )
            per_method[method] = row
        scene_row: Dict[str, object] = {}
        if per_method:
            scene_row["methods"] = per_method
        refit_v = by_key.get(("bvh_refit", code, "vector"))
        refit_s = by_key.get(("bvh_refit", code, "scalar"))
        if refit_v is not None and "agrees_with_scalar" in refit_v.extra:
            agree_flags.append(bool(refit_v.extra["agrees_with_scalar"]))
        if refit_v is not None and refit_s is not None and refit_v.wall_time_s > 0:
            scene_row["refit_speedup_vector_over_scalar"] = round(
                refit_s.wall_time_s / refit_v.wall_time_s, 3
            )
        if agree_flags:
            scene_row["engines_agree"] = all(agree_flags)
        if scene_row:
            section[code] = scene_row
    return section


def write_payload(payload: dict, out_dir: str) -> str:
    """Write ``BENCH_<name>.json`` under ``out_dir``; returns the path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{payload['name']}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_payload(path: str) -> dict:
    """Load a ``BENCH_*.json`` artifact, validating its schema tag."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    schema = payload.get("schema")
    if schema not in ACCEPTED_SCHEMAS:
        raise ValueError(
            f"{path}: unsupported benchmark schema {schema!r} "
            f"(expected one of {', '.join(ACCEPTED_SCHEMAS)})"
        )
    return payload


def compare_payloads(
    current: dict, baseline: dict, tolerance: float = DEFAULT_TOLERANCE
) -> List[str]:
    """Regression check: current run vs. a committed baseline.

    Gated quantities (see module docstring for why):

    * each wavefront-over-scalar **speedup** may not fall more than
      ``tolerance`` below its baseline value;
    * each record's **node/tri fetch counters** may not drift more than
      ``tolerance`` from the baseline (they are deterministic for a
      pinned seed, so any drift is an algorithm change - new traversal
      logic should re-baseline deliberately, not silently);
    * each scene's **predictor-simulation rates** (predicted / verified
      / memory savings, from the ``predictor_throughput`` section) may
      not drift more than ``tolerance`` relative - like the counters,
      they are exact functions of seed + scene, so this is a
      correctness gate on the predictor pipeline that transfers across
      machines.

    Returns:
        Human-readable regression messages; empty means the gate passes.
    """
    problems: List[str] = []
    base_speed = baseline.get("derived", {}).get("speedup_wavefront_over_scalar", {})
    cur_speed = current.get("derived", {}).get("speedup_wavefront_over_scalar", {})
    for benchmark, scenes in base_speed.items():
        for code, base_value in scenes.items():
            cur_value = cur_speed.get(benchmark, {}).get(code)
            if cur_value is None:
                problems.append(
                    f"{benchmark}/{code}: speedup missing from current run "
                    f"(baseline {base_value}x)"
                )
                continue
            floor = base_value * (1.0 - tolerance)
            if cur_value < floor:
                problems.append(
                    f"{benchmark}/{code}: speedup regressed to {cur_value}x "
                    f"(baseline {base_value}x, floor {floor:.2f}x)"
                )

    base_pred = baseline.get("derived", {}).get("predictor_throughput", {})
    cur_pred = current.get("derived", {}).get("predictor_throughput", {})
    for code, base_row in base_pred.items():
        cur_row = cur_pred.get(code)
        if cur_row is None:
            problems.append(
                f"predictor_throughput/{code}: scene missing from current run"
            )
            continue
        for rate, base_value in base_row.get("rates", {}).items():
            cur_value = cur_row.get("rates", {}).get(rate)
            if cur_value is None:
                problems.append(
                    f"predictor_throughput/{code}: {rate} missing from "
                    f"current run (baseline {base_value})"
                )
                continue
            if base_value == 0:
                continue
            drift = abs(cur_value - base_value) / abs(base_value)
            if drift > tolerance:
                problems.append(
                    f"predictor_throughput/{code}: {rate} drifted "
                    f"{drift:.1%} ({base_value} -> {cur_value})"
                )

    base_rt = baseline.get("derived", {}).get("rt_timing", {})
    cur_rt = current.get("derived", {}).get("rt_timing", {})
    for code, base_row in base_rt.items():
        cur_row = cur_rt.get(code)
        if cur_row is None:
            problems.append(f"rt_timing/{code}: scene missing from current run")
            continue
        # Cycle counts are exact functions of seed + scene + config:
        # any drift is an algorithm change and must re-baseline.
        for key in ("cycles", "cycles_predictor"):
            if key not in base_row:
                continue
            cur_value = cur_row.get(key)
            if cur_value is None:
                problems.append(
                    f"rt_timing/{code}: {key} missing from current run "
                    f"(baseline {int(base_row[key])})"
                )
            elif cur_value != base_row[key]:
                problems.append(
                    f"rt_timing/{code}: {key} changed "
                    f"{int(base_row[key])} -> {int(cur_value)} "
                    "(cycle counts gate exactly)"
                )
        for key in ("l1_hit_rate", "l2_hit_rate", "dram_row_hit_rate"):
            base_value = base_row.get(key)
            if base_value is None:
                continue
            cur_value = cur_row.get(key)
            if cur_value is None:
                problems.append(
                    f"rt_timing/{code}: {key} missing from current run"
                )
                continue
            if base_value == 0:
                continue
            drift = abs(cur_value - base_value) / abs(base_value)
            if drift > tolerance:
                problems.append(
                    f"rt_timing/{code}: {key} drifted {drift:.1%} "
                    f"({base_value} -> {cur_value})"
                )

    base_build = baseline.get("derived", {}).get("bvh_build", {})
    cur_build = current.get("derived", {}).get("bvh_build", {})
    for code, base_row in base_build.items():
        cur_row = cur_build.get(code)
        if cur_row is None:
            problems.append(f"bvh_build/{code}: scene missing from current run")
            continue
        for method, base_m in base_row.get("methods", {}).items():
            cur_m = cur_row.get("methods", {}).get(method)
            if cur_m is None:
                problems.append(
                    f"bvh_build/{code}: method {method} missing from "
                    "current run"
                )
                continue
            # Node counts, tree depth and SAH cost are exact functions
            # of scene + build parameters: any drift is an algorithm
            # change and must re-baseline deliberately.
            for key in ("nodes", "max_depth", "sah_cost"):
                if key not in base_m:
                    continue
                cur_value = cur_m.get(key)
                if cur_value is None:
                    problems.append(
                        f"bvh_build/{code}/{method}: {key} missing from "
                        f"current run (baseline {base_m[key]})"
                    )
                elif cur_value != base_m[key]:
                    problems.append(
                        f"bvh_build/{code}/{method}: {key} changed "
                        f"{base_m[key]} -> {cur_value} "
                        "(tree shape gates exactly)"
                    )
            base_speedup = base_m.get("speedup_vector_over_scalar")
            if base_speedup is not None:
                cur_speedup = cur_m.get("speedup_vector_over_scalar")
                if cur_speedup is None:
                    problems.append(
                        f"bvh_build/{code}/{method}: vector speedup missing "
                        f"from current run (baseline {base_speedup}x)"
                    )
                else:
                    floor = base_speedup * (1.0 - tolerance)
                    if cur_speedup < floor:
                        problems.append(
                            f"bvh_build/{code}/{method}: vector speedup "
                            f"regressed to {cur_speedup}x (baseline "
                            f"{base_speedup}x, floor {floor:.2f}x)"
                        )
        # The vector builders must match the scalar oracles *in the
        # current run* - the differential gate, not a drift one.
        if base_row.get("engines_agree") and cur_row.get("engines_agree") is not True:
            problems.append(
                f"bvh_build/{code}: vector trees no longer match the "
                "scalar oracle (engines_agree is "
                f"{cur_row.get('engines_agree')!r})"
            )
        base_refit = base_row.get("refit_speedup_vector_over_scalar")
        if base_refit is not None:
            cur_refit = cur_row.get("refit_speedup_vector_over_scalar")
            if cur_refit is None:
                problems.append(
                    f"bvh_build/{code}: refit speedup missing from current "
                    f"run (baseline {base_refit}x)"
                )
            else:
                floor = base_refit * (1.0 - tolerance)
                if cur_refit < floor:
                    problems.append(
                        f"bvh_build/{code}: refit speedup regressed to "
                        f"{cur_refit}x (baseline {base_refit}x, "
                        f"floor {floor:.2f}x)"
                    )

    cur_records = {
        (r["benchmark"], r["scene"], r["engine"]): r
        for r in current.get("results", [])
    }
    for base_rec in baseline.get("results", []):
        key = (base_rec["benchmark"], base_rec["scene"], base_rec["engine"])
        cur_rec = cur_records.get(key)
        if cur_rec is None:
            problems.append(f"{'/'.join(key)}: record missing from current run")
            continue
        for counter in ("node_fetches", "tri_fetches"):
            base_value = base_rec[counter]
            cur_value = cur_rec[counter]
            if base_value == 0:
                continue
            drift = abs(cur_value - base_value) / base_value
            if drift > tolerance:
                problems.append(
                    f"{'/'.join(key)}: {counter} drifted {drift:.1%} "
                    f"({base_value} -> {cur_value})"
                )
    return problems


def check_against_baselines(
    payload: dict, baseline_dir: str, tolerance: float = DEFAULT_TOLERANCE
) -> List[str]:
    """Compare ``payload`` with its committed baseline, if one exists.

    A missing baseline is reported as a problem: the gate must never
    silently pass because someone forgot to commit the artifact.
    """
    path = os.path.join(baseline_dir, f"BENCH_{payload['name']}.json")
    if not os.path.exists(path):
        return [f"no committed baseline at {path}"]
    return compare_payloads(payload, load_payload(path), tolerance=tolerance)


def summarize(payload: dict) -> str:
    """Short human-readable summary of an artifact (CLI output)."""
    lines = [f"benchmark artifact: {payload['name']} ({payload['schema']})"]
    speed = payload.get("derived", {}).get("speedup_wavefront_over_scalar", {})
    for benchmark in BENCHMARKS:
        per_scene = speed.get(benchmark)
        if not per_scene:
            continue
        rendered = "  ".join(f"{code}={value}x" for code, value in per_scene.items())
        lines.append(f"  {benchmark:16s} wavefront speedup: {rendered}")
    throughput = payload.get("derived", {}).get("predictor_throughput", {})
    for code, row in throughput.items():
        rates = row.get("rates", {})
        lines.append(
            f"  predictor {code}: {row.get('rays_per_sec', 0):,.0f} rays/s  "
            f"verified {rates.get('verified_rate', 0.0):.1%}  "
            f"memory {rates.get('memory_savings', 0.0):+.1%}"
        )
    rt = payload.get("derived", {}).get("rt_timing", {})
    for code, row in rt.items():
        lines.append(
            f"  rt_timing {code}: cycles={int(row.get('cycles', 0))}  "
            f"predictor speedup {row.get('cycle_speedup_predictor', '-')}x  "
            f"row-hit {row.get('dram_row_hit_rate', 0.0):.1%}"
        )
    build = payload.get("derived", {}).get("bvh_build", {})
    for code, row in build.items():
        methods = row.get("methods", {})
        rendered = "  ".join(
            f"{method}={info.get('speedup_vector_over_scalar', '-')}x"
            for method, info in methods.items()
        )
        refit = row.get("refit_speedup_vector_over_scalar", "-")
        lines.append(
            f"  bvh_build {code}: {rendered}  refit={refit}x  "
            f"agree={row.get('engines_agree', '-')}"
        )
    return "\n".join(lines)
