"""Telemetry workload runner behind the ``repro telemetry`` subcommand.

Runs one scene through the whole instrumented pipeline - scene load,
BVH build, AO workload generation, batch occlusion tracing, the
functional predictor simulation, and a (scaled) RT-unit timing run -
with telemetry enabled, then assembles a ``telemetry.json`` payload
(schema ``repro-telemetry/1``): the full metrics snapshot, per-stage
span summaries, phase wall/CPU timings, the Chrome ``trace_event``
array, and an optional sampling profile.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from repro import telemetry
from repro.telemetry.schema import TELEMETRY_SCHEMA
from repro.telemetry.tracing import summarize_spans


@dataclass(frozen=True)
class TelemetryPreset:
    """Workload knobs for one telemetry run (embedded in the payload)."""

    scene: str = "SP"
    detail: float = 1.0
    width: int = 32
    height: int = 32
    spp: int = 2
    seed: int = 1
    sim_rays: int = 1024
    rt_rays: int = 512
    in_flight: int = 32

    def scaled_for_quick(self) -> "TelemetryPreset":
        """The CI smoke shape: tiny but still exercising every stage."""
        return TelemetryPreset(
            scene=self.scene,
            detail=min(self.detail, 0.4),
            width=16,
            height=16,
            spp=2,
            seed=self.seed,
            sim_rays=256,
            rt_rays=256,
            in_flight=self.in_flight,
        )


def run_telemetry_workload(
    preset: TelemetryPreset,
    profile: bool = False,
    profile_interval_s: float = 0.005,
) -> dict:
    """Run the instrumented pipeline and return the payload dict.

    Telemetry is force-enabled (and reset) for the duration of the run
    and restored to its previous switch state afterwards, so this can
    drive both the CLI and tests without leaking global state.
    """
    # Imports are deferred so ``import repro.telemetry`` stays cycle-free.
    from repro.analysis.experiments import (
        scaled_gpu_config,
        scaled_predictor_config,
    )
    from repro.bvh import build_bvh
    from repro.core.simulate import simulate_predictor
    from repro.gpu import simulate_workload
    from repro.rays import generate_ao_workload
    from repro.scenes import get_scene
    from repro.telemetry.stats import TraversalStats
    from repro.trace import DEFAULT_ENGINE, trace_occlusion_batch

    was_enabled = telemetry.enabled()
    telemetry.enable(reset=True)
    profiler = None
    timer = telemetry.get_phase_timer()
    try:
        if profile:
            profiler = telemetry.SamplingProfiler(
                interval_s=profile_interval_s
            )
            profiler.start()
        with telemetry.label_context(scene=preset.scene):
            with timer.phase("scene.load"), telemetry.span(
                "scene.load", scene=preset.scene, detail=preset.detail
            ):
                scene = get_scene(preset.scene, detail=preset.detail)
            with timer.phase("bvh.build"):
                bvh = build_bvh(scene.mesh)
            with timer.phase("workload.generate"):
                workload = generate_ao_workload(
                    scene, bvh,
                    width=preset.width, height=preset.height,
                    spp=preset.spp, seed=preset.seed,
                )
            rays = workload.rays

            with timer.phase("trace.occlusion"):
                stats = TraversalStats()
                trace_occlusion_batch(bvh, rays, stats=stats)

            sim_sub = rays.subset(
                np.arange(min(preset.sim_rays, len(rays)))
            )
            with timer.phase("sim.predictor"), telemetry.span(
                "sim.predictor", rays=len(sim_sub), engine=DEFAULT_ENGINE
            ):
                sim = simulate_predictor(
                    bvh, sim_sub, in_flight=preset.in_flight
                )

            rt_sub = rays.subset(np.arange(min(preset.rt_rays, len(rays))))
            with timer.phase("gpu.rt_unit"), telemetry.span(
                "gpu.simulate_workload", rays=len(rt_sub)
            ):
                gpu = simulate_workload(
                    bvh, rt_sub,
                    scaled_gpu_config(scaled_predictor_config()),
                )

        tracer = telemetry.get_tracer()
        payload = {
            "schema": TELEMETRY_SCHEMA,
            "scene": preset.scene,
            "preset": asdict(preset),
            "metrics": telemetry.get_registry().snapshot(),
            "spans": summarize_spans(tracer.events()),
            "phases": timer.report(),
            "trace_events": tracer.chrome_trace(),
            "dropped_events": tracer.dropped,
            "headline": {
                "rays": len(rays),
                "sim_verified_rate": round(sim.verified_rate, 6),
                "sim_memory_savings": round(sim.memory_savings, 6),
                "trace_node_fetches": stats.node_fetches,
                "gpu_cycles": gpu.cycles,
                "gpu_l1_hit_rate": round(gpu.l1_hit_rate, 6),
            },
        }
        if profiler is not None:
            profiler.stop()
            payload["profile"] = profiler.report()
        return payload
    finally:
        if profiler is not None:
            profiler.stop()
        if not was_enabled:
            telemetry.disable()


def write_telemetry(payload: dict, path: str) -> str:
    """Write the payload as JSON at ``path`` (directories created)."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_telemetry(path: str) -> dict:
    """Load a ``telemetry.json``, checking the schema tag."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    schema = payload.get("schema")
    if schema != TELEMETRY_SCHEMA:
        raise ValueError(
            f"{path}: unsupported telemetry schema {schema!r} "
            f"(expected {TELEMETRY_SCHEMA!r})"
        )
    return payload


def _counter_rows(metrics: dict, prefix: str, limit: int = 12) -> list:
    rows = []
    for entry in metrics.get("counters", []):
        if not entry["name"].startswith(prefix):
            continue
        labels = ",".join(
            f"{k}={v}" for k, v in sorted(entry["labels"].items())
        )
        rows.append([entry["name"], labels, entry["value"]])
        if len(rows) >= limit:
            break
    return rows


def summarize_telemetry(payload: dict) -> str:
    """Human-readable summary: headline, stage timings, key counters."""
    from repro.analysis.tables import format_table

    lines = [
        f"telemetry artifact: scene {payload['scene']} ({payload['schema']})"
    ]
    headline = payload.get("headline", {})
    if headline:
        lines.append(
            "  rays={rays}  verified={v:.1%}  mem_savings={m:+.1%}  "
            "gpu_cycles={c}  l1_hit={l1:.1%}".format(
                rays=headline.get("rays", 0),
                v=headline.get("sim_verified_rate", 0.0),
                m=headline.get("sim_memory_savings", 0.0),
                c=headline.get("gpu_cycles", 0),
                l1=headline.get("gpu_l1_hit_rate", 0.0),
            )
        )
    span_rows = [
        [name, s["count"], s["total_ms"], s["mean_ms"], s["max_ms"]]
        for name, s in list(payload.get("spans", {}).items())[:12]
    ]
    if span_rows:
        lines.append(format_table(
            ["Stage", "Count", "Total ms", "Mean ms", "Max ms"],
            span_rows, title="Per-stage spans",
        ))
    counter_rows = (
        _counter_rows(payload.get("metrics", {}), "predictor.")
        + _counter_rows(payload.get("metrics", {}), "cache.")
    )
    if counter_rows:
        lines.append(format_table(
            ["Counter", "Labels", "Value"], counter_rows,
            title="Key counters",
        ))
    profile = payload.get("profile")
    if profile:
        hot = [
            [entry["frame"], entry["samples"]]
            for entry in profile.get("hot_functions", [])[:10]
        ]
        lines.append(format_table(
            ["Hot frame", "Samples"], hot,
            title=f"Sampling profile ({profile.get('total_samples', 0)} samples)",
        ))
    return "\n".join(lines)


__all__ = [
    "TelemetryPreset",
    "load_telemetry",
    "run_telemetry_workload",
    "summarize_telemetry",
    "write_telemetry",
]
