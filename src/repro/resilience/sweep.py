"""The sweep driver behind ``repro bench`` and ``repro simulate``.

Both commands run one *unit* per scene.  :func:`run_units` owns the
loop they share: resume from the checkpoint, shard the pending units
across ``--jobs`` worker processes, supervise each unit on the
degradation ladder, checkpoint units as they complete, merge worker
telemetry in scene order, and assemble the partial-results manifest.
A command supplies only a picklable unit function (scene, rung ->
JSON-safe checkpoint body) and builds its own payload from the values.

This module also holds the ``repro simulate`` sweep itself: the
*functional* predictor simulation
(:func:`repro.core.simulate.simulate_predictor`) per scene, reporting
the paper's headline rates (predicted / verified / memory savings).
It always runs supervised, so the emitted ``SIM_<name>.json`` always
carries a manifest - a sweep with a broken scene still exits 0 with an
honest account of what happened.
"""

from __future__ import annotations

import functools
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.bvh.cache import (
    cached_build_bvh,
    configure_artifact_cache,
    get_artifact_cache,
)
from repro.core.simulate import simulate_baseline, simulate_predictor
from repro.faults.injector import UnitFaultPlan
from repro.rays import generate_ao_workload
from repro.resilience.checkpoint import SweepCheckpoint
from repro.resilience.degrade import LADDER, PartialResultsManifest, UnitEntry
from repro.resilience.supervisor import ResilienceOptions, RunSupervisor
from repro.scenes import get_scene
from repro.telemetry import distributed

#: A unit function: (scene code, ladder rung, progress sink) -> the
#: unit's JSON-safe checkpoint body (``{"records": ...}`` for bench,
#: ``{"row": ...}`` for simulate).
UnitFn = Callable[[str, str, Callable[[str], None]], dict]


def _quiet(msg: str) -> None:
    """Progress sink for worker processes: they report via the parent."""


def pin_cache_identity(fingerprint: dict) -> dict:
    """Add the active BVH artifact cache's identity to ``fingerprint``.

    The identity (enablement + on-disk format version, the key space
    every content address lives in) joins a checkpoint's fingerprint
    only while the cache is on, so a checkpoint written with the cache
    on refuses to resume with it off, and vice versa.
    """
    cache = get_artifact_cache()
    if cache is not None:
        fingerprint["artifact_cache"] = cache.fingerprint()
    return fingerprint


def _run_unit(
    code: str,
    unit_fn: UnitFn,
    supervisor: Optional[RunSupervisor],
    fault_plan: Optional[UnitFaultPlan],
    say: Callable[[str], None],
) -> Tuple[Optional[dict], Optional[UnitEntry]]:
    """Run one unit: directly (fail-fast) without a supervisor, else
    on the ladder.  Returns the unit's body (None when skipped) and its
    manifest entry (None when unsupervised)."""
    if supervisor is None:
        return unit_fn(code, LADDER[0], say), None

    def make_fn(rung: str):
        def run() -> dict:
            if fault_plan is not None:
                fault_plan.check(code)
            return unit_fn(code, rung, say)

        return run

    outcome = supervisor.run_unit(code, make_fn, progress=say)
    return outcome.value, outcome.entry


def _unit_worker(
    unit_fn: UnitFn,
    code: str,
    options: Optional[ResilienceOptions],
    fault_plan: Optional[UnitFaultPlan],
    cache_root: Optional[str],
    telemetry_on: bool,
    ambient_labels: Optional[Dict[str, str]],
) -> dict:
    """One unit in a ``--jobs`` worker process.

    A supervised worker owns the retry/degradation decisions for its
    unit (a fresh single-unit :class:`RunSupervisor` built from the same
    options, so backoff schedules stay seeded per unit and independent
    of sharding); the parent owns the checkpoint and the manifest.  The
    telemetry snapshot is captured *after* the unit settles, so a unit
    that degraded or was skipped still ships whatever partial metrics
    and spans its attempts recorded.
    """
    if cache_root:
        configure_artifact_cache(cache_root)
    distributed.init_worker(telemetry_on, ambient_labels)
    supervisor = RunSupervisor.from_options(options) if options else None
    injected = fault_plan.injected if fault_plan else 0
    body, entry = _run_unit(code, unit_fn, supervisor, fault_plan, _quiet)
    return {
        "body": body,
        "entry": entry.to_dict() if entry else None,
        "supervisor": supervisor.describe() if supervisor else None,
        # Faults injected into this worker's copy of the plan.
        "injected": fault_plan.injected - injected if fault_plan else 0,
        "telemetry": distributed.capture_snapshot(unit=code),
    }


def run_units(
    units: Sequence[str],
    unit_fn: UnitFn,
    *,
    options: Optional[ResilienceOptions],
    empty_body: dict,
    fingerprint: dict,
    schema: str,
    fault_plan: Optional[UnitFaultPlan] = None,
    jobs: int = 1,
    say: Optional[Callable[[str], None]] = None,
) -> Tuple[List[dict], Optional[dict]]:
    """Run every unit of a sweep; the one loop behind both commands.

    Args:
        units: scene codes, in artifact order.
        unit_fn: (code, rung, say) -> the unit's JSON-safe checkpoint
            body.  Must pickle (a module-level function or a
            :func:`functools.partial` of one) when ``jobs > 1``.
        options: None runs fail-fast: each unit at the top rung, its
            exception propagating, no checkpoint and no manifest.  Any
            :class:`ResilienceOptions` supervises each unit on the
            degradation ladder and checkpoints to
            ``options.checkpoint_path`` when set.
        empty_body: the body a skipped unit records, in the same shape
            as ``unit_fn``'s (``{"records": []}``, ``{"row": None}``).
        fingerprint: the configuration identity the checkpoint pins.
        schema: the artifact schema tag recorded in the checkpoint.
        fault_plan: chaos mode; checked before every supervised attempt.
        jobs: worker processes sharding the pending units.  Results are
            merged in ``units`` order, telemetry included, so the
            values match a serial run's except for timing fields.
        say: optional one-line progress sink.

    Returns:
        ``(bodies, resilience)``: one body per unit in ``units`` order
        (``empty_body`` for a skipped unit), and the artifact's
        ``resilience`` section (None when unsupervised).
    """
    say = say or _quiet
    supervisor = RunSupervisor.from_options(options) if options else None
    checkpoint: Optional[SweepCheckpoint] = None
    if options is not None and options.checkpoint_path:
        checkpoint = SweepCheckpoint(
            options.checkpoint_path, fingerprint, bench_schema=schema
        )
        if checkpoint.load(resume=options.resume):
            say(
                f"resuming from {checkpoint.path} "
                f"({len(checkpoint.completed)} unit(s) already complete)"
            )

    bodies: Dict[str, dict] = {}
    entries: Dict[str, UnitEntry] = {}
    pending: List[str] = []
    for code in units:
        if checkpoint is None or not checkpoint.has(code):
            pending.append(code)
            continue
        stored = dict(checkpoint.get(code))
        prior = stored.pop("entry", {})
        bodies[code] = stored
        entries[code] = UnitEntry(
            unit=code, status="resumed",
            rung=prior.get("rung", LADDER[0]), attempts=0,
        )
        telemetry.inc_counter("supervisor.checkpoint_hits", unit=code)
        say(f"[{code}] resumed from checkpoint (not re-run)")

    def settle(code: str, body: Optional[dict], entry: Optional[UnitEntry]):
        bodies[code] = empty_body if body is None else body
        if entry is None:
            return
        entries[code] = entry
        if checkpoint is not None:
            checkpoint.record(code, {**bodies[code], "entry": entry.to_dict()})

    if jobs > 1 and len(pending) > 1:
        cache = get_artifact_cache()
        telemetry_on = telemetry.enabled()
        worker = functools.partial(
            _unit_worker, unit_fn,
            options=options,
            fault_plan=fault_plan,
            cache_root=cache.root if cache else None,
            telemetry_on=telemetry_on,
            ambient_labels=telemetry.current_labels() if telemetry_on else None,
        )
        workers = min(jobs, len(pending))
        say(f"sharding {len(pending)} scene unit(s) across {workers} workers")
        snapshots: Dict[str, Optional[dict]] = {}
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(worker, code): code for code in pending}
            for future in as_completed(futures):
                code = futures[future]
                out = future.result()
                entry = UnitEntry(**out["entry"]) if out["entry"] else None
                if supervisor is not None:
                    for counter, value in out["supervisor"].items():
                        if counter in supervisor.counters:
                            supervisor.counters[counter] += value
                    supervisor.total_backoff_s += (
                        out["supervisor"]["total_backoff_s"]
                    )
                if fault_plan is not None:
                    fault_plan.injected += out["injected"]
                # Persist as each worker finishes, not in scene order:
                # a kill between completions loses only unfinished units.
                settle(code, out["body"], entry)
                snapshots[code] = out["telemetry"]
                status = f" ({entry.status})" if entry else ""
                say(f"[{code}] unit complete{status}")
        # Merge worker telemetry in scene order (not completion order):
        # counter addition commutes but gauge last-write-wins does not,
        # and scene order is what a serial run would have produced.
        for code in units:
            distributed.absorb_snapshot(snapshots.get(code))
    else:
        for code in pending:
            settle(code, *_run_unit(code, unit_fn, supervisor, fault_plan, say))

    ordered = [bodies[code] for code in units]
    if supervisor is None:
        return ordered, None
    manifest = PartialResultsManifest()
    for code in units:
        manifest.add(entries[code])
    say(manifest.summary())
    return ordered, {
        "enabled": True,
        "options": options.describe(),
        "supervisor": supervisor.describe(),
        "manifest": manifest.to_dict(),
        "checkpoint": checkpoint.describe() if checkpoint else None,
        "chaos": fault_plan.describe() if fault_plan else None,
    }


#: Artifact schema for ``SIM_<name>.json``.
SIM_SCHEMA = "repro-sim-sweep/1"


@dataclass(frozen=True)
class SimulatePreset:
    """Pinned configuration of one simulation sweep."""

    name: str = "simulate"
    scenes: Tuple[str, ...] = ("SB", "SP", "CK")
    width: int = 24
    height: int = 24
    spp: int = 2
    seed: int = 1
    detail: float = 0.5
    sim_rays: int = 512
    in_flight: int = 32


def _simulate_unit(
    preset: SimulatePreset, code: str, rung: str, say: Callable[[str], None]
) -> dict:
    """Simulate one scene at one ladder rung; returns its checkpoint body.

    Every rung runs the production engine; ``predictor_off`` reports the
    predictor-disabled baseline of the same rays instead.
    """
    with telemetry.label_context(scene=code):
        scene = get_scene(code, detail=preset.detail)
        bvh = cached_build_bvh(scene.mesh)
        workload = generate_ao_workload(
            scene, bvh,
            width=preset.width, height=preset.height,
            spp=preset.spp, seed=preset.seed,
        )
        rays = workload.rays.subset(
            np.arange(min(preset.sim_rays, len(workload.rays)))
        )
        if rung == "predictor_off":
            result = simulate_baseline(bvh, rays)
        else:
            result = simulate_predictor(bvh, rays, in_flight=preset.in_flight)
    say(
        f"[{code}] verified {result.verified_rate:.1%} "
        f"memory savings {result.memory_savings:+.1%}"
    )
    return {"row": {
        "scene": code,
        "predictor_enabled": rung != "predictor_off",
        "num_rays": result.num_rays,
        "predicted_rate": round(result.predicted_rate, 6),
        "verified_rate": round(result.verified_rate, 6),
        "hit_rate": round(result.hit_rate, 6),
        "memory_savings": round(result.memory_savings, 6),
        "node_savings": round(result.node_savings, 6),
        "guard_fallbacks": result.guard_fallbacks,
    }}


def sim_fingerprint(preset: SimulatePreset) -> dict:
    """The configuration identity a checkpoint pins a sweep to."""
    return pin_cache_identity({"kind": "simulate", "preset": asdict(preset)})


def run_simulation_sweep(
    preset: SimulatePreset,
    options: Optional[ResilienceOptions] = None,
    fault_plan: Optional[UnitFaultPlan] = None,
    progress=None,
    jobs: int = 1,
) -> dict:
    """Run the sweep; always returns a payload with a manifest.

    Every scene is a supervised unit of :func:`run_units` (default
    :class:`ResilienceOptions` when ``options`` is None), so ``jobs``
    and ``--resume`` behave exactly as for ``repro bench``.
    """
    bodies, resilience = run_units(
        preset.scenes,
        functools.partial(_simulate_unit, preset),
        options=options or ResilienceOptions(),
        fault_plan=fault_plan,
        empty_body={"row": None},
        fingerprint=sim_fingerprint(preset),
        schema=SIM_SCHEMA,
        jobs=jobs,
        say=progress,
    )
    payload = {
        "schema": SIM_SCHEMA,
        "name": preset.name,
        "preset": asdict(preset),
        "scenes": list(preset.scenes),
        "results": [b["row"] for b in bodies if b["row"] is not None],
        "resilience": resilience,
    }
    section = distributed.payload_section()
    if section is not None:
        payload["telemetry"] = section
    return payload


def summarize_sweep(payload: dict) -> str:
    """Short human-readable summary of a ``SIM_*.json`` artifact."""
    lines = [f"simulation sweep: {payload['name']} ({payload['schema']})"]
    for row in payload["results"]:
        tag = "" if row.get("predictor_enabled", True) else "  [predictor off]"
        lines.append(
            f"  {row['scene']:4s} "
            f"predicted {row['predicted_rate']:6.1%}  "
            f"verified {row['verified_rate']:6.1%}  "
            f"memory {row['memory_savings']:+7.1%}{tag}"
        )
    counts = payload["resilience"]["manifest"]["counts"]
    lines.append(
        f"  units: {counts['ok']} ok, {counts['resumed']} resumed, "
        f"{counts['degraded']} degraded, {counts['skipped']} skipped"
    )
    return "\n".join(lines)


__all__ = [
    "SIM_SCHEMA",
    "SimulatePreset",
    "pin_cache_identity",
    "run_simulation_sweep",
    "run_units",
    "sim_fingerprint",
    "summarize_sweep",
]
