"""Timed engine benchmarks emitting ``BENCH_<name>.json``.

Every benchmark is one entry of :data:`STAGES`, run per scene on
pinned-seed workloads (a preset's ``benchmarks`` selects which):
``occlusion_trace`` / ``closest_trace`` (batch any-hit / closest-hit
tracing of the scene's AO rays, per traversal engine), ``predictor_sim``
(the functional predictor simulation over a capped prefix),
``rt_timing`` (the RT-unit cycle simulation at the paper's shape) and
``bvh_build`` (BVH construction and refit, vector builders against the
scalar oracles).  An entry names its record function and the derived
sections it contributes, each with its gate rules and summary lines;
payload assembly, :func:`compare_payloads` and :func:`summarize` loop
over the table.

The JSON artifact (schema ``repro-bench/6``, documented in
``docs/BENCHMARKING.md``; older ``repro-bench/*`` artifacts are still
read) records wall time, rays/second, the deterministic traversal
counters and the derived sections.  When telemetry
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
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.bvh.cache import cached_build_bvh
from repro.bvh.refit import REFIT_ENGINES
from repro.bvh.vector import BUILD_ENGINES
from repro.core.simulate import simulate_baseline, simulate_predictor
from repro.errors import InputValidationError, TelemetryAggregationError
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

#: Allowed relative regression before the check fails (satellite spec: 20%).
DEFAULT_TOLERANCE = 0.20


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


#: Extra key of a ``predictor_sim`` wavefront record: the median of the
#: per-repeat paired scalar-over-wavefront wall-time ratios, the gated
#: speedup estimate.
PAIRED_SPEEDUP = "paired_speedup_over_scalar"

#: Records of one sweep, keyed by (benchmark, scene, engine).
RecordIndex = Dict[Tuple[str, str, str], BenchRecord]


def _timed(fn, repeats: int) -> Tuple[float, object]:
    """Best-of-``repeats`` wall time for ``fn()`` (minimum damps noise)."""
    best = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


@dataclass
class SceneUnit:
    """One scene unit's inputs to its stages; ``bvh`` and ``rays`` are
    set when the first stage that reads them runs."""

    preset: BenchPreset
    code: str
    predictor_enabled: bool
    scene: object
    bvh: object = None
    rays: object = None


def _record(
    benchmark: str, code: str, engine: str, n: int, wall: float,
    node_fetches: int = 0, tri_fetches: int = 0, extra: Optional[dict] = None,
) -> BenchRecord:
    rate = round(n / wall, 1) if wall > 0 else float("inf")
    return BenchRecord(
        benchmark, code, engine, n, round(wall, 6), rate,
        node_fetches, tri_fetches, extra or {},
    )


def _trace_records(benchmark: str, unit: SceneUnit) -> Iterable[BenchRecord]:
    trace = (
        trace_occlusion_batch if benchmark == "occlusion_trace"
        else trace_closest_batch
    )
    repeats = unit.preset.repeats
    # Counters accumulate across repeats; records report the per-run share.
    runs = max(1, repeats)
    for engine in ENGINES:
        stats = TraversalStats()
        wall, _ = _timed(
            lambda: trace(unit.bvh, unit.rays, stats=stats, engine=engine),
            repeats,
        )
        yield _record(
            benchmark, unit.code, engine, len(unit.rays), wall,
            stats.node_fetches // runs, stats.tri_fetches // runs,
        )


def _sim_records(benchmark: str, unit: SceneUnit) -> Iterable[BenchRecord]:
    preset = unit.preset
    sub = unit.rays.subset(np.arange(min(preset.sim_rays, len(unit.rays))))
    if unit.predictor_enabled:
        def run(engine):
            return simulate_predictor(
                unit.bvh, sub, in_flight=preset.in_flight, engine=engine
            )
    else:
        # The ``predictor_off`` ladder rung: exact occlusion and
        # traversal traffic from plain full traversal, no table.
        def run(engine):
            return simulate_baseline(unit.bvh, sub, engine=engine)

    # The simulation trains a fresh table per call, so repeats are
    # independent.  One untimed call per engine fills the baseline memo
    # and warms the caches; then the engines take turns within each
    # repeat, so a slow stretch of the host lands on both sides of that
    # repeat's scalar-over-wavefront ratio.  The gated speedup is the
    # median of those paired ratios; each record keeps its engine's
    # best single run for trend-watching.
    results = {engine: run(engine) for engine in ENGINES}
    walls: Dict[str, List[float]] = {engine: [] for engine in ENGINES}
    for _ in range(max(1, preset.repeats)):
        for engine in ENGINES:
            wall, results[engine] = _timed(lambda: run(engine), 1)
            walls[engine].append(wall)
    paired = [s / w for s, w in zip(walls["scalar"], walls["wavefront"])]
    for engine in ENGINES:
        result = results[engine]
        extra = {
            "verified_rate": round(result.verified_rate, 6),
            "memory_savings": round(result.memory_savings, 6),
            "predicted_rate": round(result.predicted_rate, 6),
            "baseline_node_fetches": float(result.baseline_node_fetches),
        }
        if not unit.predictor_enabled:
            extra["predictor_disabled"] = 1.0
        if engine == "wavefront":
            extra[PAIRED_SPEEDUP] = round(float(np.median(paired)), 3)
        yield _record(
            benchmark, unit.code, engine, len(sub), min(walls[engine]),
            result.predictor_node_fetches, result.predictor_tri_fetches, extra,
        )


def _timing_records(benchmark: str, unit: SceneUnit) -> Iterable[BenchRecord]:
    """RT-unit cycle-simulation runs: the baseline, then with the
    predictor (unless the ladder switched it off).

    Runs at the paper's shape (``scaled_gpu_config()``).  Cycles, fetch
    counters and hit rates are exact functions of seed + scene + config;
    wall time is recorded for trend-watching only.
    """
    from repro.analysis.experiments import (
        scaled_gpu_config,
        scaled_predictor_config,
    )
    from repro.gpu.simulator import simulate_workload

    preset = unit.preset
    sub = unit.rays.subset(np.arange(min(preset.sim_rays, len(unit.rays))))
    for predictor_enabled in (False, True) if unit.predictor_enabled else (False,):
        config = scaled_gpu_config(
            scaled_predictor_config() if predictor_enabled else None
        )
        wall, out = _timed(
            lambda: simulate_workload(unit.bvh, sub, config), preset.repeats
        )
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
        yield _record(
            f"{benchmark}_predictor" if predictor_enabled else benchmark,
            unit.code, "scalar", len(sub), wall,
            out.node_fetches, out.tri_fetches, extra,
        )


def _build_records(benchmark: str, unit: SceneUnit) -> List[BenchRecord]:
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

    preset, code = unit.preset, unit.code
    mesh = unit.scene.mesh
    n = len(mesh)
    records: List[BenchRecord] = []
    refit_base = None
    for method in preset.build_methods:
        trees: Dict[str, object] = {}
        method_records: Dict[str, BenchRecord] = {}
        for engine in BUILD_ENGINES:
            def run(method=method, engine=engine):
                return build_bvh(mesh, method=method, engine=engine)

            wall, tree = _timed(run, preset.repeats)
            trees[engine] = tree
            stats = compute_stats(tree)
            rec = _record(f"bvh_build_{method}", code, engine, n, wall, extra={
                "nodes": float(tree.num_nodes),
                "max_depth": float(stats.max_depth),
                "sah_cost": round(stats.sah_cost, 6),
                "levels": float(len(tree.levels())),
            })
            records.append(rec)
            method_records[engine] = rec
        agree = trees_identical(trees["vector"], trees["scalar"])
        method_records["vector"].extra["agrees_with_scalar"] = float(agree)
        if method == "sah" or refit_base is None:
            refit_base = trees["vector"]

    deformed = jitter_mesh(refit_base.mesh, preset.build_jitter, seed=preset.seed)
    refitted: Dict[str, object] = {}
    refit_records: Dict[str, BenchRecord] = {}
    for engine in REFIT_ENGINES:
        def run_refit(engine=engine):
            return refit_bvh(refit_base, deformed, engine=engine)

        wall, out = _timed(run_refit, preset.repeats)
        refitted[engine] = out
        rec = _record(
            "bvh_refit", code, engine, n, wall,
            extra={"nodes": float(refit_base.num_nodes)},
        )
        records.append(rec)
        refit_records[engine] = rec
    agree = np.array_equal(
        refitted["vector"].lo, refitted["scalar"].lo
    ) and np.array_equal(refitted["vector"].hi, refitted["scalar"].hi)
    refit_records["vector"].extra["agrees_with_scalar"] = float(agree)
    return records


def _speedup(slow: Optional[BenchRecord], fast: Optional[BenchRecord]):
    """``slow``'s wall time over ``fast``'s; None unless both ran."""
    if slow is not None and fast is not None and fast.wall_time_s > 0:
        return round(slow.wall_time_s / fast.wall_time_s, 3)
    return None


def _wave_speedup(by_key: RecordIndex, benchmark: str, code: str):
    """Scalar-over-wavefront speedup of one benchmark on one scene: the
    stage's paired estimate (:data:`PAIRED_SPEEDUP`) when it took one,
    else the ratio of best times; None unless both engines ran."""
    wave = by_key.get((benchmark, code, "wavefront"))
    scalar = by_key.get((benchmark, code, "scalar"))
    if wave is not None and scalar is not None and PAIRED_SPEEDUP in wave.extra:
        return wave.extra[PAIRED_SPEEDUP]
    return _speedup(scalar, wave)


def _engine_speedup_row(by_key: RecordIndex, benchmark: str) -> dict:
    """Scalar-over-wavefront speedups of one benchmark, per scene."""
    ratios = {
        code: _wave_speedup(by_key, benchmark, code)
        for (name, code, engine) in by_key
        if name == benchmark and engine == "wavefront"
    }
    return {code: ratio for code, ratio in ratios.items() if ratio is not None}


def _predictor_row(by_key: RecordIndex, code: str) -> dict:
    """Per-scene predictor-simulation summary (schema 4).

    ``rays_per_sec`` is machine-dependent and recorded for
    trend-watching; the regression gate uses the engine speedup (both
    engines time on the same host) and the deterministic rates and
    counters copied from the simulation's extras.
    """
    wave = by_key.get(("predictor_sim", code, "wavefront"))
    row: Dict[str, object] = {}
    if wave is not None:
        row["rays_per_sec"] = wave.rays_per_sec
        row["rates"] = {
            key: wave.extra[key]
            for key in ("predicted_rate", "verified_rate", "memory_savings")
            if key in wave.extra
        }
        row["node_fetches"] = wave.node_fetches
    ratio = _wave_speedup(by_key, "predictor_sim", code)
    if ratio is not None:
        row["speedup_wavefront_over_scalar"] = ratio
    return row


def _rt_timing_row(by_key: RecordIndex, code: str) -> dict:
    """Per-scene RT-unit timing summary (schema 5).

    ``cycles`` / ``cycles_predictor`` are machine-independent and gate
    exactly; the hit rates gate within the tolerance.
    """
    base = by_key.get(("rt_timing", code, "scalar"))
    pred = by_key.get(("rt_timing_predictor", code, "scalar"))
    row: Dict[str, object] = {}
    if base is not None:
        row["cycles"] = base.extra["cycles"]
        for key in TIMING_HIT_RATES:
            row[key] = base.extra[key]
    if pred is not None:
        row["cycles_predictor"] = pred.extra["cycles"]
        if base is not None and pred.extra["cycles"]:
            row["cycle_speedup_predictor"] = round(
                base.extra["cycles"] / pred.extra["cycles"], 4
            )
    return row


def _bvh_build_row(by_key: RecordIndex, code: str) -> dict:
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
        ratio = _speedup(sca, vec)
        if ratio is not None:
            row["speedup_vector_over_scalar"] = ratio
        per_method[method] = row
    scene_row: Dict[str, object] = {}
    if per_method:
        scene_row["methods"] = per_method
    refit_v = by_key.get(("bvh_refit", code, "vector"))
    refit_s = by_key.get(("bvh_refit", code, "scalar"))
    if refit_v is not None and "agrees_with_scalar" in refit_v.extra:
        agree_flags.append(bool(refit_v.extra["agrees_with_scalar"]))
    ratio = _speedup(refit_s, refit_v)
    if ratio is not None:
        scene_row["refit_speedup_vector_over_scalar"] = ratio
    if agree_flags:
        scene_row["engines_agree"] = all(agree_flags)
    return scene_row


def _speedup_line(benchmark: str, per_scene: dict) -> str:
    rendered = "  ".join(f"{code}={value}x" for code, value in per_scene.items())
    return f"  {benchmark:16s} wavefront speedup: {rendered}"


def _predictor_line(code: str, row: dict) -> str:
    rates = row.get("rates", {})
    return (
        f"  predictor {code}: {row.get('rays_per_sec', 0):,.0f} rays/s  "
        f"verified {rates.get('verified_rate', 0.0):.1%}  "
        f"memory {rates.get('memory_savings', 0.0):+.1%}"
    )


def _rt_timing_line(code: str, row: dict) -> str:
    return (
        f"  rt_timing {code}: cycles={int(row.get('cycles', 0))}  "
        f"predictor speedup {row.get('cycle_speedup_predictor', '-')}x  "
        f"row-hit {row.get('dram_row_hit_rate', 0.0):.1%}"
    )


def _bvh_build_line(code: str, row: dict) -> str:
    rendered = "  ".join(
        f"{method}={info.get('speedup_vector_over_scalar', '-')}x"
        for method, info in row.get("methods", {}).items()
    )
    return (
        f"  bvh_build {code}: {rendered}  "
        f"refit={row.get('refit_speedup_vector_over_scalar', '-')}x  "
        f"agree={row.get('engines_agree', '-')}"
    )


def exact(where: str, key: str, base, cur, show=str, note: str = ""):
    """Gate: any change fails (deterministic quantities)."""
    if cur != base:
        return f"{where}: {key} changed {show(base)} -> {show(cur)} ({note})"
    return None


def drift(where: str, key: str, base: float, cur: float, tolerance: float):
    """Gate: a relative change past ``tolerance`` fails (a zero baseline
    has no scale and is not gated)."""
    change = abs(cur - base) / abs(base) if base else 0.0
    if change > tolerance:
        return f"{where}: {key} drifted {change:.1%} ({base} -> {cur})"
    return None


def floor(where: str, label: str, base: float, cur: float, tolerance: float):
    """Gate: a speedup below ``(1 - tolerance)`` x its baseline fails."""
    bound = base * (1.0 - tolerance)
    if cur < bound:
        return (
            f"{where}: {label} regressed to {cur}x "
            f"(baseline {base}x, floor {bound:.2f}x)"
        )
    return None


@dataclass(frozen=True)
class Gate:
    """A gate rule on a derived-section row.

    ``kind`` is ``exact``, ``drift`` or ``floor``, or ``agree``: true
    now wherever the baseline was true (absolute, not a comparison).
    ``keys`` are the gated fields of the row's ``at`` sub-mapping;
    ``("*",)`` gates every baseline entry, in order.  ``label`` names
    the quantity in place of the key (a fanned-out key then joins the
    location); ``show`` renders values in messages (None leaves the
    baseline out of "missing" ones); ``note`` says why a key is exact.
    """

    kind: str
    keys: Tuple[str, ...] = ("*",)
    at: str = ""
    label: str = ""
    show: Optional[Callable] = str
    note: str = ""

    def check(self, where: str, key: str, base, cur, tolerance: float):
        name = self.label or key
        if self.kind == "agree":
            if base and cur is not True:
                return (
                    f"{where}: vector trees no longer match the scalar "
                    f"oracle ({key} is {cur!r})"
                )
            return None
        if cur is None:
            shown = "" if self.show is None else f" (baseline {self.show(base)})"
            return f"{where}: {name} missing from current run{shown}"
        if self.kind == "exact":
            return exact(where, name, base, cur, self.show, self.note)
        if self.kind == "drift":
            return drift(where, name, base, cur, tolerance)
        return floor(where, name, base, cur, tolerance)


@dataclass(frozen=True)
class Each:
    """``gates`` applied to every entry of a row's ``at`` mapping."""

    at: str
    noun: str
    gates: tuple


def _gate_row(rules, where, base_row, cur_row, tolerance, problems) -> None:
    for rule in rules:
        base = base_row.get(rule.at, {}) if rule.at else base_row
        cur = cur_row.get(rule.at, {}) if rule.at else cur_row
        if isinstance(rule, Each):
            for name, entry in base.items():
                if name not in cur:
                    problems.append(
                        f"{where}: {rule.noun} {name} missing from current run"
                    )
                    continue
                _gate_row(
                    rule.gates, f"{where}/{name}", entry, cur[name],
                    tolerance, problems,
                )
            continue
        fan_out = rule.keys == ("*",)
        for key in base if fan_out else rule.keys:
            if base.get(key) is None:
                continue
            at = f"{where}/{key}" if fan_out and rule.label else where
            problem = rule.check(at, key, base[key], cur.get(key), tolerance)
            if problem:
                problems.append(problem)


@dataclass(frozen=True)
class Section:
    """A derived section: ``row(by_key, name)`` builds each non-empty
    row, ``gates`` check it, ``line`` summarizes it.  Rows are scenes (a
    missing one is reported; messages read ``<key>/<scene>``) except in
    the engine-speedup section, keyed by bare benchmark."""

    key: str
    row: Callable[[RecordIndex, str], dict]
    gates: tuple
    line: Callable[[str, dict], str]
    by_scene: bool = True

    def build(self, by_key: RecordIndex, scene_codes: Sequence[str]) -> dict:
        names = scene_codes if self.by_scene else STAGES
        rows = {name: self.row(by_key, name) for name in names}
        return {name: row for name, row in rows.items() if row}

    def gate(self, base: dict, cur: dict, tolerance: float) -> List[str]:
        problems: List[str] = []
        for name, row in base.items():
            where = f"{self.key}/{name}" if self.by_scene else name
            if self.by_scene and name not in cur:
                problems.append(f"{where}: scene missing from current run")
            else:
                _gate_row(
                    self.gates, where, row, cur.get(name, {}), tolerance,
                    problems,
                )
        return problems


#: Cache and DRAM row-buffer hit rates of the timing baseline.
TIMING_HIT_RATES = ("l1_hit_rate", "l2_hit_rate", "dram_row_hit_rate")

ENGINE_SPEEDUP = Section(
    "speedup_wavefront_over_scalar", _engine_speedup_row,
    (Gate("floor", label="speedup", show="{}x".format),),
    _speedup_line, by_scene=False,
)
PREDICTOR_THROUGHPUT = Section(
    "predictor_throughput", _predictor_row,
    # Exact functions of seed + scene, like the fetch counters: a
    # correctness gate on the predictor pipeline that transfers across
    # machines.
    (Gate("drift", at="rates"),),
    _predictor_line,
)
RT_TIMING = Section(
    "rt_timing", _rt_timing_row,
    (
        # Exact functions of seed + scene + config: any drift is an
        # algorithm change and must re-baseline.
        Gate("exact", ("cycles", "cycles_predictor"), show=int,
             note="cycle counts gate exactly"),
        Gate("drift", TIMING_HIT_RATES, show=None),
    ),
    _rt_timing_line,
)
BVH_BUILD = Section(
    "bvh_build", _bvh_build_row,
    (
        Each("methods", "method", (
            # Exact functions of scene + build parameters: any drift is
            # an algorithm change and must re-baseline deliberately.
            Gate("exact", ("nodes", "max_depth", "sah_cost"),
                 note="tree shape gates exactly"),
            Gate("floor", ("speedup_vector_over_scalar",),
                 label="vector speedup", show="{}x".format),
        )),
        # The vector builders must match the scalar oracles *in the
        # current run* - the differential gate, not a drift one.
        Gate("agree", ("engines_agree",)),
        Gate("floor", ("refit_speedup_vector_over_scalar",),
             label="refit speedup", show="{}x".format),
    ),
    _bvh_build_line,
)


@dataclass(frozen=True)
class Stage:
    """One benchmark: ``records(name, unit)`` yields its records for a
    scene unit; ``sections`` are the derived sections it contributes;
    ``needs_workload``: whether it reads the scene's BVH and AO rays;
    ``quick_keeps_repeats``: ``repro bench --quick`` keeps the preset's
    best-of repeats instead of timing a single run."""

    records: Callable[[str, SceneUnit], Iterable[BenchRecord]]
    sections: Tuple[Section, ...]
    needs_workload: bool = True
    quick_keeps_repeats: bool = False


#: The benchmarks, in artifact order.  Payload assembly, the regression
#: gate and the summary loop over this table.
STAGES: Dict[str, Stage] = {
    "occlusion_trace": Stage(_trace_records, (ENGINE_SPEEDUP,)),
    "closest_trace": Stage(_trace_records, (ENGINE_SPEEDUP,)),
    "predictor_sim": Stage(_sim_records, (ENGINE_SPEEDUP, PREDICTOR_THROUGHPUT)),
    "rt_timing": Stage(_timing_records, (RT_TIMING,)),
    # Builds finish in milliseconds, so single-repeat speedup ratios are
    # too noisy for the gated floors (and the sweep is short anyway).
    "bvh_build": Stage(
        _build_records, (BVH_BUILD,), needs_workload=False,
        quick_keeps_repeats=True,
    ),
}

#: Every derived section, in the order the stages declare them.
SECTIONS: Tuple[Section, ...] = tuple(
    dict.fromkeys(s for stage in STAGES.values() for s in stage.sections)
)


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
    #: Which benchmarks to run (names of :data:`STAGES`); the predictor
    #: preset times only the simulation pipeline, the timing preset only
    #: the RT-unit cycle simulator.
    benchmarks: Tuple[str, ...] = (
        "occlusion_trace", "closest_trace", "predictor_sim",
    )
    #: Build methods timed by the ``bvh_build`` benchmark, each once
    #: per build engine (vector frontier builder + scalar oracle).
    build_methods: Tuple[str, ...] = ("sah", "median", "lbvh")
    #: Per-triangle jitter magnitude for the ``bvh_refit`` benchmark's
    #: deformed mesh (same ``seed`` as the workload).
    build_jitter: float = 0.05

    def __post_init__(self) -> None:
        unknown = [name for name in self.benchmarks if name not in STAGES]
        if unknown:
            raise InputValidationError(
                f"unknown benchmark(s) {', '.join(map(repr, unknown))}; "
                f"registered stages: {', '.join(STAGES)}"
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
    # The gated speedup ratio sits near 3-5x and single calls take
    # ~30 ms (wavefront) and ~130 ms (scalar), so host jitter is a large
    # fraction of the band: the gate takes the median of 9 paired
    # per-repeat ratios (see ``_sim_records``).
    repeats=9,
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


def _rate(rec: BenchRecord) -> str:
    """A progress line's figure: simulated cycles, else throughput."""
    if "cycles" in rec.extra:
        return f"cycles={int(rec.extra['cycles'])}"
    unit = "tris/s" if rec.benchmark.startswith("bvh_") else "rays/s"
    return f"{rec.rays_per_sec:>12,.0f} {unit}"


def _scene_records(
    preset: BenchPreset, code: str, say, predictor_enabled: bool = True
) -> List[BenchRecord]:
    """Run the preset's stages for one scene (one sweep *unit*).

    Every stage times all of its engines (:data:`ENGINES`, or the BVH
    builders' :data:`BUILD_ENGINES`); ``predictor_enabled`` False is
    the ``predictor_off`` ladder rung.
    """
    # Stages that build their own inputs run first; the cached BVH and
    # the AO workload are built only if a selected stage reads them.
    selected = sorted(
        (name for name in STAGES if name in preset.benchmarks),
        key=lambda name: STAGES[name].needs_workload,
    )
    records: List[BenchRecord] = []
    say(f"[{code}] building scene (detail={preset.detail})")
    with telemetry.label_context(scene=code):
        unit = SceneUnit(
            preset, code, predictor_enabled,
            scene=get_scene(code, detail=preset.detail),
        )
        for name in selected:
            if STAGES[name].needs_workload and unit.rays is None:
                unit.bvh = cached_build_bvh(unit.scene.mesh)
                unit.rays = generate_ao_workload(
                    unit.scene, unit.bvh, width=preset.width,
                    height=preset.height, spp=preset.spp, seed=preset.seed,
                ).rays
                say(f"[{code}] {len(unit.rays)} AO rays")
            for rec in STAGES[name].records(name, unit):
                records.append(rec)
                say(
                    f"[{code}] {rec.benchmark:16s} {rec.engine:9s} "
                    f"{rec.wall_time_s * 1e3:8.1f} ms  {_rate(rec)}"
                )
    return records


def _bench_unit(preset: BenchPreset, code: str, rung: str, say) -> dict:
    """One bench sweep unit: the scene's records at ``rung``.  A rung
    decides only whether the predictor runs; every rung times the same
    engines."""
    records = _scene_records(
        preset, code, say, predictor_enabled=rung != "predictor_off"
    )
    return {"records": [asdict(rec) for rec in records]}


def run_benchmarks(
    preset: BenchPreset,
    scenes: Optional[Sequence[str]] = None,
    progress=None,
    resilience: Optional[ResilienceOptions] = None,
    fault_plan: Optional[UnitFaultPlan] = None,
    jobs: int = 1,
    aggregate_telemetry: bool = True,
) -> dict:
    """Run the full benchmark matrix for ``preset``.

    Args:
        preset: the pinned configuration to run.  Every scene times
            both traversal engines (:data:`ENGINES`) and both BVH
            builders, at every rung of the degradation ladder.
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
        functools.partial(_bench_unit, preset),
        options=resilience,
        fault_plan=fault_plan,
        empty_body={"records": []},
        fingerprint=sweep_fingerprint(preset, scene_codes),
        schema=BENCH_SCHEMA,
        jobs=jobs,
        say=progress,
    )
    records = [BenchRecord(**rec) for body in bodies for rec in body["records"]]
    payload = _build_payload(preset, scene_codes, records)
    if section is not None:
        payload["resilience"] = section
    return payload


def sweep_fingerprint(preset: BenchPreset, scene_codes: Sequence[str]) -> dict:
    """The configuration identity a checkpoint pins a sweep to, plus
    the artifact cache's identity while the cache is on
    (:func:`~repro.resilience.sweep.pin_cache_identity`)."""
    return pin_cache_identity({
        "kind": "bench",
        "preset": asdict(preset),
        "scenes": list(scene_codes),
    })


def _build_payload(
    preset: BenchPreset, scene_codes: Sequence[str], records: List[BenchRecord]
) -> dict:
    by_key = {(r.benchmark, r.scene, r.engine): r for r in records}
    payload = {
        "schema": BENCH_SCHEMA,
        "name": preset.name,
        "preset": asdict(preset),
        "scenes": list(scene_codes),
        "results": [asdict(r) for r in records],
        "derived": {
            section.key: section.build(by_key, scene_codes)
            for section in SECTIONS
        },
    }
    section = distributed.payload_section()
    if section is not None:
        payload["telemetry"] = section
    return payload


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

    Each derived section is gated by the rules its stage declares
    (:data:`SECTIONS`): speedups may not fall more than ``tolerance``
    below baseline, deterministic rates not drift more than it, cycle
    counts and tree shapes not change at all, and the vector builders
    must agree with the scalar oracles.  Each record's **node/tri fetch
    counters** may not drift more than ``tolerance`` either: they are
    exact for a pinned seed, so drift is an algorithm change that
    should re-baseline deliberately, not slip through.

    Returns:
        Human-readable regression messages; empty means the gate passes.
    """
    base_derived = baseline.get("derived", {})
    cur_derived = current.get("derived", {})
    problems: List[str] = []
    for section in SECTIONS:
        problems += section.gate(
            base_derived.get(section.key, {}),
            cur_derived.get(section.key, {}),
            tolerance,
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
            problem = drift(
                "/".join(key), counter, base_rec[counter], cur_rec[counter],
                tolerance,
            )
            if problem:
                problems.append(problem)
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
    derived = payload.get("derived", {})
    for section in SECTIONS:
        for name, row in derived.get(section.key, {}).items():
            lines.append(section.line(name, row))
    return "\n".join(lines)
