"""Process-sharded sweeps: determinism, resume composition, fingerprints.

``--jobs N`` must be a pure throughput knob: every unit is a pure
function of the pinned preset, so a sharded sweep's artifact has to
match the serial artifact except for wall-clock timing fields.  These
tests pin that contract, plus the interaction with checkpoints (a
mid-sweep kill resumes under ``--jobs``) and the artifact-cache
fingerprint (cached and uncached runs refuse to mix).  Both sweep kinds
(``repro bench`` and ``repro simulate``) run through the same driver,
:func:`repro.resilience.sweep.run_units`, so the driver-level contracts
are parametrized over both.
"""

import copy
import json

import pytest

from repro.bench.harness import (
    BENCH_SCHEMA,
    BenchPreset,
    run_benchmarks,
    sweep_fingerprint,
)
from repro.bvh.cache import configure_artifact_cache
from repro.errors import CheckpointError
from repro.faults.injector import UnitFaultPlan
from repro.resilience import CHECKPOINT_SCHEMA, ResilienceOptions, SweepCheckpoint
from repro.resilience.sweep import (
    SIM_SCHEMA,
    SimulatePreset,
    run_simulation_sweep,
    sim_fingerprint,
)
from repro.trace.wavefront import ENGINES

#: Two tiny scenes so sharding across 2 workers is non-trivial.
PAR_PRESET = BenchPreset(
    name="partest",
    scenes=("SB", "CK"),
    width=6,
    height=6,
    spp=1,
    seed=1,
    detail=0.25,
    sim_rays=32,
    repeats=1,
)

SIM_PRESET = SimulatePreset(
    name="partest",
    scenes=("SB", "CK"),
    width=8,
    height=8,
    spp=1,
    detail=0.25,
    sim_rays=64,
)

#: Fields that legitimately differ between runs (wall-clock derived).
TIMING_KEYS = frozenset(
    {"wall_time_s", "rays_per_sec", "speedup_wavefront_over_scalar",
     "total_backoff_s"}
)


#: Both sweep front ends over their two-scene test presets.
SWEEPS = {
    "bench": lambda options=None, **kw: run_benchmarks(
        PAR_PRESET, resilience=options, **kw
    ),
    "simulate": lambda **kw: run_simulation_sweep(SIM_PRESET, **kw),
}

#: Per sweep kind: checkpoint schema tag, fingerprint, unit body key,
#: and a result field a hand-written checkpoint can mark.
CHECKPOINT_FORMAT = {
    "bench": (
        BENCH_SCHEMA,
        lambda: sweep_fingerprint(PAR_PRESET, PAR_PRESET.scenes, ENGINES),
        "records",
        "wall_time_s",
    ),
    "simulate": (
        SIM_SCHEMA, lambda: sim_fingerprint(SIM_PRESET), "row", "hit_rate",
    ),
}


def unit_statuses(payload):
    return {
        entry["unit"]: entry["status"]
        for entry in payload["resilience"]["manifest"]["units"]
    }


def strip_timing(obj):
    """Drop wall-clock-derived fields so payloads compare structurally."""
    if isinstance(obj, dict):
        return {
            key: strip_timing(value)
            for key, value in obj.items()
            if key not in TIMING_KEYS
        }
    if isinstance(obj, list):
        return [strip_timing(item) for item in obj]
    return obj


@pytest.fixture(autouse=True)
def no_leaked_cache():
    configure_artifact_cache(None)
    yield
    configure_artifact_cache(None)


class TestBenchSharding:
    def test_plain_sweep_matches_serial_modulo_timing(self):
        serial = run_benchmarks(PAR_PRESET, jobs=1)
        sharded = run_benchmarks(PAR_PRESET, jobs=2)
        assert strip_timing(serial) == strip_timing(sharded)

    def test_record_order_is_scene_order(self):
        payload = run_benchmarks(PAR_PRESET, jobs=2)
        scenes = [r["scene"] for r in payload["results"]]
        # SB's records all precede CK's regardless of completion order.
        assert scenes == sorted(scenes, key=("SB", "CK").index)

    @pytest.mark.parametrize("kind", sorted(SWEEPS))
    def test_supervised_sweep_matches_serial_modulo_timing(
        self, kind, tmp_path
    ):
        opts_a = ResilienceOptions(
            checkpoint_path=str(tmp_path / "a.ckpt.json")
        )
        opts_b = ResilienceOptions(
            checkpoint_path=str(tmp_path / "b.ckpt.json")
        )
        serial = SWEEPS[kind](options=opts_a, jobs=1)
        sharded = SWEEPS[kind](options=opts_b, jobs=2)
        a, b = strip_timing(serial), strip_timing(sharded)
        # Checkpoint paths differ by construction; everything else match.
        a["resilience"]["checkpoint"].pop("path")
        b["resilience"]["checkpoint"].pop("path")
        assert a == b

    @pytest.mark.parametrize("kind", sorted(SWEEPS))
    def test_forced_failure_manifest_matches_serial(self, kind):
        def manifest(jobs):
            payload = SWEEPS[kind](
                options=ResilienceOptions(max_retries=0),
                fault_plan=UnitFaultPlan(force_fail={"CK": 1}),
                jobs=jobs,
            )
            resilience = payload["resilience"]
            return [
                (e["unit"], e["status"], e["rung"], e["attempts"])
                for e in resilience["manifest"]["units"]
            ], resilience["chaos"]

        serial, chaos = manifest(jobs=1)
        assert serial == [
            ("SB", "ok", "wavefront", 1), ("CK", "degraded", "scalar", 2),
        ]
        assert chaos["injected"] == 1
        # Injections happen in the workers' copies of the fault plan;
        # the sharded artifact must still count them.
        assert manifest(jobs=2) == (serial, chaos)


class TestResumeComposition:
    @pytest.mark.parametrize("kind", sorted(SWEEPS))
    def test_jobs_resume_reruns_only_missing_units(self, kind, tmp_path):
        ckpt_path = str(tmp_path / "sweep.ckpt.json")
        options = ResilienceOptions(checkpoint_path=ckpt_path)
        full = SWEEPS[kind](options=options, jobs=1)

        # Emulate a mid-sweep kill: drop CK from the persisted state.
        with open(ckpt_path) as handle:
            state = json.load(handle)
        assert set(state["completed"]) == {"SB", "CK"}
        del state["completed"]["CK"]
        with open(ckpt_path, "w") as handle:
            json.dump(state, handle)

        resumed = SWEEPS[kind](
            options=ResilienceOptions(checkpoint_path=ckpt_path, resume=True),
            jobs=2,
        )
        # SB came from the checkpoint, CK was re-run; the payload's
        # result set matches the uninterrupted sweep.
        assert unit_statuses(resumed) == {"SB": "resumed", "CK": "ok"}
        assert [r["scene"] for r in resumed["results"]] == [
            r["scene"] for r in full["results"]
        ]
        # SB's results are byte-identical to the first run (checkpoint
        # replay); CK's match modulo timing (it actually re-ran).
        sb_full = [r for r in full["results"] if r["scene"] == "SB"]
        sb_resumed = [r for r in resumed["results"] if r["scene"] == "SB"]
        assert sb_full == sb_resumed
        assert strip_timing(full["results"]) == strip_timing(
            resumed["results"]
        )

    @pytest.mark.parametrize("kind", sorted(SWEEPS))
    def test_resumes_hand_written_checkpoint(self, kind, tmp_path):
        # The documented checkpoint layout, written without the driver:
        # a sweep must resume from it, replaying SB's body verbatim.
        schema, fingerprint, body_key, field = CHECKPOINT_FORMAT[kind]
        reference = SWEEPS[kind]()
        sb_body = [r for r in reference["results"] if r["scene"] == "SB"]
        for result in sb_body:
            result[field] = 123.0  # proves SB was replayed, not re-run
        ckpt_path = tmp_path / "sweep.ckpt.json"
        ckpt_path.write_text(json.dumps({
            "schema": CHECKPOINT_SCHEMA,
            "bench_schema": schema,
            "fingerprint": fingerprint(),
            "completed": {"SB": {
                body_key: sb_body if body_key == "records" else sb_body[0],
                "entry": {
                    "unit": "SB", "status": "ok", "rung": "wavefront",
                    "attempts": 1, "retries": 0, "errors": [],
                },
            }},
        }))
        resumed = SWEEPS[kind](
            options=ResilienceOptions(
                checkpoint_path=str(ckpt_path), resume=True
            ),
        )
        assert unit_statuses(resumed) == {"SB": "resumed", "CK": "ok"}
        assert [r for r in resumed["results"] if r["scene"] == "SB"] == sb_body
        assert strip_timing(
            [r for r in resumed["results"] if r["scene"] == "CK"]
        ) == strip_timing(
            [r for r in reference["results"] if r["scene"] == "CK"]
        )

    def test_parent_checkpoints_sharded_units(self, tmp_path):
        ckpt_path = str(tmp_path / "sweep.ckpt.json")
        run_benchmarks(
            PAR_PRESET,
            resilience=ResilienceOptions(checkpoint_path=ckpt_path),
            jobs=2,
        )
        with open(ckpt_path) as handle:
            state = json.load(handle)
        assert set(state["completed"]) == {"SB", "CK"}


class TestSimulateSharding:
    def test_results_identical_to_serial(self):
        serial = run_simulation_sweep(SIM_PRESET, jobs=1)
        sharded = run_simulation_sweep(SIM_PRESET, jobs=2)
        # Simulation rows carry no timing fields: exact equality.
        assert serial["results"] == sharded["results"]
        assert serial["results"], "sweep produced no rows"


class TestCacheFingerprint:
    def test_bench_fingerprint_tracks_cache_identity(self, tmp_path):
        bare = sweep_fingerprint(PAR_PRESET, PAR_PRESET.scenes, ("scalar",))
        assert "artifact_cache" not in bare
        configure_artifact_cache(str(tmp_path))
        cached = sweep_fingerprint(PAR_PRESET, PAR_PRESET.scenes, ("scalar",))
        assert cached["artifact_cache"]["enabled"] is True
        stripped = copy.deepcopy(cached)
        del stripped["artifact_cache"]
        assert stripped == bare

    def test_sim_fingerprint_tracks_cache_identity(self, tmp_path):
        bare = sim_fingerprint(SIM_PRESET)
        configure_artifact_cache(str(tmp_path))
        assert sim_fingerprint(SIM_PRESET) != bare

    def test_resume_refuses_to_mix_cached_and_uncached(self, tmp_path):
        # Checkpoint written with the cache enabled ...
        configure_artifact_cache(str(tmp_path / "cache"))
        ckpt_path = str(tmp_path / "sweep.ckpt.json")
        written = SweepCheckpoint(
            ckpt_path, sim_fingerprint(SIM_PRESET), bench_schema="x"
        )
        written.record("SB", {"row": None, "entry": {}})
        # ... must not resume with it disabled.
        configure_artifact_cache(None)
        reader = SweepCheckpoint(
            ckpt_path, sim_fingerprint(SIM_PRESET), bench_schema="x"
        )
        with pytest.raises(CheckpointError):
            reader.load(resume=True)
