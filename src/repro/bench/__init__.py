"""Benchmark harness: timed scalar-vs-wavefront runs with JSON artifacts.

The harness is the measured half of the wavefront engine's contract: the
engines are proven bit-identical by the differential tests, and proven
*faster* by :mod:`repro.bench.harness`, which times both engines on
pinned seeds and emits machine-readable ``BENCH_<name>.json`` artifacts.
CI's benchmark-smoke job replays the quick preset and fails the build on
a >20 % regression against the committed baselines (see
``docs/BENCHMARKING.md``).
"""

from repro.bench.harness import (
    ACCEPTED_SCHEMAS,
    BENCH_SCHEMA,
    BUILD_PRESET,
    FULL_PRESET,
    PREDICTOR_PRESET,
    PRESETS,
    QUICK_PRESET,
    STAGES,
    TIMING_PRESET,
    BenchPreset,
    BenchRecord,
    compare_payloads,
    load_payload,
    run_benchmarks,
    sweep_fingerprint,
    write_payload,
)

__all__ = [
    "ACCEPTED_SCHEMAS",
    "BENCH_SCHEMA",
    "BUILD_PRESET",
    "FULL_PRESET",
    "PREDICTOR_PRESET",
    "PRESETS",
    "QUICK_PRESET",
    "STAGES",
    "TIMING_PRESET",
    "BenchPreset",
    "BenchRecord",
    "compare_payloads",
    "load_payload",
    "run_benchmarks",
    "sweep_fingerprint",
    "write_payload",
]
