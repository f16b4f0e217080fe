"""Figure-regeneration benchmark: time, and check, regenerating paper figures.

Run from the repository root::

    python3 figbench/run.py --workload fig12_unsorted --seed 1 --seconds 25 --trace 0

The workloads are defined in ``workloads.py``.  Each run sets the
inputs up ``SETUP_REPEATS`` times from a cold ``ExperimentContext``
(``setup_s`` is the median), then repeats one regeneration pass for
``--seconds`` seconds (``wall_s`` is the median pass).  Both are host
times corrected to a reference host speed by the probe in ``probe.py``;
the uncorrected pass time is printed and reported as ``host.raw_wall_s``.
Every unit of
every pass is checked exactly against a reference: the committed
``reference.json`` for the seeds it holds, otherwise the scalar RT unit
(timing workloads) or the run's own first pass plus model invariants
(``functional_limit``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` traces every
other pass with spans around each ``repro.*`` layer call and reports the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Layer self time below this share of a traced pass fails the run: the
#: spans must account for where the time went.
MIN_SPAN_COVERAGE = 0.9


def metric_specs(trace: bool) -> list:
    """(name, unit) of every metric the run reports, from ``BENCHMARK.json``.

    ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
    per-layer ones.
    """
    spec = json.loads(SPEC_PATH.read_text())
    section = spec["per_layer" if trace else "end_to_end"]
    return [(m["name"], m["unit"]) for m in section]


def pin_environment() -> None:
    """Cold, serial state: one BLAS thread, no artifact cache, no sharding.

    Must run before numpy is imported.
    """
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        os.environ[var] = "1"
    os.environ["REPRO_BENCH_JOBS"] = "1"
    os.environ.pop("REPRO_ARTIFACT_CACHE", None)
    os.environ.pop("REPRO_TELEMETRY", None)


def import_checkout() -> None:
    """Import ``repro`` from this checkout's ``src``, or exit with status 1."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"figbench: cannot import repro from {ROOT / 'src'}: {exc}")
    if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
        sys.exit(f"figbench: repro imported from {repro.__file__}, not this checkout")


def fingerprint() -> dict:
    """Host description recorded with every result."""
    import platform

    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def load_reference(workload: str, seed: int, caps) -> dict | None:
    """Committed reference statistics for this seed, if any."""
    data = json.loads(REFERENCE_PATH.read_text())
    if data["caps"] != caps.as_dict():
        return None
    return data["workloads"][workload].get(str(seed))


def resolve_reference(workload, seed, caps, inputs, passes):
    """The reference every unit is checked against, and where it came from.

    Seeds without a committed reference are checked against the scalar
    RT unit (timing workloads), or against the run's first pass - plus
    the model invariants every pass is held to - for ``functional_limit``,
    whose oracle kinds have no second implementation.
    """
    import workloads as wl

    reference = load_reference(workload, seed, caps)
    if reference is not None:
        return reference, "committed"
    if workload == "functional_limit":
        first = wl.first_units(passes)
        return {name: wl.exact(stats) for name, stats in first.items()}, "first pass"
    return wl.oracle_reference(inputs), "scalar oracle"


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux reports KiB)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(
    workload: str, seed: int, seconds: float, trace: bool, caps=None, reference=None
):
    """One benchmark run; returns (result dict, human-readable lines).

    ``reference`` overrides the committed reference (tests use it).
    """
    import workloads as wl
    from probe import SpeedProbe
    from tracer import Tracer

    caps = caps or wl.Caps()
    tracer = Tracer(enabled=trace)
    probe = SpeedProbe()
    inputs, setups = wl.timed_setups(workload, seed, caps, tracer, probe)
    passes = wl.measure(workload, inputs, seconds, tracer, probe, trace)
    rss = peak_rss_mb()

    if reference is not None:
        source = "given"
    else:
        reference, source = resolve_reference(workload, seed, caps, inputs, passes)
    attempted, failed, failures = wl.check(workload, inputs, passes, reference)

    model = wl.model_metrics(workload, wl.first_units(passes))
    values = {
        "wall_s": wl.median([p.wall_s for p in passes]),
        "setup_s": wl.median([t.wall_s for t in setups]),
        "peak_rss_mb": rss,
        "pass_rate": 1.0 - failed / attempted,
    }
    values.update(model)
    correct = failed == 0
    if trace:
        layers = layer_metrics(tracer, setups, passes, inputs, model)
        if layers["trace.span_coverage_frac"] < MIN_SPAN_COVERAGE:
            correct = False
            failures.append(
                f"layer spans cover {layers['trace.span_coverage_frac']:.3f} "
                f"of a traced pass (< {MIN_SPAN_COVERAGE})"
            )
        values.update(layers)
    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in metric_specs(trace)
    }

    lines = [
        f"figbench {workload} seed={seed} trace={int(trace)} passes={len(passes)} "
        f"setups={len(setups)} reference={source}",
        "caps (rays per scene): " + json.dumps(caps.as_dict()),
        "host: " + json.dumps(fingerprint()),
    ]
    lines += [f"  {n:<28} {m['value']:<14.6g} {m['unit']}" for n, m in metrics.items()]
    lines.append(f"  fail_rate {failed}/{attempted} units")
    lines.append(
        f"  host time is corrected to the reference host speed; uncorrected "
        f"median pass {wl.median([p.raw_s for p in passes]):.4f} s, "
        f"speed factor {wl.median([p.factor for p in passes]):.3f}"
    )
    if workload != "functional_limit":
        scenes = wl.scene_speedups(wl.first_units(passes))
        lines.append(
            f"  speedup_geomean {model['speedup_geomean']:.4f} "
            f"(paper Fig. 12: {wl.PAPER_FIG12_GEOMEAN}); per scene "
            + " ".join(f"{code} {value:.3f}" for code, value in scenes.items())
        )
        lines.append(
            "  the scaled model is not validated against hardware; paper "
            "claims are reported, not gated"
        )
    for failure in failures:
        print(f"figbench: FAIL {failure}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def layer_metrics(tracer, setups, passes, inputs, model) -> dict:
    """Per-layer self times (median over traced set-ups / passes) and counts.

    Self times are corrected by the speed factor of their set-up or pass.
    """
    import workloads as wl

    def self_times(timed):
        times = tracer.self_times(timed.root_span)
        return {name: t * timed.factor for name, t in times.items()}

    traced = [p for p in passes if p.root_span is not None]
    untraced = [p for p in passes if p.root_span is None]
    setup_layers = [self_times(t) for t in setups]
    pass_layers = [self_times(p) for p in traced]

    def med(samples, name):
        return wl.median([s.get(name, 0.0) for s in samples])

    coverage = []
    for timed in [*setups, *traced]:
        span = tracer.spans[timed.root_span]
        root_self = tracer.self_times(timed.root_span)[span.name]
        coverage.append((span.end - span.start - root_self) / timed.raw_s)

    gpu_s = med(pass_layers, "gpu.baseline") + med(pass_layers, "gpu.predicted")
    predictor_s = med(pass_layers, "core.simulate_predictor")
    oracle_rays = sum(len(s.oracle_rays) for s in inputs if s.oracle_rays is not None)
    traced_wall = wl.median([p.wall_s for p in traced])
    untraced_wall = wl.median([p.wall_s for p in untraced])
    return {
        "scenes.get_scene_s": med(setup_layers, "scenes.get_scene"),
        "scenes.triangles": sum(s.triangles for s in inputs),
        "bvh.build_s": med(setup_layers, "bvh.build"),
        "bvh.nodes": sum(s.nodes for s in inputs),
        "rays.ao_gen_s": med(setup_layers, "rays.ao_gen"),
        "rays.count": sum(len(s.rays) for s in inputs) + oracle_rays,
        "rays.sort_s": med(setup_layers, "rays.sort"),
        "gpu.baseline_s": med(pass_layers, "gpu.baseline"),
        "gpu.predicted_s": med(pass_layers, "gpu.predicted"),
        "gpu.host_us_per_warp_step": 1e6 * wl.ratio(gpu_s, model["gpu.warp_steps"]),
        "trace.baseline_pass_s": med(pass_layers, "trace.baseline_pass"),
        "core.simulate_predictor_s": predictor_s,
        "core.functional_rays_per_s": wl.ratio(
            model["core.functional_rays"], predictor_s
        ),
        "core.limit_proposed_s": med(pass_layers, "core.limit_proposed"),
        "core.oracle_lookup_s": med(pass_layers, "core.oracle_lookup"),
        "core.oracle_training_s": med(pass_layers, "core.oracle_training"),
        "core.oracle_updates_s": med(pass_layers, "core.oracle_updates"),
        "analysis.table_s": med(pass_layers, "analysis.table"),
        "host.raw_wall_s": wl.median([p.raw_s for p in passes]),
        "host.speed_factor": wl.median([p.factor for p in passes]),
        "trace_overhead_frac": wl.ratio(traced_wall, untraced_wall) - 1.0,
        "trace.span_coverage_frac": min(coverage),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_environment()
    import_checkout()
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected {wl.WORKLOADS}")
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
