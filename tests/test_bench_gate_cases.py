"""The regression gate's messages on fixed perturbations of the baselines.

Each committed ``BENCH_*.json`` baseline is perturbed in a fixed set of
ways - every gated key pushed past its bound, one scene dropped from
every derived section, individual gated keys deleted, one record
dropped, ``engines_agree`` flipped - and ``compare_payloads(perturbed,
baseline)`` must return exactly the message list recorded in
``tests/data/bench_gate_messages.json``: the same messages, in the same
order.  A deliberate change to the gate's wording re-records that file::

    PYTHONPATH=src python tests/test_bench_gate_cases.py
"""

import copy
import json
import os

import pytest

from repro.bench import compare_payloads, load_payload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE_DIR = os.path.join(ROOT, "benchmarks", "baselines")
GOLDEN = os.path.join(ROOT, "tests", "data", "bench_gate_messages.json")
BASELINES = ("quick", "wavefront", "predictor", "timing", "build")


def _sections(payload):
    derived = payload["derived"]
    return (
        derived.get("speedup_wavefront_over_scalar", {}),
        derived.get("predictor_throughput", {}),
        derived.get("rt_timing", {}),
        derived.get("bvh_build", {}),
    )


def past_bounds(payload):
    """Every exact key changed, drift key +50 %, floor ratio halved."""
    speed, predictor, timing, build = _sections(payload)
    for per_scene in speed.values():
        for code in per_scene:
            per_scene[code] *= 0.5
    for row in predictor.values():
        for rate in row.get("rates", {}):
            row["rates"][rate] *= 1.5
    for row in timing.values():
        for key in ("cycles", "cycles_predictor", "l1_hit_rate",
                    "l2_hit_rate", "dram_row_hit_rate"):
            if key in row:
                row[key] *= 1.5
    for row in build.values():
        for method in row.get("methods", {}).values():
            for key in ("nodes", "max_depth", "sah_cost"):
                method[key] *= 1.5
            method["speedup_vector_over_scalar"] *= 0.5
        row["refit_speedup_vector_over_scalar"] *= 0.5
    for record in payload["results"]:
        record["node_fetches"] *= 2
        record["tri_fetches"] *= 2


def drop_scene(payload):
    """The first scene removed from every derived section."""
    code = payload["scenes"][0]
    speed, predictor, timing, build = _sections(payload)
    for per_scene in speed.values():
        per_scene.pop(code, None)
    for section in (predictor, timing, build):
        section.pop(code, None)


def drop_keys(payload):
    """Individual gated keys (and one build method) deleted."""
    code = payload["scenes"][0]
    _, predictor, timing, build = _sections(payload)
    if code in predictor:
        predictor[code]["rates"].pop("verified_rate", None)
    if code in timing:
        for key in ("cycles_predictor", "l2_hit_rate"):
            timing[code].pop(key, None)
    if code in build:
        row = build[code]
        row.pop("refit_speedup_vector_over_scalar")
        row["methods"].pop("median")
        for key in ("sah_cost", "speedup_vector_over_scalar"):
            row["methods"]["sah"].pop(key)


def drop_record(payload):
    del payload["results"][0]


def engines_disagree(payload):
    for row in _sections(payload)[3].values():
        row["engines_agree"] = False


CASES = {
    fn.__name__: fn
    for fn in (past_bounds, drop_scene, drop_keys, drop_record,
               engines_disagree)
}


def gate_messages(name, case):
    baseline = load_payload(os.path.join(BASELINE_DIR, f"BENCH_{name}.json"))
    current = copy.deepcopy(baseline)
    CASES[case](current)
    return compare_payloads(current, baseline)


def record_golden():
    golden = {
        name: {case: gate_messages(name, case) for case in CASES}
        for name in BASELINES
    }
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1)
        handle.write("\n")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("name", BASELINES)
def test_gate_messages_match_recorded(golden, name, case):
    messages = gate_messages(name, case)
    assert messages == golden[name][case]


def test_every_case_trips_the_gate(golden):
    # A case that reports nothing on every baseline would pin nothing.
    for case in CASES:
        assert any(golden[name][case] for name in BASELINES), case


if __name__ == "__main__":
    record_golden()
