"""Memoized baseline traversal records (repro.core.baseline)."""

import dataclasses

import numpy as np
import pytest

from repro.core.baseline import (
    CACHE_CAPACITY,
    baseline_cache_info,
    baseline_record,
    clear_baseline_cache,
)
from repro.core.simulate import simulate_predictor
from repro.telemetry.stats import TraversalStats
from repro.trace import occlusion_any_hit_tri, trace_occlusion_batch


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_baseline_cache()
    yield
    clear_baseline_cache()


class TestWavefrontRecord:
    def test_eager_compute_is_complete_and_correct(self, small_bvh, small_workload):
        rays = small_workload.rays
        record = baseline_record(small_bvh, rays, "wavefront")
        assert len(record.hit_tri) == len(record.node_fetches) == len(rays)
        # The record's occlusion agrees with the public tracer.
        occluded = trace_occlusion_batch(small_bvh, rays, engine="wavefront")
        assert np.array_equal(record.hit_tri >= 0, occluded)
        assert record.node_fetches.sum() > 0

    def test_second_call_hits_same_record(self, small_bvh, small_workload):
        rays = small_workload.rays
        first = baseline_record(small_bvh, rays, "wavefront")
        second = baseline_record(small_bvh, rays, "wavefront")
        assert second is first
        assert first.hits == 1

    def test_rebuilt_rays_with_equal_content_hit(self, small_bvh, small_workload):
        # Sweeps rebuild RayBatch views freely; content keys the record.
        rays = small_workload.rays
        first = baseline_record(small_bvh, rays, "wavefront")
        view = rays.subset(np.arange(len(rays)))
        assert baseline_record(small_bvh, view, "wavefront") is first

    def test_subset_rays_get_their_own_record(self, small_bvh, small_workload):
        rays = small_workload.rays
        whole = baseline_record(small_bvh, rays, "wavefront")
        half = rays.subset(np.arange(len(rays) // 2))
        partial = baseline_record(small_bvh, half, "wavefront")
        assert partial is not whole
        # Per-ray independence: the prefix of the whole-stream record
        # equals the standalone half-stream record.
        n = len(half)
        assert np.array_equal(partial.hit_tri, whole.hit_tri[:n])
        assert np.array_equal(partial.node_fetches, whole.node_fetches[:n])

    def test_engines_never_share_records(self, small_bvh, small_workload):
        rays = small_workload.rays
        wave = baseline_record(small_bvh, rays, "wavefront")
        scalar = baseline_record(small_bvh, rays, "scalar")
        assert scalar is not wave
        # Both engines agree on *whether* each ray is occluded.
        assert np.array_equal(scalar.hit_tri >= 0, wave.hit_tri >= 0)

    def test_unknown_engine_rejected(self, small_bvh, small_workload):
        with pytest.raises(ValueError, match="unknown traversal engine"):
            baseline_record(small_bvh, small_workload.rays, "warp")


class TestScalarRecord:
    def test_eager_fill_matches_per_ray_traversal(self, small_bvh, small_workload):
        rays = small_workload.rays
        record = baseline_record(small_bvh, rays, "scalar")
        for i in range(0, len(rays), 37):
            stats = TraversalStats()
            tri = occlusion_any_hit_tri(small_bvh, rays[i], stats=stats)
            assert record.hit_tri[i] == tri
            assert record.node_fetches[i] == stats.node_fetches
            assert record.tri_fetches[i] == stats.tri_fetches


#: Scalar ``simulate_predictor`` counters on the SP pin workload, in
#: :class:`~repro.core.simulate.SimulationResult` field order (outcomes
#: aside), recorded before the scalar baseline record was filled eagerly
#: (it used to fill lazily, ray by ray, as full traversals ran).
SCALAR_PIN = (512, 109, 36, 335, 6528, 2569, 6660, 2541, 126, 78, 512, 335, 0)


@pytest.fixture(scope="module")
def pin_unit():
    """SP at detail 0.3: 8x8 pixels at 8 spp, the first 512 AO rays."""
    from repro.analysis.experiments import scaled_predictor_config
    from repro.bvh import build_bvh
    from repro.rays import generate_ao_workload
    from repro.scenes import get_scene

    scene = get_scene("SP", detail=0.3)
    bvh = build_bvh(scene.mesh)
    rays = generate_ao_workload(
        scene, bvh, width=8, height=8, spp=8, seed=1
    ).rays.subset(np.arange(512))
    return bvh, rays, scaled_predictor_config()


class TestScalarReferencePin:
    def run(self, pin_unit):
        bvh, rays, config = pin_unit
        return simulate_predictor(
            bvh, rays, config, in_flight=4, keep_outcomes=True, engine="scalar"
        )

    def test_cold_and_warm_memo_agree(self, pin_unit):
        cold = self.run(pin_unit)
        assert baseline_cache_info()["entries"] == 1
        warm = self.run(pin_unit)
        assert baseline_cache_info()["hits"] == 1
        assert warm == cold
        assert len(cold.outcomes) == 512

    def test_counters_match_pin(self, pin_unit):
        result = self.run(pin_unit)
        counters = tuple(
            getattr(result, f.name)
            for f in dataclasses.fields(result)
            if f.name != "outcomes"
        )
        assert counters == SCALAR_PIN


class TestCachePolicy:
    def test_identity_keyed_bvh(self, small_scene, small_bvh, small_workload):
        from repro.bvh import build_bvh

        rays = small_workload.rays
        first = baseline_record(small_bvh, rays, "wavefront")
        rebuilt_bvh = build_bvh(small_scene.mesh, method="sah")
        # Equal content, different identity: must not alias.
        assert baseline_record(rebuilt_bvh, rays, "wavefront") is not first

    def test_lru_eviction_at_capacity(self, small_bvh, small_workload):
        rays = small_workload.rays
        oldest = baseline_record(small_bvh, rays, "scalar")
        for i in range(CACHE_CAPACITY):
            sub = rays.subset(np.arange(2 + i))
            baseline_record(small_bvh, sub, "scalar")
        assert baseline_cache_info()["entries"] == CACHE_CAPACITY
        # The untouched first record was evicted; a fresh one comes back.
        assert baseline_record(small_bvh, rays, "scalar") is not oldest

    def test_clear_and_info(self, small_bvh, small_workload):
        baseline_record(small_bvh, small_workload.rays, "wavefront")
        assert baseline_cache_info()["entries"] == 1
        clear_baseline_cache()
        assert baseline_cache_info() == {
            "entries": 0, "capacity": CACHE_CAPACITY, "hits": 0,
        }
