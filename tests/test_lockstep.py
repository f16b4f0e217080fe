"""The lockstep DFS kernel pops exactly what the RT unit's scalar step pops.

:func:`repro.trace.lockstep.lockstep_occlusion_trace` is the functional
half of the RT unit's functional/timing split: the timing model replays
its rows instead of running the box and triangle tests.  The contract is
row-for-row equality with the scalar step (:meth:`RTUnit._interior_step`
/ :meth:`RTUnit._leaf_step` popping a stack that starts as ``[root]``):
the same node, triangles tested, stack depth afterwards and hit triangle,
in the same order - NaN slabs and degenerate ray intervals included.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import SWEEP_WORKLOAD, ExperimentContext
from repro.bvh import build_bvh
from repro.bvh.nodes import FlatBVH
from repro.geometry.intersect import ray_aabb_intersect
from repro.geometry.ray import RayBatch
from repro.geometry.triangle import TriangleMesh
from repro.gpu import GPUConfig, MemoryHierarchy, RTUnit
from repro.gpu.rt_unit import _ThreadState
from repro.scenes import SCENE_CODES
from repro.scenes import procedural as P
from repro.trace import occlusion_any_hit_tri
from repro.trace.lockstep import lockstep_occlusion_trace

MAX_EXAMPLES = int(os.environ.get("HYPOTHESIS_MAX_EXAMPLES", "50"))


def scalar_pops(bvh, rays):
    """The RT unit's scalar step from the root: one row per pop."""
    config = GPUConfig(num_sms=1)
    unit = RTUnit(bvh, config, MemoryHierarchy(config.memory))
    line_of = unit.memory.line_of
    rows = []
    with np.errstate(invalid="ignore"):  # NaN slabs are part of the contract
        for i in range(len(rays)):
            ray = rays[i]
            thread = _ThreadState(
                ray_id=i, origin=ray.origin, direction=ray.direction,
                inv_direction=ray.inv_direction(), t_min=ray.t_min,
                t_max=ray.t_max, stack=[0],
            )
            while thread.stack and not thread.done:
                node = thread.stack.pop()
                if bvh.left[node] < 0:
                    tests = unit._leaf_step(
                        thread, node, [], line_of, bvh.triangle_address
                    )
                else:
                    unit._interior_step(
                        thread, node, [], line_of, bvh.node_address
                    )
                    tests = 0
                hit = thread.hit_tri if thread.done else -1
                rows.append((i, node, tests, len(thread.stack), hit))
    return rows


def kernel_pops(bvh, rays):
    trace = lockstep_occlusion_trace(bvh, rays)
    return list(zip(
        trace.ray.tolist(), trace.node.tolist(), trace.tris.tolist(),
        trace.depth.tolist(), trace.hit.tolist(),
    ))


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext()


def scene_rays(ctx, code, count=256):
    """AO rays spread over the workload, plus rays from outside the scene."""
    rays = ctx.rays(code, SWEEP_WORKLOAD)
    ao = rays.subset(np.arange(0, len(rays), max(1, len(rays) // count)))
    bvh = ctx.bvh(code)
    rng = np.random.default_rng(7)
    centre = (bvh.lo[0] + bvh.hi[0]) / 2
    extent = bvh.hi[0] - bvh.lo[0]
    origins = centre + rng.uniform(-1.0, 1.0, (64, 3)) * extent
    directions = rng.normal(size=(64, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    outside = RayBatch(origins, directions, 0.0, float(np.linalg.norm(extent)))
    return RayBatch.concatenate([ao, outside])


@pytest.mark.parametrize("code", SCENE_CODES)
def test_kernel_matches_scalar_step_on_every_scene(ctx, code):
    bvh, rays = ctx.bvh(code), scene_rays(ctx, code)
    assert kernel_pops(bvh, rays) == scalar_pops(bvh, rays)


@pytest.mark.parametrize("code", SCENE_CODES)
def test_hit_triangle_matches_reference_traversal(ctx, code):
    """Where the reference traversal enters the root, both report one triangle."""
    bvh, rays = ctx.bvh(code), scene_rays(ctx, code)
    trace = lockstep_occlusion_trace(bvh, rays)
    last = trace.starts(len(rays))[1:] - 1
    compared = 0
    for i in range(len(rays)):
        ray = rays[i]
        ix, iy, iz = ray.inv_direction()
        root_hit, _ = ray_aabb_intersect(
            *ray.origin, ix, iy, iz, ray.t_min, ray.t_max,
            *bvh.lo[0], *bvh.hi[0],
        )
        if root_hit:
            compared += 1
            assert trace.hit[last[i]] == occlusion_any_hit_tri(bvh, ray), i
    assert compared > len(rays) // 2


# ----------------------------------------------------------------------
# NaN slabs and degenerate intervals

#: Unit boxes on an integer grid: rays with zero direction components
#: and origins on the grid planes make 0 * inf = NaN slab operands.
GRID_MESH = TriangleMesh.concatenate([
    P.box((x, y, z), (x + 1.0, y + 1.0, z + 1.0))
    for x, y, z in ((0, 0, 0), (2, 0, 0), (0, 2, 0), (1, 1, 2), (3, 2, 1))
])
GRID_BVH = build_bvh(GRID_MESH, method="sah", max_leaf_size=2)

coordinate = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0, 3.0, 4.0])
component = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])
interval = st.sampled_from([
    (0.0, float("inf")), (0.0, 0.0), (1.0, 1.0), (0.5, 0.5), (2.0, 2.0),
    (0.0, 1.0), (1.0, 3.0), (-1.0, 0.0),
])


@st.composite
def grid_rays(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    origins, directions, t_min, t_max = [], [], [], []
    for _ in range(n):
        origins.append([draw(coordinate) for _ in range(3)])
        d = [draw(component) for _ in range(3)]
        if not any(d):
            d[draw(st.integers(0, 2))] = 1.0
        directions.append(d)
        lo, hi = draw(interval)
        t_min.append(lo)
        t_max.append(hi)
    return RayBatch(np.array(origins), np.array(directions), t_min, t_max)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(rays=grid_rays())
def test_nan_slabs_and_degenerate_intervals_match_scalar(rays):
    assert kernel_pops(GRID_BVH, rays) == scalar_pops(GRID_BVH, rays)


def test_grid_rays_do_produce_nan_slabs():
    """The strategy's fixed cases really reach the NaN branch of the fold."""
    rays = RayBatch(
        np.array([[0.0, 0.5, 0.5], [1.0, 1.0, 0.5]]),
        np.array([[0.0, 0.0, 1.0], [0.0, -0.0, 1.0]]),
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / rays.directions[:, None]
        slab = (GRID_BVH.lo[1:] - rays.origins[:, None]) * inv
    assert np.isnan(slab).any()
    assert kernel_pops(GRID_BVH, rays) == scalar_pops(GRID_BVH, rays)


# ----------------------------------------------------------------------
# Empty leaves


def empty_leaf_bvh():
    """Root over an empty leaf (nearer) and a one-triangle leaf (farther)."""
    mesh = TriangleMesh(
        np.array([[-1.0, -1.0, 5.0]]),
        np.array([[1.0, -1.0, 5.0]]),
        np.array([[0.0, 1.0, 5.0]]),
    )
    lo = np.array([[-1.0, -1.0, 1.0], [-1.0, -1.0, 1.0], [-1.0, -1.0, 5.0]])
    hi = np.array([[1.0, 1.0, 5.0], [1.0, 1.0, 2.0], [1.0, 1.0, 5.0]])
    return FlatBVH(
        lo, hi,
        left=[1, -1, -1], right=[2, -1, -1],
        first_tri=[0, 0, 0], tri_count=[0, 0, 1],
        parent=[-1, 0, 0], mesh=mesh, tri_indices=[0],
    )


def test_empty_leaf_tests_no_triangle_and_fetches_no_line():
    bvh = empty_leaf_bvh()
    rays = RayBatch(np.array([[0.0, 0.0, 0.0]]), np.array([[0.0, 0.0, 1.0]]))
    assert kernel_pops(bvh, rays) == scalar_pops(bvh, rays) == [
        (0, 0, 0, 2, -1), (0, 1, 0, 1, -1), (0, 2, 1, 0, 0),
    ]
    config = GPUConfig(num_sms=1)
    result = RTUnit(bvh, config, MemoryHierarchy(config.memory)).run(rays)
    assert (result.node_fetches, result.tri_fetches, result.hits) == (1, 1, 1)
    assert result.tri_tests == 1
    # The root's node line and the triangle's line; the empty leaf adds none.
    assert result.l1_accesses == 2
