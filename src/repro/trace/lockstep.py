"""Lockstep depth-first traversal: every ray's RT-unit pop sequence at once.

The RT unit (:mod:`repro.gpu.rt_unit`) traverses Algorithm 1's
while-while DFS one stack pop per thread per warp step.  For a ray
traced from the root, *which* entries it pops depends only on the BVH
and the ray; timing decides only *when* each pop happens.  This kernel
computes that sequence for a whole :class:`~repro.geometry.ray.RayBatch`
with numpy, so the timing model can replay it instead of re-running the
box and triangle tests in Python.

Per-ray stacks live in one ``(n, depth)`` array and every numpy pass
pops one entry for each ray still traversing.  The semantics are the RT
unit's, pop for pop:

* the root is popped without a box test (it is on every stack at the
  start);
* an interior pop box-tests both children and pushes the survivors far
  child first, so the nearer one (left on a tie) is popped next;
* a leaf pop tests its triangles in order and stops at the first hit.

The slab test folds ``max``/``min`` in exactly the order Python's
builtins do in :func:`~repro.geometry.intersect.ray_aabb_intersect`, so
a NaN slab (a zero direction component with the origin on a box plane)
decides the same way; the triangles go through
:func:`~repro.geometry.intersect.ray_triangle_intersect_batch`, which is
bit-identical to the scalar test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.bvh.nodes import FlatBVH
from repro.geometry.intersect import ray_triangle_intersect_batch
from repro.geometry.ray import RayBatch
from repro.trace.wavefront import _inv_directions

#: Marks "no hit" in the first-hit reduction over a leaf's triangles.
_NO_HIT = np.iinfo(np.int64).max


@dataclass
class PopTrace:
    """Flat per-pop columns of a batch's root traversals.

    Row ``k`` is one stack pop: ray ``ray[k]`` popped ``node[k]``,
    tested ``tris[k]`` triangles there (0 at an interior node), had
    ``depth[k]`` entries on its stack afterwards, and hit triangle
    ``hit[k]`` (-1: no hit).  A ray's rows are contiguous and in pop
    order, rays in batch order; its last row is its hit, or the pop
    that left its stack empty.
    """

    ray: np.ndarray
    node: np.ndarray
    tris: np.ndarray
    depth: np.ndarray
    hit: np.ndarray

    def __len__(self) -> int:
        return self.ray.size

    def starts(self, num_rays: int) -> np.ndarray:
        """Row offsets: ray ``i`` owns rows ``starts[i]:starts[i + 1]``."""
        offsets = np.zeros(num_rays + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.ray, minlength=num_rays), out=offsets[1:])
        return offsets


def _slab(
    origins: np.ndarray,
    inv_dirs: np.ndarray,
    t_min: np.ndarray,
    t_max: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row slab test with the scalar test's NaN behaviour.

    Returns ``(hit, t_entry)``.  Each fold keeps its running value unless
    the next operand compares strictly greater (``max``) or smaller
    (``min``), which is how Python's builtins treat a NaN operand.
    """
    with np.errstate(invalid="ignore"):
        t1 = (lo - origins) * inv_dirs
        t2 = (hi - origins) * inv_dirs
    swap = t1 > t2
    near = np.where(swap, t2, t1)
    far = np.where(swap, t1, t2)
    t_near = near[:, 0]
    t_far = far[:, 0]
    for axis in (1, 2):
        t_near = np.where(near[:, axis] > t_near, near[:, axis], t_near)
        t_far = np.where(far[:, axis] < t_far, far[:, axis], t_far)
    t_near = np.where(t_min > t_near, t_min, t_near)
    t_far = np.where(t_max < t_far, t_max, t_far)
    return t_near <= t_far, t_near


def lockstep_occlusion_trace(bvh: FlatBVH, rays: RayBatch) -> PopTrace:
    """Every ray's RT-unit pop sequence from the root, as a :class:`PopTrace`."""
    n = len(rays)
    origins, directions = rays.origins, rays.directions
    inv_dirs = _inv_directions(directions)
    t_min, t_max = rays.t_min, rays.t_max
    left, right = bvh.left, bvh.right
    first_tri, tri_count = bvh.first_tri, bvh.tri_count
    v0, v1, v2 = bvh.mesh.v0, bvh.mesh.v1, bvh.mesh.v2

    # Below each entry sits at most one deferred sibling per ancestor,
    # so a root traversal never holds more than max_depth + 1 entries.
    stack = np.zeros((n, bvh.max_depth() + 2), dtype=np.int64)
    size = np.ones(n, dtype=np.int64)  # every stack starts as [root]
    active = np.arange(n, dtype=np.int64)
    passes = []
    while active.size:
        size[active] -= 1
        node = stack[active, size[active]]
        tris = np.zeros(active.size, dtype=np.int64)
        hit = np.full(active.size, -1, dtype=np.int64)
        leaf = left[node] < 0

        if leaf.any():
            rids, lnodes = active[leaf], node[leaf]
            counts = tri_count[lnodes]
            pop_of = np.repeat(np.arange(lnodes.size), counts)
            ends = np.cumsum(counts)
            within = np.arange(ends[-1], dtype=np.int64)
            within -= np.repeat(ends - counts, counts)
            tri = first_tri[lnodes][pop_of] + within
            pr = rids[pop_of]
            t = ray_triangle_intersect_batch(
                origins[pr], directions[pr], t_min[pr], t_max[pr],
                v0[tri], v1[tri], v2[tri],
            )
            first = np.full(lnodes.size, _NO_HIT, dtype=np.int64)
            found = np.isfinite(t)
            np.minimum.at(first, pop_of[found], within[found])
            hit_any = first != _NO_HIT
            tris[leaf] = np.where(hit_any, first + 1, counts)
            hit[leaf] = np.where(hit_any, first_tri[lnodes] + first, -1)

        inner = ~leaf
        if inner.any():
            rids, inodes = active[inner], node[inner]
            child, other = left[inodes], right[inodes]
            o, inv = origins[rids], inv_dirs[rids]
            tn, tx = t_min[rids], t_max[rids]
            hit_l, t_l = _slab(o, inv, tn, tx, bvh.lo[child], bvh.hi[child])
            hit_r, t_r = _slab(o, inv, tn, tx, bvh.lo[other], bvh.hi[other])
            both = hit_l & hit_r
            left_near = t_l <= t_r
            below = np.where(both, np.where(left_near, other, child),
                             np.where(hit_l, child, other))
            top = np.where(left_near, child, other)
            base = size[rids]
            one = hit_l | hit_r
            stack[rids[one], base[one]] = below[one]
            stack[rids[both], base[both] + 1] = top[both]
            size[rids] = base + one + both

        depth = size[active]
        passes.append((active, node, tris, depth, hit))
        active = active[(hit < 0) & (depth > 0)]

    # A ray pops once per pass from pass 0 until it stops, so its k-th
    # pop is pass k's entry: scatter each pass into ray-major rows.
    pops = np.zeros(n, dtype=np.int64)
    for active, *_ in passes:
        pops[active] += 1
    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(pops, out=starts[1:])
    trace = PopTrace(
        ray=np.repeat(np.arange(n, dtype=np.int64), pops),
        node=np.empty(starts[-1], dtype=np.int64),
        tris=np.empty(starts[-1], dtype=np.int64),
        depth=np.empty(starts[-1], dtype=np.int64),
        hit=np.empty(starts[-1], dtype=np.int64),
    )
    for k, (active, node, tris, depth, hit) in enumerate(passes):
        rows = starts[active] + k
        trace.node[rows] = node
        trace.tris[rows] = tris
        trace.depth[rows] = depth
        trace.hit[rows] = hit
    return trace
