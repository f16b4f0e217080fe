"""Ray-packet traversal (Section 2.5 / Related Work).

The coherence techniques the paper positions itself against - Aila &
Laine's packets, Garanzha & Loop's sorted packets - amortize node
fetches across a group of rays traversing together: a node is fetched
once for the whole packet, and every member tests it.  The paper argues
prediction is *orthogonal* to packetization; this kernel lets the
benchmark harness quantify the packet side of that comparison.

Semantics: a packet of occlusion rays traverses the BVH with an active
mask; a node is visited if *any* active ray's slab test hits it.  Rays
deactivate as soon as they find an intersection.  Hit results are
bit-identical to tracing each ray alone; only the fetch pattern differs
(fewer node fetches per ray for coherent packets, potentially more box
tests, since every active ray tests every visited node).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.bvh.nodes import FlatBVH
from repro.geometry.intersect import ray_aabb_intersect, ray_triangle_intersect
from repro.geometry.ray import RayBatch
from repro.telemetry.stats import TraversalStats


def occlusion_packet(
    bvh: FlatBVH,
    rays: RayBatch,
    indices: Sequence[int],
    stats: Optional[TraversalStats] = None,
) -> np.ndarray:
    """Trace the rays at ``indices`` as one packet; returns hit booleans.

    Node fetches are counted once per visited node (the packet shares
    the fetch); box tests are counted per active ray per visited node.
    """
    if stats is None:
        stats = TraversalStats()
    hot = bvh.hot()
    left, right = hot.left, hot.right
    lo_x, lo_y, lo_z = hot.lo_x, hot.lo_y, hot.lo_z
    hi_x, hi_y, hi_z = hot.hi_x, hot.hi_y, hot.hi_z
    first_tri, tri_count = hot.first_tri, hot.tri_count
    tv0, tv1, tv2 = hot.tri_v0, hot.tri_v1, hot.tri_v2

    members = []
    for i in indices:
        ray = rays[int(i)]
        members.append(
            (
                ray.origin,
                ray.direction,
                ray.inv_direction(),
                ray.t_min,
                ray.t_max,
            )
        )
    n = len(members)
    stats.rays += n
    hit = [False] * n
    if n == 0:
        return np.zeros(0, dtype=bool)

    def any_active_hits_box(node: int, active: List[int]) -> List[int]:
        """Members of ``active`` whose slab test hits ``node``'s box."""
        survivors = []
        blo_x, blo_y, blo_z = lo_x[node], lo_y[node], lo_z[node]
        bhi_x, bhi_y, bhi_z = hi_x[node], hi_y[node], hi_z[node]
        for m in active:
            (ox, oy, oz), _, (ix, iy, iz), t_min, t_max = members[m]
            stats.box_tests += 1
            ok, _ = ray_aabb_intersect(
                ox, oy, oz, ix, iy, iz, t_min, t_max,
                blo_x, blo_y, blo_z, bhi_x, bhi_y, bhi_z,
            )
            if ok:
                survivors.append(m)
        return survivors

    root_active = any_active_hits_box(0, [m for m in range(n)])
    stack: List[tuple] = [(0, root_active)] if root_active else []
    while stack:
        node, active = stack.pop()
        active = [m for m in active if not hit[m]]
        if not active:
            continue
        if left[node] < 0:
            # Leaf: the packet shares the triangle fetches.
            start = first_tri[node]
            for tri in range(start, start + tri_count[node]):
                stats.tri_fetches += 1
                v0, v1, v2 = tv0[tri], tv1[tri], tv2[tri]
                for m in active:
                    if hit[m]:
                        continue
                    (ox, oy, oz), (dx, dy, dz), _, t_min, t_max = members[m]
                    stats.tri_tests += 1
                    if ray_triangle_intersect(
                        ox, oy, oz, dx, dy, dz, t_min, t_max, v0, v1, v2
                    ) is not None:
                        hit[m] = True
            continue

        # Interior: one fetch for the packet, per-ray box tests on both
        # children; children are visited if any member survives.
        stats.node_fetches += 1
        child, other = left[node], right[node]
        active_l = any_active_hits_box(child, active)
        active_r = any_active_hits_box(other, active)
        if active_r:
            stack.append((other, active_r))
        if active_l:
            stack.append((child, active_l))

    stats.hits += sum(hit)
    return np.asarray(hit, dtype=bool)


def trace_occlusion_packets(
    bvh: FlatBVH,
    rays: RayBatch,
    packet_size: int = 32,
    stats: Optional[TraversalStats] = None,
) -> np.ndarray:
    """Trace a whole batch in consecutive packets of ``packet_size``."""
    if packet_size < 1:
        raise ValueError("packet_size must be >= 1")
    if stats is None:
        stats = TraversalStats()
    results = np.zeros(len(rays), dtype=bool)
    for start in range(0, len(rays), packet_size):
        indices = range(start, min(start + packet_size, len(rays)))
        results[list(indices)] = occlusion_packet(bvh, rays, indices, stats=stats)
    return results
