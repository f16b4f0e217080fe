"""Ambient-occlusion workload generation (Section 5.2 of the paper).

The recipe: trace one primary ray per pixel from the scene camera, then
spawn ``spp`` AO rays at every primary hit point by cosine-sampling the
upper hemisphere around the surface normal.  AO ray lengths are drawn
uniformly from 25-40 % of the scene bounding-box diagonal, "to represent
relevant areas near the point that could potentially block ambient
light".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import telemetry
from repro.bvh.nodes import FlatBVH
from repro.geometry.ray import RayBatch, RayBatchValidation, validate_ray_batch
from repro.rays.camera import PinholeCamera
from repro.rays.sampling import cosine_hemisphere_batch
from repro.scenes.scene import Scene
from repro.trace.traversal import DEFAULT_ENGINE, trace_closest_batch

#: Offset applied along the normal to avoid self-intersection.
_SURFACE_EPSILON = 1e-4
#: AO ray length bounds as fractions of the scene bbox diagonal (paper 5.2).
AO_LENGTH_MIN_FRACTION = 0.25
AO_LENGTH_MAX_FRACTION = 0.40


@dataclass
class AOWorkload:
    """A generated AO workload.

    Attributes:
        rays: the occlusion rays, in generation order (pixel-major,
            ``spp`` consecutive rays per hit pixel).
        pixel_index: flat pixel index of each AO ray's primary hit.
        num_primary: primary rays traced (width * height).
        num_primary_hits: primary rays that hit geometry.
        width, height, spp: the viewport parameters used.
        validation: input-screening counters for the generated rays
            (degenerate surface normals can yield zero-length AO
            directions; such rays are filtered out, and the counters
            record how many).
    """

    rays: RayBatch
    pixel_index: np.ndarray
    num_primary: int
    num_primary_hits: int
    width: int
    height: int
    spp: int
    validation: Optional[RayBatchValidation] = None

    def __len__(self) -> int:
        return len(self.rays)


def generate_ao_rays(
    scene: Scene,
    bvh: FlatBVH,
    hit_points: np.ndarray,
    normals: np.ndarray,
    spp: int,
    rng: np.random.Generator,
) -> RayBatch:
    """Spawn ``spp`` cosine-sampled AO rays per surface point.

    Args:
        scene: provides the bounding-box diagonal for ray lengths.
        bvh: unused by generation itself; kept so future variants can
            consult the tree (e.g. to seed per-leaf statistics).
        hit_points: surface points, shape ``(n, 3)``.
        normals: unit surface normals, shape ``(n, 3)``.
        spp: samples (AO rays) per point.
        rng: seeded generator for deterministic workloads.
    """
    if spp < 1:
        raise ValueError("spp must be >= 1")
    del bvh  # reserved for future use
    n = hit_points.shape[0]
    points = np.repeat(hit_points, spp, axis=0)
    reps = np.repeat(normals, spp, axis=0)
    directions = cosine_hemisphere_batch(reps, rng)
    origins = points + _SURFACE_EPSILON * reps

    diagonal = scene.aabb().diagonal_length()
    lengths = rng.uniform(
        AO_LENGTH_MIN_FRACTION * diagonal, AO_LENGTH_MAX_FRACTION * diagonal, n * spp
    )
    return RayBatch(origins, directions, t_min=0.0, t_max=lengths)


def generate_ao_workload(
    scene: Scene,
    bvh: FlatBVH,
    width: int = 64,
    height: int = 64,
    spp: int = 2,
    seed: int = 0,
) -> AOWorkload:
    """Full Section 5.2 pipeline: primary pass then AO ray generation.

    The paper uses 1024x1024 at 4 spp (about four million AO rays); the
    defaults here are scaled for a pure-Python simulator but the knobs are
    identical.  The primary pass uses the default (wavefront) traversal
    engine.
    """
    with telemetry.span(
        "workload.generate", width=width, height=height, spp=spp,
        engine=DEFAULT_ENGINE,
    ) as sp:
        workload = _generate_ao_workload(scene, bvh, width, height, spp, seed)
        sp.add(
            rays=len(workload.rays),
            primary_hits=workload.num_primary_hits,
        )
    telemetry.inc_counter(
        "workload.ao_rays", len(workload.rays), engine=DEFAULT_ENGINE
    )
    return workload


def _generate_ao_workload(
    scene: Scene,
    bvh: FlatBVH,
    width: int,
    height: int,
    spp: int,
    seed: int,
) -> AOWorkload:
    rng = np.random.default_rng(seed)
    camera = PinholeCamera(scene.camera, width, height)
    primary = camera.primary_rays()
    ts, tris = trace_closest_batch(bvh, primary)

    hit_mask = tris >= 0
    hit_idx = np.nonzero(hit_mask)[0]
    hit_points = primary.origins[hit_idx] + primary.directions[hit_idx] * ts[hit_idx][:, None]

    # Geometric normals of the hit triangles, flipped toward the viewer.
    mesh = bvh.mesh
    hit_tris = tris[hit_idx]
    e1 = mesh.v1[hit_tris] - mesh.v0[hit_tris]
    e2 = mesh.v2[hit_tris] - mesh.v0[hit_tris]
    normals = np.cross(e1, e2)
    norms = np.linalg.norm(normals, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    normals /= norms
    facing = np.einsum("ij,ij->i", normals, primary.directions[hit_idx])
    normals[facing > 0.0] *= -1.0

    rays = generate_ao_rays(scene, bvh, hit_points, normals, spp, rng)
    pixel_index = np.repeat(hit_idx, spp)
    # Input boundary guard: drop NaN/inf/zero-direction rays (possible
    # with degenerate geometry) so downstream traversal never sees them.
    rays, validation = validate_ray_batch(rays, mode="filter")
    if not validation.ok:
        pixel_index = pixel_index[validation.kept]
    return AOWorkload(
        rays=rays,
        pixel_index=pixel_index,
        num_primary=len(primary),
        num_primary_hits=int(hit_idx.size),
        width=width,
        height=height,
        spp=spp,
        validation=validation,
    )
