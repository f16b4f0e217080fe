"""Reflection-ray generation (used by the Figure 11 correlation study).

The paper correlates its simulated RT unit against hardware using
primary and reflection rays.  Reflection rays are spawned at primary hit
points by mirroring the incoming direction about the surface normal -
the classic incoherent workload.
"""

from __future__ import annotations

import numpy as np

from repro.bvh.nodes import FlatBVH
from repro.geometry.ray import RayBatch, validate_ray_batch
from repro.rays.camera import PinholeCamera
from repro.scenes.scene import Scene
from repro.trace.traversal import trace_closest_batch

_SURFACE_EPSILON = 1e-4


def generate_reflection_rays(
    scene: Scene,
    bvh: FlatBVH,
    width: int = 64,
    height: int = 64,
) -> RayBatch:
    """One specular reflection ray per primary-hit pixel.

    Rays are unbounded (``t_max = inf``); pixels whose primary ray missed
    produce no reflection ray.
    """
    camera = PinholeCamera(scene.camera, width, height)
    primary = camera.primary_rays()
    ts, tris = trace_closest_batch(bvh, primary)
    hit_idx = np.nonzero(tris >= 0)[0]
    if hit_idx.size == 0:
        return RayBatch(np.zeros((0, 3)), np.zeros((0, 3)))

    points = primary.origins[hit_idx] + primary.directions[hit_idx] * ts[hit_idx][:, None]
    mesh = bvh.mesh
    hit_tris = tris[hit_idx]
    e1 = mesh.v1[hit_tris] - mesh.v0[hit_tris]
    e2 = mesh.v2[hit_tris] - mesh.v0[hit_tris]
    normals = np.cross(e1, e2)
    norms = np.linalg.norm(normals, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    normals /= norms
    incoming = primary.directions[hit_idx]
    facing = np.einsum("ij,ij->i", normals, incoming)
    normals[facing > 0.0] *= -1.0
    facing = np.einsum("ij,ij->i", normals, incoming)

    reflected = incoming - 2.0 * facing[:, None] * normals
    lengths = np.linalg.norm(reflected, axis=1, keepdims=True)
    lengths[lengths == 0.0] = 1.0
    reflected /= lengths
    origins = points + _SURFACE_EPSILON * normals
    rays = RayBatch(origins, reflected, t_min=0.0, t_max=np.inf)
    # Input boundary guard, same as the AO generator: degenerate normals
    # give NaN or zero-length reflection directions.
    rays, _ = validate_ray_batch(rays, mode="filter")
    return rays
