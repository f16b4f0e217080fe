"""Reference BVH traversal (Algorithm 1) and traversal statistics.

These kernels are the functional ground truth: the predictor and the
RT-unit timing model are validated against them, and the limit study
(Figure 2) uses their all-hits variant to compute oracle predictions.
"""

from repro.telemetry.stats import TraversalStats
from repro.trace.packets import occlusion_packet, trace_occlusion_packets
from repro.trace.stackless import occlusion_any_hit_stackless
from repro.trace.traversal import (
    DEFAULT_ENGINE,
    closest_hit,
    occlusion_all_hit_leaves,
    occlusion_any_hit,
    occlusion_any_hit_tri,
    occlusion_from_nodes,
    trace_closest_batch,
    trace_occlusion_batch,
)
from repro.trace.wavefront import (
    ENGINES,
    PerRayCounters,
    as_ray_batch,
    resolve_engine,
    wavefront_closest_batch,
    wavefront_occlusion_batch,
    wavefront_occlusion_tri_batch,
    wavefront_verify_batch,
)

__all__ = [
    "DEFAULT_ENGINE",
    "ENGINES",
    "PerRayCounters",
    "TraversalStats",
    "as_ray_batch",
    "closest_hit",
    "occlusion_all_hit_leaves",
    "occlusion_any_hit",
    "occlusion_any_hit_stackless",
    "occlusion_any_hit_tri",
    "occlusion_from_nodes",
    "occlusion_packet",
    "resolve_engine",
    "trace_closest_batch",
    "trace_occlusion_batch",
    "trace_occlusion_packets",
    "wavefront_closest_batch",
    "wavefront_occlusion_batch",
    "wavefront_occlusion_tri_batch",
    "wavefront_verify_batch",
]
