"""Memoized baseline (predictor-off) traversal counters.

``simulate_predictor`` needs, for every ray stream it simulates, the
traffic of a *full* occlusion traversal: it is both the denominator of
the paper's memory-savings metrics and the fallback cost of every
unverified ray.  Ablation sweeps (``tab06``/``tab07``/``tab08``) run
many predictor configurations over the *same* ``(bvh, rays)`` unit, and
the baseline is a pure function of that unit - recomputing it per
configuration was the single largest redundant cost in a sweep.

This module memoizes one :class:`BaselineRecord` per
``(bvh, rays, engine)``:

* Per-ray independence: a ray's full-traversal result and counters do
  not depend on which other rays share the batch (wavefront rays only
  share kernel launches, never state), so one whole-stream record can
  serve any subset - a window's fallback rays, a window's verified
  rays, or the predictor-off baseline.
* Engine affinity: order-dependent counters differ between the scalar
  and wavefront engines, so records are keyed by engine and never mix.
  A missing record is filled eagerly for either engine: one batched
  wavefront pass, or a per-ray scalar traversal loop.
* Keying: the BVH is keyed by identity (a strong reference is kept and
  re-checked, so a recycled ``id()`` can never alias) and the rays by a
  content digest - sweeps rebuild ``RayBatch`` views freely, and equal
  ray content must hit.

The cache is a small process-local LRU; entries are a few ``int64``
arrays per ray stream.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro import telemetry
from repro.bvh.nodes import FlatBVH
from repro.geometry.ray import RayBatch
from repro.telemetry.stats import TraversalStats
from repro.trace.traversal import occlusion_any_hit_tri
from repro.trace.wavefront import resolve_engine, wavefront_occlusion_tri_batch

#: Maximum memoized (bvh, rays, engine) records kept alive.
CACHE_CAPACITY = 8

_CacheKey = Tuple[int, str, str]


@dataclass
class BaselineRecord:
    """Per-ray full-traversal results and traffic for one ray stream."""

    hit_tri: np.ndarray
    node_fetches: np.ndarray
    tri_fetches: np.ndarray
    #: Streams served from this record after its first computation.
    hits: int = 0
    #: Strong references pinning the cache key's identity.
    _bvh: Optional[FlatBVH] = field(default=None, repr=False)


_CACHE: "OrderedDict[_CacheKey, BaselineRecord]" = OrderedDict()


def _rays_digest(rays: RayBatch) -> str:
    """Content digest of a ray stream (subsets/rebuilds with equal
    content must share one baseline)."""
    h = hashlib.sha1()
    for arr in (rays.origins, rays.directions, rays.t_min, rays.t_max):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _full_traversals(bvh: FlatBVH, rays: RayBatch, engine: str):
    """(hit_tri, node_fetches, tri_fetches) per ray under ``engine``."""
    if engine == "wavefront":
        hit_tri, counters = wavefront_occlusion_tri_batch(bvh, rays, per_ray=True)
        return hit_tri, counters.node_fetches, counters.tri_fetches
    n = len(rays)
    hit_tri = np.empty(n, dtype=np.int64)
    node_fetches = np.empty(n, dtype=np.int64)
    tri_fetches = np.empty(n, dtype=np.int64)
    stats = TraversalStats()
    for i in range(n):
        nodes, tris = stats.node_fetches, stats.tri_fetches
        hit_tri[i] = occlusion_any_hit_tri(bvh, rays[i], stats=stats)
        node_fetches[i] = stats.node_fetches - nodes
        tri_fetches[i] = stats.tri_fetches - tris
    return hit_tri, node_fetches, tri_fetches


def baseline_record(bvh: FlatBVH, rays: RayBatch, engine: str) -> BaselineRecord:
    """The memoized baseline record for ``(bvh, rays, engine)``.

    Args:
        bvh: acceleration structure (keyed by identity).
        rays: the ray stream (keyed by content digest).
        engine: ``"wavefront"`` or ``"scalar"`` - counters are
            order-dependent, so records never cross engines.  A missing
            record is computed here, whole, under that engine.
    """
    resolve_engine(engine)
    key: _CacheKey = (id(bvh), engine, _rays_digest(rays))
    record = _CACHE.get(key)
    if record is not None and record._bvh is bvh:
        _CACHE.move_to_end(key)
        record.hits += 1
        return record
    with telemetry.span("predictor.baseline", engine=engine, rays=len(rays)):
        record = BaselineRecord(*_full_traversals(bvh, rays, engine), _bvh=bvh)
    _CACHE[key] = record
    _CACHE.move_to_end(key)
    while len(_CACHE) > CACHE_CAPACITY:
        _CACHE.popitem(last=False)
    return record


def clear_baseline_cache() -> None:
    """Drop every memoized record (tests, or frees pinned BVHs)."""
    _CACHE.clear()


def baseline_cache_info() -> dict:
    """JSON-safe cache summary (telemetry/debugging)."""
    return {
        "entries": len(_CACHE),
        "capacity": CACHE_CAPACITY,
        "hits": sum(rec.hits for rec in _CACHE.values()),
    }


__all__ = [
    "CACHE_CAPACITY",
    "BaselineRecord",
    "baseline_cache_info",
    "baseline_record",
    "clear_baseline_cache",
]
