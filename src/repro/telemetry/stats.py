"""Traversal statistics counters (canonical home of ``TraversalStats``).

The paper's figures are denominated in *memory accesses*: fetches of BVH
node records versus fetches of triangle records (Figure 1, Figure 13)
and nodes traversed per ray (Equation 1, Table 5).
:class:`TraversalStats` accumulates exactly those quantities as a cheap
local struct - per-ray hot loops mutate plain integers - and
:meth:`TraversalStats.publish` folds a finished accumulation into the
global telemetry registry as labeled ``trace.*`` counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro import telemetry


@dataclass
class TraversalStats:
    """Mutable counters accumulated while tracing one or more rays.

    Attributes:
        node_fetches: interior BVH node records fetched from memory.
        tri_fetches: triangle records fetched from memory.
        box_tests: ray-box intersection tests executed.
        tri_tests: ray-triangle intersection tests executed.
        rays: rays traced into this counter.
        hits: rays that found an intersection.
        trace: optional ordered access log of ``("node"|"tri", index)``
            pairs, populated only when tracing with ``record_trace=True``.
    """

    node_fetches: int = 0
    tri_fetches: int = 0
    box_tests: int = 0
    tri_tests: int = 0
    rays: int = 0
    hits: int = 0
    trace: List[Tuple[str, int]] = field(default_factory=list)

    @property
    def total_accesses(self) -> int:
        """Total memory accesses (node + triangle fetches)."""
        return self.node_fetches + self.tri_fetches

    def merge(self, other: "TraversalStats") -> None:
        """Accumulate ``other`` into this counter (traces concatenate)."""
        self.node_fetches += other.node_fetches
        self.tri_fetches += other.tri_fetches
        self.box_tests += other.box_tests
        self.tri_tests += other.tri_tests
        self.rays += other.rays
        self.hits += other.hits
        if other.trace:
            self.trace.extend(other.trace)

    def per_ray(self) -> "TraversalStats":
        """Average counters per ray (trace omitted)."""
        n = max(1, self.rays)
        return TraversalStats(
            node_fetches=self.node_fetches / n,
            tri_fetches=self.tri_fetches / n,
            box_tests=self.box_tests / n,
            tri_tests=self.tri_tests / n,
            rays=1,
            hits=self.hits / n,
        )

    def publish(self, **labels: object) -> None:
        """Fold into the global registry as ``trace.*`` counters.

        No-op while telemetry is disabled.  Typical labels: ``engine``
        (scalar/wavefront) and ``stage`` (occlusion/closest/verify);
        ambient :func:`repro.telemetry.label_context` labels (scene)
        merge in automatically.
        """
        if not telemetry.enabled():
            return
        telemetry.inc_counter("trace.rays", self.rays, **labels)
        telemetry.inc_counter("trace.hits", self.hits, **labels)
        telemetry.inc_counter("trace.node_fetches", self.node_fetches, **labels)
        telemetry.inc_counter("trace.tri_fetches", self.tri_fetches, **labels)
        telemetry.inc_counter("trace.box_tests", self.box_tests, **labels)
        telemetry.inc_counter("trace.tri_tests", self.tri_tests, **labels)


__all__ = ["TraversalStats"]
