"""The differential oracle: speculation must never change correctness.

Runs the same occlusion rays twice - once through the plain traversal
baseline (no predictor), once through the functional predictor
simulation while a :class:`~repro.faults.injector.FaultInjector`
actively corrupts the table - and compares per-ray occlusion results
bit-for-bit.  Any divergence means a guard failed and speculation
leaked into correctness, which :func:`run_differential_oracle` can
surface as a structured :class:`~repro.errors.OracleMismatchError`.

This is the executable form of the paper's Section 3 contract ("a
misprediction is later checked ... and the ray falls back to a full
traversal"), generalized from *mispredicted* to *arbitrarily corrupted*
table state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.bvh.nodes import FlatBVH
from repro.core.predictor import PredictorConfig, RayPredictor
from repro.core.simulate import DEFAULT_IN_FLIGHT, simulate_predictor
from repro.errors import OracleMismatchError
from repro.faults.injector import FaultConfig, FaultInjector, FaultyPredictor
from repro.geometry.ray import RayBatch, validate_ray_batch
from repro.trace.traversal import trace_occlusion_batch
from repro.trace.wavefront import resolve_engine


@dataclass
class DifferentialReport:
    """Outcome of one differential-oracle run.

    Attributes:
        scene: label for reporting (scene code or name).
        num_rays: rays compared (after input screening).
        rays_filtered: malformed rays removed by input screening before
            the comparison (only non-zero when ray perturbation is on).
        faults_injected: table faults actually landed by the injector.
        guard_drops: invalid node ids dropped by the predictor's range
            guard across the run.
        guard_fallbacks: verifications the traversal guard aborted
            (each degraded to a full traversal).
        predicted / verified: predictor statistics under injection.
        mismatches: ray indices whose occlusion result differed from
            the baseline - must be empty.
    """

    scene: str
    num_rays: int
    rays_filtered: int
    faults_injected: int
    guard_drops: int
    guard_fallbacks: int
    predicted: int
    verified: int
    mismatches: List[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every ray's occlusion result matched the baseline."""
        return not self.mismatches

    def summary(self) -> str:
        """Human-readable one-paragraph report."""
        status = "OK" if self.ok else f"MISMATCH on {len(self.mismatches)} rays"
        return (
            f"[{self.scene}] differential oracle: {status} | "
            f"{self.num_rays} rays ({self.rays_filtered} filtered at input), "
            f"{self.faults_injected} table faults injected, "
            f"{self.guard_drops} invalid nodes dropped by the predictor guard, "
            f"{self.guard_fallbacks} traversal-guard fallbacks, "
            f"predicted {self.predicted}, verified {self.verified}"
        )

    def raise_on_mismatch(self) -> None:
        """Raise :class:`OracleMismatchError` unless the run was clean."""
        if not self.ok:
            raise OracleMismatchError(self.summary(), mismatched_rays=self.mismatches)


def run_differential_oracle(
    bvh: FlatBVH,
    rays: RayBatch,
    config: Optional[PredictorConfig] = None,
    fault_config: Optional[FaultConfig] = None,
    in_flight: int = DEFAULT_IN_FLIGHT,
    perturb_rays: bool = False,
    scene: str = "?",
    engine: str = "wavefront",
) -> DifferentialReport:
    """Compare baseline vs. predictor-under-injected-faults occlusion.

    Args:
        bvh: the acceleration structure.
        rays: occlusion rays (traced in order by both pipelines).
        config: predictor configuration (Table 3 defaults).
        fault_config: injection campaign; the default corrupts one table
            entry per ~10 lookups.
        in_flight: delayed-update window for the functional simulation.
        perturb_rays: additionally run the batch through the injector's
            ray perturbation and the input-validation filter first
            (exercises the full input boundary, not just the table).
        scene: label used in the report.
        engine: traversal engine for both the baseline batch and the
            predictor simulation: the production ``"wavefront"`` engine,
            or the ``"scalar"`` reference, which the tests hold to the
            same contract - corrupted speculation must never change
            per-ray occlusion under either.

    Returns:
        A :class:`DifferentialReport`; check ``report.ok`` or call
        ``report.raise_on_mismatch()``.
    """
    resolve_engine(engine)
    fault_config = fault_config or FaultConfig()
    injector = FaultInjector(fault_config, num_nodes=bvh.num_nodes)

    rays_filtered = 0
    if perturb_rays:
        rays = injector.perturb_rays(rays)
        rays, screening = validate_ray_batch(rays, mode="filter")
        rays_filtered = screening.num_invalid

    # Baseline: per-ray occlusion by plain full traversal.
    baseline = trace_occlusion_batch(bvh, rays, engine=engine)

    # Predictor under fault injection, same rays, same order.
    predictor = RayPredictor(bvh, config)
    faulty = FaultyPredictor(predictor, injector)
    result = simulate_predictor(
        bvh, rays, predictor=faulty, in_flight=in_flight, keep_outcomes=True,
        engine=engine,
    )
    under_faults = np.array([o.hit for o in result.outcomes], dtype=bool)

    mismatches = np.nonzero(baseline != under_faults)[0].tolist()
    table_faults = sum(1 for rec in injector.log if rec.surface == "table")
    return DifferentialReport(
        scene=scene,
        num_rays=len(rays),
        rays_filtered=rays_filtered,
        faults_injected=table_faults,
        guard_drops=predictor.guards.invalid_nodes_dropped,
        guard_fallbacks=result.guard_fallbacks,
        predicted=result.predicted,
        verified=result.verified,
        mismatches=mismatches,
    )
