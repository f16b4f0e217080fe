"""Warp-level discrete-event model of the RT unit (Figure 10).

Execution model
---------------

Rays arrive grouped into source warps of 32.  The unit holds at most
``max_warps`` resident warps (the 256-slot ray buffer); a new source warp
is admitted whenever a warp slot and 32 ray-buffer slots are free.

On admission a warp (optionally) performs the predictor stage: every
thread hashes its ray and looks the predictor table up through the
table's access ports (4 lookups per cycle by default).  With repacking
enabled, predicted rays leave the warp for the partial warp collector,
which re-emits full 32-ray warps (or flushes on timeout); without
repacking, predicted rays simply have their predicted nodes pushed onto
their traversal stacks in place.  Repacked warps occupy warp slots up to
``max_warps + extra_warps`` (Section 4.4.2).

Each subsequent *step* of a resident warp pops one traversal-stack entry
per active thread:

* an interior node costs one node-record fetch (the record holds both
  children's boxes) and two pipelined box tests, then pushes surviving
  children near-first;
* a leaf costs one triangle-record fetch and test per triangle, stopping
  at the first hit (occlusion semantics).

The step's distinct cache-line requests issue through the single L1 port
on consecutive cycles and overlap MSHR-style, so the memory time is the
max of individual completion times; the pipelined intersection latency
is added on top.  The warp becomes ready again at that completion time;
a heap ordered by (ready time, warp age) realizes greedy-then-oldest
scheduling.  Mispredicted rays restart from the root inside their
thread, which is exactly the "long tail" that warp repacking removes.

Predictor *updates* are applied when a ray completes, so a lookup only
sees training from rays that already finished - the delayed-update
behaviour that makes sorted rays benefit less (Section 6).

Functional/timing split
-----------------------

Which entries a ray pops on its traversal from the root depends only on
the BVH and the ray; the timing model decides only *when* each pop
happens.  So each run first computes every ray's root traversal in one
numpy pass (:func:`repro.trace.lockstep.lockstep_occlusion_trace`) and
compiles it into flat per-pop columns - the pop's cache lines (a slice
of the per-record line table: one node record, or the leaf's tested
triangle records, which are contiguous) and its latency, spill penalty
included - plus per-ray fetch, test and spill totals.  A thread then
keeps only a cursor into those columns, and a warp step advances it.
That covers an unpredicted ray's whole traversal and the replay after a
misprediction or guard restart.  The pops under a predicted node still
run the scalar box and triangle tests (:meth:`RTUnit._interior_step`,
:meth:`RTUnit._leaf_step`): their stack starts from nodes the table
handed out at admission, so they cannot be computed ahead of the run.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import InitVar, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.bvh.nodes import FlatBVH
from repro.core.predictor import RayPredictor
from repro.core.repacking import COLLECTOR_CAPACITY, PartialWarpCollector
from repro.errors import SimulationStallError
from repro.geometry.intersect import ray_aabb_intersect, ray_triangle_intersect
from repro.geometry.ray import RayBatch
from repro.gpu.config import GPUConfig
from repro.gpu.memory import MemoryHierarchy
from repro.telemetry.publish import (
    LaneHistogram,
    publish_rt_unit_result,
    publish_table_stats,
    table_stats_state,
)
from repro.trace.lockstep import PopTrace, lockstep_occlusion_trace

#: Marker pushed below predicted nodes; popping it means the prediction
#: failed and the ray must restart from the root (misprediction recovery).
_RESTART_SENTINEL = -2


@dataclass
class _ThreadState:
    """One ray resident in the ray buffer."""

    ray_id: int
    #: The ray itself, read only by the scalar step, so a thread loads it
    #: when it is predicted (replayed pops never test anything).
    origin: Optional[Tuple[float, float, float]] = None
    direction: Optional[Tuple[float, float, float]] = None
    inv_direction: Optional[Tuple[float, float, float]] = None
    t_min: float = 0.0
    t_max: float = 0.0
    ray_hash: int = 0
    stack: List[int] = field(default_factory=list)
    ready_time: int = 0
    done: bool = False
    trained: bool = False
    hit_tri: int = -1
    predicted: bool = False
    verified: bool = False
    restarted: bool = False
    node_fetches: int = 0
    tri_fetches: int = 0
    verify_node_fetches: int = 0
    verify_tri_fetches: int = 0
    spills: int = 0
    #: Next row of the root traversal to replay, or -1 while the thread
    #: pops a predicted stack with the scalar step.
    cursor: int = -1
    #: One past the root traversal's last row, and its hit triangle.
    root_end: int = 0
    root_hit: int = -1


@dataclass
class _RootTraces:
    """Every ray's root traversal, compiled for replay.

    Columnar, with no per-pop Python objects: pop ``k`` fetches
    ``record_lines[rec_lo[k]:rec_hi[k]]`` and completes ``latency[k]``
    cycles after its data returns.  Records are the BVH nodes, then the
    triangles, so an interior pop names one record and a leaf pop the
    contiguous run of triangles it tested (none for an empty leaf).
    """

    start: List[int]
    end: List[int]
    hit: List[int]
    rec_lo: memoryview
    rec_hi: memoryview
    latency: memoryview
    #: Per-ray totals, charged to the run when a thread replays.
    node_fetches: np.ndarray
    tri_fetches: np.ndarray
    spills: np.ndarray


@dataclass
class _Warp:
    """A resident warp: its threads plus scheduling metadata.

    ``inflight`` models MSHR merging plus the data broadcast of Section
    5.1.2: while a line request is outstanding (its data has not returned
    yet), further requests for the same line from this warp merge into it
    for free.  Once the data returned and was broadcast, a later request
    must re-access the memory system (it will usually hit the L1, but
    still costs a port slot) - so threads that fall out of phase with
    their warp-mates stop benefiting, which is the cost warp repacking
    recovers.
    """

    threads: List[_ThreadState]
    age: int
    ready_time: int
    from_collector: bool = False
    inflight: Dict[int, int] = field(default_factory=dict)


@dataclass
class _StepOutcome:
    """Bookkeeping produced by one warp step."""

    end_time: int
    finished: bool
    active_threads: int
    mis_node_fetches: int = 0
    mis_tri_fetches: int = 0
    box_tests: int = 0
    tri_tests: int = 0
    updates: int = 0
    retired: int = 0
    guard_restarts: int = 0


@dataclass
class RTUnitResult:
    """Aggregate output of one RT-unit run."""

    cycles: int
    rays: int
    hits: int
    predicted: int
    verified: int
    node_fetches: int
    tri_fetches: int
    misprediction_node_fetches: int
    misprediction_tri_fetches: int
    box_tests: int
    tri_tests: int
    warps_executed: int
    warp_steps: int
    active_thread_steps: int
    stack_spills: int
    l1_accesses: int
    l1_hits: int
    l2_accesses: int
    l2_hits: int
    dram_accesses: int
    dram_bank_parallelism: float
    predictor_lookups: int
    predictor_updates: int
    collector_warps: int
    collector_timeout_flushes: int
    #: Threads whose speculative stack held an invalid node index and
    #: were restarted from the root by the guard (0 in healthy runs).
    guard_restarts: int = 0
    #: DRAM accesses that hit their bank's open row buffer (pure
    #: observability - row state never changes timing).
    dram_row_hits: int = 0
    #: Threads per warp, the width ``simt_efficiency`` normalizes by.
    #: Init-only, so ``dataclasses.asdict`` still holds only counters.
    warp_size: InitVar[int] = 32

    def __post_init__(self, warp_size: int) -> None:
        self.warp_size = warp_size

    @property
    def dram_row_hit_rate(self) -> float:
        """Fraction of this run's DRAM accesses that were row-buffer hits."""
        return self.dram_row_hits / self.dram_accesses if self.dram_accesses else 0.0

    @property
    def total_accesses(self) -> int:
        """Memory accesses at record granularity (nodes + triangles)."""
        return self.node_fetches + self.tri_fetches

    @property
    def predicted_rate(self) -> float:
        """Fraction of rays with a predictor-table hit."""
        return self.predicted / self.rays if self.rays else 0.0

    @property
    def verified_rate(self) -> float:
        """Fraction of rays whose prediction verified."""
        return self.verified / self.rays if self.rays else 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of rays intersecting the scene."""
        return self.hits / self.rays if self.rays else 0.0

    @property
    def l1_hit_rate(self) -> float:
        """L1 hit rate of this run."""
        return self.l1_hits / self.l1_accesses if self.l1_accesses else 0.0

    @property
    def l2_hit_rate(self) -> float:
        """L2 hit rate seen by this SM's misses."""
        return self.l2_hits / self.l2_accesses if self.l2_accesses else 0.0

    @property
    def simt_efficiency(self) -> float:
        """Active threads per warp step, normalized to the warp width."""
        if not self.warp_steps:
            return 0.0
        return self.active_thread_steps / (self.warp_steps * self.warp_size)

    def rays_per_cycle(self) -> float:
        """Throughput of this RT unit."""
        return self.rays / self.cycles if self.cycles else 0.0


class RTUnit:
    """One SM's RT unit, optionally augmented with the predictor."""

    def __init__(
        self,
        bvh: FlatBVH,
        config: GPUConfig,
        memory: MemoryHierarchy,
        predictor: Optional[RayPredictor] = None,
    ) -> None:
        self.bvh = bvh
        self.config = config
        self.rt = config.rt_unit
        self.memory = memory
        self.predictor = predictor
        if config.predictor is not None and predictor is None:
            self.predictor = RayPredictor(bvh, config.predictor)
        self._hot = bvh.hot()
        # Cache line of every record: the nodes, then the triangles.
        self._record_lines = memory.line_of(np.concatenate((
            bvh.node_address(np.arange(bvh.num_nodes, dtype=np.int64)),
            bvh.triangle_address(np.arange(bvh.num_triangles, dtype=np.int64)),
        ))).tolist()
        self._rays: Optional[RayBatch] = None
        self._roots: Optional[_RootTraces] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, rays: RayBatch) -> RTUnitResult:
        """Trace every ray in ``rays`` (in order) and return statistics."""
        table = getattr(self.predictor, "table", None)
        table_base = table_stats_state(table)
        with telemetry.span(
            "rt_unit.run", rays=len(rays),
            predictor=self.predictor is not None, engine="scalar",
        ) as sp:
            result = self._run(rays)
            sp.add(cycles=result.cycles, warp_steps=result.warp_steps)
        publish_rt_unit_result(result)
        publish_table_stats(table, since=table_base, engine="scalar")
        return result

    def _trace_roots(self, rays: RayBatch) -> _RootTraces:
        """Every ray's root traversal, as compact per-pop replay columns."""
        with telemetry.span("rt_unit.trace", rays=len(rays)) as sp:
            trace = lockstep_occlusion_trace(self.bvh, rays)
            sp.add(pops=len(trace))
            roots = self._compile(trace, len(rays))
        if telemetry.enabled():
            telemetry.inc_counter("rt_unit.trace_pops", len(trace))
        return roots

    def _compile(self, trace: PopTrace, num_rays: int) -> _RootTraces:
        """Per-pop record ranges and latencies, per-ray totals."""
        rt = self.rt
        leaf = self.bvh.left[trace.node] < 0
        rec_lo = np.where(
            leaf, self.bvh.num_nodes + self.bvh.first_tri[trace.node], trace.node
        )
        rec_hi = rec_lo + np.where(leaf, trace.tris, 1)
        latency = np.where(
            leaf,
            rt.tri_test_latency + np.maximum(trace.tris - 1, 0),
            rt.box_test_latency + 1,
        )
        spilled = trace.depth > rt.stack_entries
        latency = latency + np.where(spilled, rt.stack_spill_penalty, 0)
        starts = trace.starts(num_rays)

        def per_ray(values: np.ndarray) -> np.ndarray:
            totals = np.bincount(trace.ray, weights=values, minlength=num_rays)
            return totals.astype(np.int64)

        def column(values: np.ndarray) -> memoryview:
            return memoryview(np.ascontiguousarray(values, dtype=np.int32))

        return _RootTraces(
            start=starts[:-1].tolist(),
            end=starts[1:].tolist(),
            hit=trace.hit[starts[1:] - 1].tolist(),
            rec_lo=column(rec_lo),
            rec_hi=column(rec_hi),
            latency=column(latency),
            node_fetches=per_ray(~leaf),
            tri_fetches=per_ray(trace.tris),
            spills=per_ray(spilled),
        )

    def _run(self, rays: RayBatch) -> RTUnitResult:
        """The discrete-event loop behind :meth:`run`."""
        self._rays = rays
        self._roots = roots = self._trace_roots(rays)
        threads = self._make_threads(rays)
        pending = [
            threads[i : i + self.rt.warp_size]
            for i in range(0, len(threads), self.rt.warp_size)
        ]
        pending.reverse()  # pop() from the back yields original order

        use_predictor = self.predictor is not None
        repack = use_predictor and self.predictor.config.repack
        # The unit's real capacity limit is the ray buffer (8 warps x 32
        # rays); "additional warps" (Section 4.4.2) raise the number of
        # simultaneously executing warps, i.e. buffer-resident rays.
        extra = self.predictor.config.extra_warps if use_predictor else 0
        buffer_capacity = (self.rt.max_warps + extra) * self.rt.warp_size
        # `capacity` is a constructor floor (push() drains at warp_size
        # regardless); widening it for wide-SIMT configs is behaviorally
        # free and keeps warp_size > COLLECTOR_CAPACITY legal.
        collector = PartialWarpCollector(
            warp_size=self.rt.warp_size,
            capacity=max(COLLECTOR_CAPACITY, self.rt.warp_size),
            timeout_cycles=self.config.collector_timeout,
        )
        collector_last_push = 0
        collector_ready: List[List[int]] = []  # flushed warps awaiting a slot

        heap: List[Tuple[int, int, _Warp]] = []
        counter = itertools.count()
        now = 0
        resident = 0
        buffer_used = 0
        warps_executed = 0
        collector_warps = 0
        warp_steps = 0
        active_thread_steps = 0
        # Divergence introspection: per-iteration active-lane counts,
        # accumulated locally and folded into the registry at run end.
        lane_hist = LaneHistogram() if telemetry.enabled() else None
        mis_nodes = 0
        mis_tris = 0
        box_tests = 0
        tri_tests = 0
        predictor_lookups = 0
        predictor_updates = 0
        guard_restarts = 0
        retired_rays = 0
        steps_since_retire = 0
        watchdog_cycles = self.config.watchdog_cycles
        watchdog_stall_steps = self.config.watchdog_stall_steps
        l1_before = (self.memory.l1.stats.accesses, self.memory.l1.stats.hits)
        l2_before = (self.memory.l2.stats.accesses, self.memory.l2.stats.hits)
        dram_before = self.memory.dram.stats.accesses
        dram_row_before = self.memory.dram.stats.row_hits

        def launch(warp: _Warp) -> None:
            nonlocal resident
            resident += 1
            heapq.heappush(heap, (warp.ready_time, warp.age, warp))

        def dispatch_collector_ready(time: int) -> None:
            """Launch flushed repacked warps immediately.

            Their rays already hold ray-buffer slots (only ray IDs moved,
            Section 4.4.1), so no admission gate applies.
            """
            nonlocal collector_warps
            while collector_ready:
                ids = collector_ready.pop(0)
                collector_warps += 1
                launch(
                    _Warp(
                        threads=[threads[r] for r in ids],
                        age=next(counter),
                        ready_time=time + self.rt.queue_latency,
                        from_collector=True,
                    )
                )

        def admit_source(time: int) -> None:
            """Admit pending source warps while ray-buffer space allows."""
            nonlocal buffer_used, warps_executed, collector_last_push
            nonlocal predictor_lookups
            while pending and buffer_used + self.rt.warp_size <= buffer_capacity:
                group = pending.pop()
                buffer_used += len(group)
                ready = time + self.rt.queue_latency
                if use_predictor:
                    ready += self._predictor_stage(group)
                    predictor_lookups += len(group)
                    if repack:
                        predicted = [t for t in group if t.predicted]
                        group = [t for t in group if not t.predicted]
                        if predicted:
                            for ids in collector.push([t.ray_id for t in predicted]):
                                collector_ready.append(ids)
                            collector_last_push = ready
                            dispatch_collector_ready(ready)
                        if not group:
                            continue
                warps_executed += 1
                launch(_Warp(threads=list(group), age=next(counter), ready_time=ready))

        def drain_collector(time: int, force: bool) -> None:
            """Flush the collector on timeout (or unconditionally at the end)."""
            nonlocal collector_last_push
            if len(collector) == 0:
                return
            if not force and time - collector_last_push < collector.timeout_cycles:
                return
            while len(collector):
                flushed = collector.flush(reason="final" if force else "timeout")
                if not flushed:
                    break
                collector_ready.append(flushed)
                if not force:
                    break
            collector_last_push = time
            dispatch_collector_ready(time)

        admit_source(0)
        while heap or pending or len(collector) or collector_ready:
            if not heap:
                # Nothing in flight: force out stragglers, then admit.
                drain_collector(now, force=True)
                dispatch_collector_ready(now)
                admit_source(now)
                if not heap:
                    break
            ready, _, warp = heapq.heappop(heap)
            now = max(now, ready)
            step = self._step_warp(warp, now)
            warp_steps += 1
            active_thread_steps += step.active_threads
            if lane_hist is not None:
                lane_hist.add(step.active_threads)
            mis_nodes += step.mis_node_fetches
            mis_tris += step.mis_tri_fetches
            box_tests += step.box_tests
            tri_tests += step.tri_tests
            predictor_updates += step.updates
            guard_restarts += step.guard_restarts

            # Watchdog: a corrupted state machine must abort with
            # diagnostics, not spin until the host process is killed.
            retired_rays += step.retired
            steps_since_retire = 0 if step.retired else steps_since_retire + 1
            if (watchdog_cycles is not None and now > watchdog_cycles) or (
                steps_since_retire > watchdog_stall_steps
            ):
                reason = (
                    f"cycle cap {watchdog_cycles} exceeded"
                    if watchdog_cycles is not None and now > watchdog_cycles
                    else f"{steps_since_retire} warp iterations without a ray retiring"
                )
                raise SimulationStallError(
                    f"RT-unit watchdog fired at cycle {now}: {reason} "
                    f"({retired_rays}/{len(threads)} rays retired, "
                    f"{resident} resident warps, {len(pending)} source warps pending)",
                    cycles=now,
                    diagnostics={
                        "retired_rays": retired_rays,
                        "total_rays": len(threads),
                        "resident_warps": resident,
                        "pending_source_warps": len(pending),
                        "buffer_used": buffer_used,
                        "warp_steps": warp_steps,
                        "collector_occupancy": len(collector),
                    },
                )

            if step.finished:
                resident -= 1
                buffer_used -= len(warp.threads)
                dispatch_collector_ready(step.end_time)
                admit_source(step.end_time)
            else:
                warp.ready_time = step.end_time
                heapq.heappush(heap, (step.end_time, warp.age, warp))

            if repack:
                drain_collector(now, force=False)

        if lane_hist is not None:
            lane_hist.publish(engine="scalar")
        # Threads still holding a cursor replayed their whole root
        # traversal: charge its fetches, tests and spills.
        replayed = np.array(
            [t.ray_id for t in threads if t.cursor >= 0], dtype=np.int64
        )
        root_nodes = int(roots.node_fetches[replayed].sum())
        root_tris = int(roots.tri_fetches[replayed].sum())
        l1 = self.memory.l1.stats
        l2 = self.memory.l2.stats
        dram = self.memory.dram.stats
        return RTUnitResult(
            cycles=now,
            rays=len(threads),
            hits=sum(1 for t in threads if t.hit_tri >= 0),
            predicted=sum(1 for t in threads if t.predicted),
            verified=sum(1 for t in threads if t.verified),
            node_fetches=sum(t.node_fetches for t in threads) + root_nodes,
            tri_fetches=sum(t.tri_fetches for t in threads) + root_tris,
            misprediction_node_fetches=mis_nodes,
            misprediction_tri_fetches=mis_tris,
            box_tests=box_tests + 2 * root_nodes,
            tri_tests=tri_tests + root_tris,
            warps_executed=warps_executed + collector_warps,
            warp_steps=warp_steps,
            active_thread_steps=active_thread_steps,
            stack_spills=(
                sum(t.spills for t in threads) + int(roots.spills[replayed].sum())
            ),
            l1_accesses=l1.accesses - l1_before[0],
            l1_hits=l1.hits - l1_before[1],
            l2_accesses=l2.accesses - l2_before[0],
            l2_hits=l2.hits - l2_before[1],
            dram_accesses=dram.accesses - dram_before,
            dram_bank_parallelism=dram.bank_parallelism(
                self.memory.dram.config.num_banks
            ),
            predictor_lookups=predictor_lookups,
            predictor_updates=predictor_updates,
            collector_warps=collector_warps,
            collector_timeout_flushes=collector.stats.timeout_flushes,
            guard_restarts=guard_restarts,
            dram_row_hits=dram.row_hits - dram_row_before,
            warp_size=self.rt.warp_size,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _make_threads(self, rays: RayBatch) -> List[_ThreadState]:
        """One thread per ray, each set to replay its root traversal."""
        roots = self._roots
        threads = [
            _ThreadState(
                ray_id=i,
                cursor=roots.start[i],
                root_end=roots.end[i],
                root_hit=roots.hit[i],
            )
            for i in range(len(rays))
        ]
        if self.predictor is not None:
            hashes = self.predictor.hash_batch(rays.origins, rays.directions)
            for thread, ray_hash in zip(threads, hashes.tolist()):
                thread.ray_hash = ray_hash
        return threads

    def _predictor_stage(self, group: Sequence[_ThreadState]) -> int:
        """Run lookups for a warp; returns the stage latency in cycles.

        Lookups drain through the table's access ports; predicted rays
        get their predicted node(s) pushed above a restart sentinel and
        pop them with the scalar step.
        """
        assert self.predictor is not None
        config = self.predictor.config
        for thread in group:
            nodes = self.predictor.predict(thread.ray_hash)
            if nodes:
                thread.predicted = True
                # On verification failure the sentinel triggers a root restart.
                thread.stack = [_RESTART_SENTINEL] + list(reversed(nodes))
                thread.cursor = -1
                ray = self._rays[thread.ray_id]
                thread.origin, thread.direction = ray.origin, ray.direction
                thread.inv_direction = ray.inv_direction()
                thread.t_min, thread.t_max = ray.t_min, ray.t_max
        ports = max(1, config.ports)
        return (len(group) + ports - 1) // ports + config.lookup_latency

    def _step_warp(self, warp: _Warp, now: int) -> _StepOutcome:
        """Service every thread of ``warp`` that is ready at cycle ``now``.

        Threads progress semi-independently, as in the paper's RT unit
        (per-warp FIFO, requests merged MSHR-style, results broadcast to
        the ray buffer): each ready thread pops one stack entry, its
        distinct cache lines issue back-to-back through the L1 port, and
        the thread becomes ready again at its own data-return time plus
        the pipelined intersection latency.  The warp re-enters the
        scheduler at the earliest thread-ready time, and only releases
        its warp slot when every thread has completed - so a slow
        (mispredicted) thread still holds the slot, which is precisely
        the cost warp repacking removes.

        A pop on a root traversal replays the next row of the thread's
        precomputed trace; only pops under a predicted node run the
        scalar box and triangle tests.
        """
        roots = self._roots
        record_lines = self._record_lines
        rec_lo, rec_hi, pop_latency = roots.rec_lo, roots.rec_hi, roots.latency

        out = _StepOutcome(end_time=now, finished=False, active_threads=0)
        # Gather the threads to service and their memory lines.  Lines are
        # deduplicated across the whole service group (MSHR merging); the
        # coalesce window lets slightly-later threads join the iteration,
        # modeling the per-warp FIFO merge and data broadcast.
        if self.rt.warp_barrier:
            horizon = float("inf")  # every active thread joins the iteration
        else:
            horizon = now + self.rt.coalesce_window
        lines: Dict[int, int] = {}  # line -> completion time (filled below)
        participants: List[Tuple[_ThreadState, List[int], int]] = []

        for thread in warp.threads:
            if thread.done or thread.ready_time > horizon:
                continue
            if thread.cursor < 0:
                popped = self._scalar_pop(thread, out)
                if popped is not None:
                    for line in popped[1]:
                        lines.setdefault(line, 0)
                    participants.append(popped)
                    continue
                # Restarted: the same step pops the root traversal's root.

            # Replay the next pop of the root traversal.
            row = thread.cursor
            if row == thread.root_end:
                thread.done = True  # traversal exhausted: scene miss
                self._retire_thread(thread, out)
                continue
            thread.cursor = row + 1
            if row + 1 == thread.root_end and thread.root_hit >= 0:
                thread.hit_tri = thread.root_hit
                thread.done = True
            thread_lines = record_lines[rec_lo[row]:rec_hi[row]]
            for line in thread_lines:
                lines.setdefault(line, 0)
            participants.append((thread, thread_lines, pop_latency[row]))

        out.active_threads = len(participants)
        if not participants:
            # Popped early relative to thread readiness (or all done).
            remaining = [t.ready_time for t in warp.threads if not t.done]
            if remaining:
                out.end_time = max(now + 1, min(remaining))
                out.finished = False
            else:
                out.end_time = now + 1
                out.finished = True
            return out

        # Each warp iteration first claims a controller slot (one warp is
        # serviced per cycle), then issues its distinct lines through the
        # SM's L1 port; misses overlap MSHR-style, so each line completes
        # independently.  A line whose data is still in flight for this
        # warp merges for free (MSHR + broadcast); once returned, a later
        # request must re-access the memory system.
        start = self.memory.acquire_scheduler_slot(now)
        inflight = warp.inflight
        access = self.memory.access_line_time
        prune_above = 4 * self.rt.warp_size
        for line in lines:
            pending = inflight.get(line)
            if pending is not None and pending >= start:
                lines[line] = pending
                continue
            ready = access(line, start)
            lines[line] = ready
            inflight[line] = ready
            if len(inflight) > prune_above:
                # Prune stale entries opportunistically.
                warp.inflight = {
                    l: t for l, t in inflight.items() if t >= start
                }
                inflight = warp.inflight

        for thread, thread_lines, latency in participants:
            # Conditional expressions, not max(): this loop runs once per
            # pop, and the builtin's call overhead dominated it.
            if len(thread_lines) == 1:
                data_ready = lines[thread_lines[0]]
            elif thread_lines:
                data_ready = max([lines[line] for line in thread_lines])
            else:
                data_ready = start + 1
            # A thread that joined the iteration early (ready later than
            # `now` but within the window) still pays its residual latency.
            residual = thread.ready_time - now
            floor = start + residual if residual > 0 else start
            thread.ready_time = (data_ready if data_ready > floor else floor) + latency
            if thread.done:
                self._retire_thread(thread, out)

        if all(t.done for t in warp.threads):
            out.end_time = max(now + 1, max(t.ready_time for t in warp.threads))
            out.finished = True
        else:
            remaining = [t.ready_time for t in warp.threads if not t.done]
            # Barrier semantics: the next iteration starts when the slowest
            # thread's data returned; otherwise when the fastest is ready.
            pick = max(remaining) if self.rt.warp_barrier else min(remaining)
            out.end_time = max(now + 1, pick)
            out.finished = False
        return out

    def _scalar_pop(
        self, thread: _ThreadState, out: _StepOutcome
    ) -> Optional[Tuple[_ThreadState, List[int], int]]:
        """Pop a predicted stack with the scalar step.

        Returns the participant entry ``(thread, lines, latency)``, or
        ``None`` when the pop restarted the thread onto its root
        traversal instead.
        """
        node = thread.stack.pop()
        if node == _RESTART_SENTINEL or not 0 <= node < self.bvh.num_nodes:
            self._restart(thread, node, out)
            return None
        rt = self.rt
        thread_lines: List[int] = []
        if self._hot.left[node] < 0:
            tests = self._leaf_step(
                thread, node, thread_lines, self.memory.line_of,
                self.bvh.triangle_address,
            )
            out.tri_tests += tests
            latency = rt.tri_test_latency + max(0, tests - 1)
        else:
            self._interior_step(
                thread, node, thread_lines, self.memory.line_of,
                self.bvh.node_address,
            )
            out.box_tests += 2
            latency = rt.box_test_latency + 1
        if len(thread.stack) > rt.stack_entries:
            thread.spills += 1
            latency += rt.stack_spill_penalty
        return thread, thread_lines, latency

    def _restart(self, thread: _ThreadState, node: int, out: _StepOutcome) -> None:
        """Abandon a predicted stack and replay the root traversal.

        Popping the restart sentinel means the prediction was exhausted
        without a hit: a misprediction.  Popping a node outside the BVH
        means a corrupted prediction bypassed the predictor's range
        guard; a negative index would *silently* wrap in the Python node
        arrays - the worst possible failure - so the speculative stack is
        discarded instead.  Either way the verification traffic is
        charged as a misprediction.  A restarted thread only replays, so
        it never pops a speculative entry again.
        """
        if node != _RESTART_SENTINEL:
            out.guard_restarts += 1
        out.mis_node_fetches += thread.verify_node_fetches
        out.mis_tri_fetches += thread.verify_tri_fetches
        thread.restarted = True
        thread.stack = []
        thread.cursor = self._roots.start[thread.ray_id]

    def _interior_step(self, thread, node, thread_lines, line_of, node_base) -> None:
        """Fetch an interior node and box-test both children."""
        hot = self._hot
        thread.node_fetches += 1
        if thread.predicted and not thread.restarted and not thread.verified:
            thread.verify_node_fetches += 1
        thread_lines.append(line_of(node_base(node)))

        ox, oy, oz = thread.origin
        ix, iy, iz = thread.inv_direction
        child = hot.left[node]
        other = hot.right[node]
        hit_l, t_l = ray_aabb_intersect(
            ox, oy, oz, ix, iy, iz, thread.t_min, thread.t_max,
            hot.lo_x[child], hot.lo_y[child], hot.lo_z[child],
            hot.hi_x[child], hot.hi_y[child], hot.hi_z[child],
        )
        hit_r, t_r = ray_aabb_intersect(
            ox, oy, oz, ix, iy, iz, thread.t_min, thread.t_max,
            hot.lo_x[other], hot.lo_y[other], hot.lo_z[other],
            hot.hi_x[other], hot.hi_y[other], hot.hi_z[other],
        )
        stack = thread.stack
        if hit_l and hit_r:
            if t_l <= t_r:
                stack.append(other)
                stack.append(child)
            else:
                stack.append(child)
                stack.append(other)
        elif hit_l:
            stack.append(child)
        elif hit_r:
            stack.append(other)

    def _leaf_step(self, thread, node, thread_lines, line_of, tri_base) -> int:
        """Fetch and test a leaf's triangles; returns tests performed."""
        hot = self._hot
        ox, oy, oz = thread.origin
        dx, dy, dz = thread.direction
        start = hot.first_tri[node]
        count = hot.tri_count[node]
        tests = 0
        verifying = thread.predicted and not thread.restarted and not thread.verified
        for tri in range(start, start + count):
            thread.tri_fetches += 1
            if verifying:
                thread.verify_tri_fetches += 1
            thread_lines.append(line_of(tri_base(tri)))
            tests += 1
            t = ray_triangle_intersect(
                ox, oy, oz, dx, dy, dz, thread.t_min, thread.t_max,
                hot.tri_v0[tri], hot.tri_v1[tri], hot.tri_v2[tri],
            )
            if t is not None:
                thread.hit_tri = tri
                thread.done = True
                if verifying:
                    thread.verified = True
                break
        return tests

    def _retire_thread(self, thread: _ThreadState, out: _StepOutcome) -> None:
        """Train the predictor once when a hitting ray completes."""
        if thread.trained:
            return
        thread.trained = True
        out.retired += 1
        if thread.hit_tri >= 0 and self.predictor is not None:
            self.predictor.train(thread.ray_hash, thread.hit_tri)
            out.updates += 1
            if thread.verified:
                self.predictor.confirm(
                    thread.ray_hash, self.predictor.trained_node_for(thread.hit_tri)
                )
