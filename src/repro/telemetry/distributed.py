"""Cross-process telemetry: ship worker state home, merge it losslessly.

The sharded execution paths (``repro bench --jobs N`` and
``repro simulate --jobs N``) run each unit in a worker process of
:func:`repro.resilience.sweep.run_units`.  Telemetry state is
process-global, so before this module existed every counter increment,
histogram observation, and span recorded inside a worker died with the
worker - the parent's artifact silently showed only parent-side work.

The fix is a snapshot/absorb pair riding the existing result path:

* the worker calls :func:`init_worker` first (fork inherits the
  parent's live registry, so the worker *must* reset before recording),
  runs its unit, then returns :func:`capture_snapshot` alongside its
  normal result payload;
* the parent calls :func:`absorb_snapshot` on each returned snapshot,
  in scene order whatever order the workers finished in, merging counters
  by label-preserving addition, histograms by raw-bucket union
  (:meth:`~repro.telemetry.metrics.Histogram.add_raw`), and gauges by
  last-write-wins - the same semantics a serial run would produce;
* :func:`stitched_chrome_trace` renders the parent's events plus every
  absorbed worker's events under the worker's original ``pid``, so one
  ``trace.json`` shows the whole sharded sweep as separate process rows.

Snapshots are plain JSON-safe dicts (schema :data:`SNAPSHOT_SCHEMA`),
so they can be embedded in artifacts verbatim.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from repro import telemetry
from repro.telemetry.metrics import MetricError, Registry
from repro.telemetry.tracing import (
    TraceEvent,
    chrome_trace_events,
    summarize_spans,
)

#: Schema tag stamped on every worker snapshot.
SNAPSHOT_SCHEMA = "repro-telemetry-worker/1"


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def init_worker(
    enabled: bool,
    ambient_labels: Optional[Dict[str, str]] = None,
) -> None:
    """Prepare a pool worker's telemetry state before it runs a unit.

    With ``enabled=False`` this forces telemetry off (cheap no-op paths
    for the whole unit).  With ``enabled=True`` it enables *and resets*:
    on Linux the default ``fork`` start method clones the parent's live
    registry and ring buffer into the child, and without the reset the
    worker's snapshot would double-count everything the parent had
    already recorded at fork time.  ``ambient_labels`` re-establishes
    the parent's label context (e.g. a sweep-level ``run`` label) that
    the reset just cleared.
    """
    if not enabled:
        telemetry.disable()
        return
    telemetry.enable(reset=True)
    if ambient_labels:
        # Re-pin the parent's ambient labels for the worker's lifetime.
        # The worker process is single-unit and exits afterwards, so the
        # context is deliberately never popped.
        telemetry._CONTEXT_LABELS.append(
            {k: str(v) for k, v in ambient_labels.items()}
        )


def capture_snapshot(unit: Optional[str] = None) -> Optional[dict]:
    """Serialize this process's telemetry state for transport.

    Returns ``None`` when telemetry is off (the common case - callers
    ship it as-is and the parent skips ``None`` snapshots).  The dict is
    JSON-safe: metrics via :meth:`Registry.snapshot`, trace events via
    :meth:`TraceEvent.to_dict`, plus the phase-timer report and enough
    identity (``pid``, ``unit``) for trace stitching and diagnostics.
    """
    if not telemetry.enabled():
        return None
    tracer = telemetry.get_tracer()
    return {
        "schema": SNAPSHOT_SCHEMA,
        "pid": os.getpid(),
        "unit": unit,
        "metrics": telemetry.get_registry().snapshot(),
        "events": [ev.to_dict() for ev in tracer.events()],
        "dropped_events": tracer.dropped,
        "phases": telemetry.get_phase_timer().report(),
    }


# ----------------------------------------------------------------------
# Parent side: merging
# ----------------------------------------------------------------------
def _decumulate(buckets: List[dict]) -> List[int]:
    """Raw per-bucket counts from exported cumulative ``le`` buckets."""
    raw: List[int] = []
    previous = 0
    for bucket in buckets:
        count = int(bucket["count"])
        raw.append(count - previous)
        previous = count
    return raw


def _snapshot_edges(buckets: List[dict]) -> tuple:
    """The finite bucket edges encoded in an exported histogram."""
    return tuple(
        float(b["le"]) for b in buckets if b["le"] != "inf"
    )


def merge_metrics(registry: Registry, metrics: dict) -> None:
    """Merge one exported :meth:`Registry.snapshot` into ``registry``.

    * counters: label-preserving addition;
    * gauges: last-write-wins (matching serial semantics, where the
      later unit's ``set`` overwrites the earlier one's);
    * histograms: raw-bucket union via :meth:`Histogram.add_raw`.

    Collisions are surfaced, never papered over: a name registered as a
    different kind, or a histogram arriving with different bucket
    edges, raises :class:`~repro.telemetry.metrics.MetricError`.
    """
    for entry in metrics.get("counters", ()):
        registry.counter(entry["name"], **entry["labels"]).inc(
            int(entry["value"])
        )
    for entry in metrics.get("gauges", ()):
        registry.gauge(entry["name"], **entry["labels"]).set(entry["value"])
    for entry in metrics.get("histograms", ()):
        edges = _snapshot_edges(entry["buckets"])
        if not edges:
            raise MetricError(
                f"histogram {entry['name']!r} snapshot has no finite edges"
            )
        local = registry.histogram(
            entry["name"], buckets=edges, **entry["labels"]
        )
        local.add_raw(
            _decumulate(entry["buckets"]),
            int(entry["count"]),
            float(entry["sum"]),
            float(entry["min"]),
            float(entry["max"]),
        )


def absorb_snapshot(snapshot: Optional[dict]) -> bool:
    """Fold a worker snapshot into this process's global telemetry.

    Merges the metrics into the global registry and stores the snapshot
    for trace stitching / span summaries.  Returns whether anything was
    absorbed (``None`` - the worker ran with telemetry off - is a
    no-op).  Safe to call with telemetry currently disabled: absorbing
    is an explicit parent-side decision, not a hot-path hook.
    """
    if snapshot is None:
        return False
    schema = snapshot.get("schema")
    if schema != SNAPSHOT_SCHEMA:
        raise MetricError(
            f"unrecognized worker telemetry snapshot schema {schema!r} "
            f"(expected {SNAPSHOT_SCHEMA!r})"
        )
    merge_metrics(telemetry.get_registry(), snapshot.get("metrics", {}))
    telemetry._append_worker_snapshot(snapshot)
    return True


# ----------------------------------------------------------------------
# Parent side: reading the merged picture
# ----------------------------------------------------------------------
def _worker_events(snapshot: dict) -> List[TraceEvent]:
    return [TraceEvent.from_dict(d) for d in snapshot.get("events", ())]


def merged_span_summary() -> Dict[str, dict]:
    """Per-stage span statistics across the parent and every worker."""
    events = telemetry.get_tracer().events()
    for snapshot in telemetry.worker_snapshots():
        events.extend(_worker_events(snapshot))
    return summarize_spans(events)


def total_dropped_events() -> int:
    """Ring-buffer drops across the parent and every absorbed worker."""
    dropped = telemetry.get_tracer().dropped
    for snapshot in telemetry.worker_snapshots():
        dropped += int(snapshot.get("dropped_events", 0))
    return dropped


def stitched_chrome_trace(process_name: str = "repro") -> List[dict]:
    """One Chrome ``trace_event`` array covering every process.

    The parent's row comes first (named ``process_name``), then one row
    per absorbed worker snapshot, named after the worker's unit and
    keyed by the worker's original ``pid`` so the viewer separates the
    shards.  Timestamps within each row are relative to that process's
    tracer epoch (rows align at zero, not wall clock); cross-process
    *ordering* should be read from the parent's spans, per-shard
    *attribution* from the worker rows.
    """
    out = telemetry.get_tracer().chrome_trace(process_name)
    for index, snapshot in enumerate(telemetry.worker_snapshots()):
        unit = snapshot.get("unit") or f"worker-{index}"
        pid = int(snapshot.get("pid", -(index + 1)))
        out.extend(chrome_trace_events(
            _worker_events(snapshot), pid,
            f"{process_name}-worker/{unit}",
        ))
    return out


def worker_summary() -> List[dict]:
    """Compact per-worker accounting for artifact embedding."""
    summary = []
    for snapshot in telemetry.worker_snapshots():
        metrics = snapshot.get("metrics", {})
        summary.append({
            "pid": snapshot.get("pid"),
            "unit": snapshot.get("unit"),
            "counters": len(metrics.get("counters", ())),
            "histograms": len(metrics.get("histograms", ())),
            "events": len(snapshot.get("events", ())),
            "dropped_events": snapshot.get("dropped_events", 0),
        })
    return summary


def payload_section() -> Optional[dict]:
    """The artifact's ``telemetry`` section, or None with telemetry off.

    Metrics come from the merged registry, spans and ring-buffer drops
    from the parent plus every absorbed worker; ``workers`` appears only
    when worker snapshots were absorbed (a sharded run).
    """
    if not telemetry.enabled():
        return None
    section = {
        "metrics": telemetry.get_registry().snapshot(),
        "spans": merged_span_summary(),
        "dropped_events": total_dropped_events(),
    }
    workers = worker_summary()
    if workers:
        section["workers"] = workers
    return section


__all__ = [
    "SNAPSHOT_SCHEMA",
    "absorb_snapshot",
    "capture_snapshot",
    "init_worker",
    "merge_metrics",
    "merged_span_summary",
    "payload_section",
    "stitched_chrome_trace",
    "total_dropped_events",
    "worker_summary",
]
