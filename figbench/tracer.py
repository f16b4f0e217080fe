"""In-memory span recorder for the figure-regeneration benchmark.

Spans are recorded by the benchmark around each call into a ``repro.*``
layer, never inside the program.  A disabled tracer hands out a shared
``nullcontext`` so the untraced runs that give the end-to-end metrics
pay nothing per call.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

_NULL = nullcontext()


@dataclass
class Span:
    """One timed interval; ``parent`` indexes the enclosing span."""

    name: str
    start: float
    end: float
    parent: Optional[int]


class Tracer:
    """Records nested spans (name, start, end, parent) in memory."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._open: List[int] = []

    def span(self, name: str):
        """Context manager timing one layer call (no-op when disabled)."""
        return self._span(name) if self.enabled else _NULL

    @contextmanager
    def _span(self, name: str) -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def self_times(self, root: int) -> Dict[str, float]:
        """Self time per span name within the subtree rooted at ``root``.

        A span's self time is its duration minus the durations of its
        direct children; the calls are serial, so children never overlap.
        """
        inside = {root}
        totals: Dict[str, float] = {}
        for index in range(root, len(self.spans)):
            span = self.spans[index]
            if index != root and span.parent not in inside:
                continue
            inside.add(index)
            duration = span.end - span.start
            totals[span.name] = totals.get(span.name, 0.0) + duration
            if span.parent is not None and index != root:
                parent = self.spans[span.parent].name
                totals[parent] = totals.get(parent, 0.0) - duration
        return totals
