"""The graceful-degradation ladder and the partial-results manifest.

The paper's predictor is safe because a bad speculation falls back to a
full BVH traversal instead of a wrong image.  This module applies the
same philosophy at *run* granularity: when a unit of sweep work fails
even after retries, it steps down an explicit ladder of progressively
cheaper-but-safer configurations instead of sinking the whole sweep:

====================  ==================================================
rung                  meaning
====================  ==================================================
``wavefront``         full configuration, production engines
``predictor_off``     predictor-disabled baseline - plain traversal
                      only, no table, no functional simulation
``skip``              give up on the unit, record a diagnostic
====================  ==================================================

A sweep therefore always terminates, and its artifact carries a
:class:`PartialResultsManifest` listing what succeeded, what ran
degraded (and at which rung), and what was skipped and why.

No rung switches engines.  Like the paper's own fallback (verify, then
a full traversal), stepping down changes cost and never the answer: a
``predictor_off`` row counts the same production-engine baseline that
a full-rung row divides its savings by.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: The ladder, strongest rung first.  ``skip`` is always last and always
#: "succeeds" (by recording a diagnostic instead of a result).
LADDER: Tuple[str, ...] = ("wavefront", "predictor_off", "skip")

#: Unit statuses a manifest entry can carry.
STATUSES: Tuple[str, ...] = ("ok", "degraded", "skipped", "failed", "resumed")


def next_rung(rung: str) -> Optional[str]:
    """The rung below ``rung``, or None when already at ``skip``."""
    if rung not in LADDER:
        raise ValueError(f"unknown degradation rung {rung!r}")
    index = LADDER.index(rung)
    return LADDER[index + 1] if index + 1 < len(LADDER) else None


def rungs_from(rung: str) -> Tuple[str, ...]:
    """``rung`` and every rung below it, in descent order."""
    if rung not in LADDER:
        raise ValueError(f"unknown degradation rung {rung!r}")
    return LADDER[LADDER.index(rung):]


@dataclass
class UnitEntry:
    """One unit's outcome in the manifest.

    Attributes:
        unit: unit name (scene code for sweeps).
        status: ``ok`` (ran clean at the requested rung), ``degraded``
            (produced a result at a lower rung), ``skipped`` (bottom of
            the ladder), ``failed`` (no-degrade mode only), or
            ``resumed`` (served from a checkpoint).
        rung: the rung the result was finally produced at (or ``skip``).
        attempts: total attempts across all rungs.
        retries: attempts beyond the first on any rung.
        errors: one diagnostic string per failed attempt, in order
            (``rung/attempt: ErrorClass: message``).
    """

    unit: str
    status: str
    rung: str
    attempts: int = 1
    retries: int = 0
    errors: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "unit": self.unit,
            "status": self.status,
            "rung": self.rung,
            "attempts": self.attempts,
            "retries": self.retries,
            "errors": list(self.errors),
        }


@dataclass
class PartialResultsManifest:
    """What a resilient sweep actually delivered.

    The manifest is the sweep's honesty contract: a run that exits 0 is
    not claiming every unit succeeded, it is claiming every unit is
    *accounted for* here.
    """

    entries: List[UnitEntry] = field(default_factory=list)

    def add(self, entry: UnitEntry) -> UnitEntry:
        if entry.status not in STATUSES:
            raise ValueError(f"unknown unit status {entry.status!r}")
        self.entries.append(entry)
        return entry

    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        tally = {status: 0 for status in STATUSES}
        for entry in self.entries:
            tally[entry.status] += 1
        return tally

    @property
    def complete(self) -> bool:
        """True when no unit was lost outright (``failed`` is empty)."""
        return all(entry.status != "failed" for entry in self.entries)

    @property
    def clean(self) -> bool:
        """True when every unit ran at its requested rung."""
        return all(entry.status in ("ok", "resumed") for entry in self.entries)

    def to_dict(self) -> dict:
        return {
            "units": [entry.to_dict() for entry in self.entries],
            "counts": self.counts(),
            "complete": self.complete,
        }

    def summary(self) -> str:
        """Human-readable account, one line per non-clean unit."""
        tally = self.counts()
        head = (
            f"resilience manifest: {len(self.entries)} units "
            f"({tally['ok']} ok, {tally['resumed']} resumed, "
            f"{tally['degraded']} degraded, {tally['skipped']} skipped, "
            f"{tally['failed']} failed)"
        )
        lines = [head]
        for entry in self.entries:
            if entry.status in ("ok", "resumed") and not entry.errors:
                continue
            detail = entry.errors[-1] if entry.errors else "no diagnostic"
            lines.append(
                f"  {entry.unit}: {entry.status} at rung {entry.rung} "
                f"after {entry.attempts} attempt(s) - {detail}"
            )
        return "\n".join(lines)


__all__ = [
    "LADDER",
    "STATUSES",
    "PartialResultsManifest",
    "UnitEntry",
    "next_rung",
    "rungs_from",
]
