"""The run supervisor: deadlines, budgets, retries, and the ladder.

Every unit of sweep work (one scene of a bench or simulate sweep) runs
under :class:`RunSupervisor`, which

1. enforces a **wall-clock deadline** (the unit runs in a worker thread;
   when the deadline expires the unit is abandoned - the daemon thread
   can no longer affect the sweep - and a structured
   :class:`~repro.errors.UnitTimeoutError` is recorded);
2. enforces a **memory budget** via :mod:`tracemalloc` (post-hoc by
   necessity: pure Python cannot interrupt a single allocation, so the
   check classifies the unit for degradation rather than pre-empting
   it);
3. **classifies failures** through the :mod:`repro.errors` hierarchy:
   *transient* errors retry at the same rung with seeded-jitter
   exponential backoff and bounded attempts, *degradable* errors drop
   straight down the :data:`~repro.resilience.degrade.LADDER`,
   *skip-class* errors (a corrupt scene asset will not improve at a
   lower rung) jump to the bottom, and *fatal* errors
   (:class:`~repro.errors.OracleMismatchError` - correctness broke -
   and checkpoint corruption) propagate immediately;
4. records every decision as telemetry spans
   (``supervisor.attempt``) and counters (``supervisor.retries``,
   ``supervisor.degradations``, ``supervisor.skips``).

Backoff jitter is drawn from a per-unit ``numpy.random.Generator``
seeded by ``(policy seed, crc32(unit name))``, so retry schedules are
reproducible across processes and independent of unit ordering.
"""

from __future__ import annotations

import threading
import time
import tracemalloc
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.errors import (
    CheckpointError,
    InjectedFaultError,
    InputValidationError,
    MemoryBudgetError,
    OracleMismatchError,
    SceneLoadError,
    SimulationStallError,
    SweepFailedError,
    TraversalError,
    UnitTimeoutError,
)
from repro.resilience.degrade import LADDER, UnitEntry, rungs_from

#: Failure classes the supervisor acts on.
TRANSIENT, DEGRADE, SKIP, FATAL = "transient", "degrade", "skip", "fatal"


def classify_failure(exc: BaseException) -> str:
    """Map an exception to the supervisor's four failure classes.

    The order matters: :class:`OracleMismatchError` is fatal even though
    it derives from :class:`ReproError` like the degradable errors - a
    correctness violation must never be papered over by the ladder.
    """
    if isinstance(exc, (OracleMismatchError, CheckpointError)):
        return FATAL
    if isinstance(exc, (InjectedFaultError, UnitTimeoutError, OSError)):
        return TRANSIENT
    if isinstance(
        exc,
        (MemoryError, MemoryBudgetError, SimulationStallError, TraversalError),
    ):
        return DEGRADE
    if isinstance(exc, (SceneLoadError, InputValidationError)):
        # Bad input stays bad at every rung; go straight to the diagnostic.
        return SKIP
    # Unknown errors are assumed rung-specific (a predictor-pipeline bug
    # the plain baseline avoids, say); a safer configuration is worth
    # one try.
    return DEGRADE


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with seeded-jitter exponential backoff.

    ``delay(attempt)`` for attempt 1, 2, ... is
    ``min(backoff_max_s, backoff_base_s * backoff_factor**(attempt-1))``
    scaled by a jitter factor uniform in ``[1-jitter, 1+jitter]``.
    """

    max_retries: int = 1
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise InputValidationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise InputValidationError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )

    def delay_s(self, attempt: int, rng: np.random.Generator) -> float:
        base = min(
            self.backoff_max_s,
            self.backoff_base_s * self.backoff_factor ** max(0, attempt - 1),
        )
        return base * (1.0 + self.jitter * (2.0 * float(rng.random()) - 1.0))


@dataclass
class ResilienceOptions:
    """Everything the CLI's resilience flags configure, in one place.

    Attributes:
        checkpoint_path: where sweep progress is persisted (None
            disables checkpointing).
        resume: load prior progress from the checkpoint instead of
            discarding it.
        max_retries: retries per rung for transient failures.
        unit_timeout_s: wall-clock deadline per unit attempt.
        memory_budget_mb: traced-allocation budget per unit attempt.
        degrade: walk the ladder on failure (False = fail the sweep).
        seed: seeds backoff jitter (and nothing else).
        sleep: injectable sleep for tests (defaults to ``time.sleep``).
    """

    checkpoint_path: Optional[str] = None
    resume: bool = False
    max_retries: int = 1
    unit_timeout_s: Optional[float] = None
    memory_budget_mb: Optional[float] = None
    degrade: bool = True
    seed: int = 0
    sleep: Callable[[float], None] = time.sleep

    def retry_policy(self) -> RetryPolicy:
        return RetryPolicy(max_retries=self.max_retries, seed=self.seed)

    def describe(self) -> dict:
        """JSON-safe form for the artifact's resilience section."""
        return {
            "resume": self.resume,
            "max_retries": self.max_retries,
            "unit_timeout_s": self.unit_timeout_s,
            "memory_budget_mb": self.memory_budget_mb,
            "degrade": self.degrade,
            "seed": self.seed,
        }


@dataclass
class UnitOutcome:
    """What the supervisor delivered for one unit.

    ``value`` is the unit function's return value (None for a skipped
    unit); ``entry`` is the manifest record of how it got there.
    """

    value: object
    entry: UnitEntry

    @property
    def produced(self) -> bool:
        return self.entry.status in ("ok", "degraded", "resumed")


class RunSupervisor:
    """Executes units under deadline/budget with retry and degradation.

    One supervisor instance serves a whole sweep; its counters aggregate
    across units and feed the artifact's resilience section.
    """

    def __init__(
        self,
        policy: Optional[RetryPolicy] = None,
        unit_timeout_s: Optional[float] = None,
        memory_budget_mb: Optional[float] = None,
        degrade: bool = True,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if unit_timeout_s is not None and unit_timeout_s <= 0:
            raise InputValidationError(
                f"unit_timeout_s must be positive, got {unit_timeout_s}"
            )
        if memory_budget_mb is not None and memory_budget_mb <= 0:
            raise InputValidationError(
                f"memory_budget_mb must be positive, got {memory_budget_mb}"
            )
        self.policy = policy or RetryPolicy()
        self.unit_timeout_s = unit_timeout_s
        self.memory_budget_mb = memory_budget_mb
        self.degrade = degrade
        self.sleep = sleep
        self.counters: Dict[str, int] = {
            "units": 0, "retries": 0, "degradations": 0, "skips": 0,
            "timeouts": 0, "backoff_sleeps": 0,
        }
        self.total_backoff_s = 0.0

    @classmethod
    def from_options(cls, options: ResilienceOptions) -> "RunSupervisor":
        return cls(
            policy=options.retry_policy(),
            unit_timeout_s=options.unit_timeout_s,
            memory_budget_mb=options.memory_budget_mb,
            degrade=options.degrade,
            sleep=options.sleep,
        )

    # ------------------------------------------------------------------
    def run_unit(
        self,
        unit: str,
        make_fn: Callable[[str], Optional[Callable[[], object]]],
        start_rung: str = LADDER[0],
        progress: Optional[Callable[[str], None]] = None,
    ) -> UnitOutcome:
        """Run one unit, descending the ladder as failures demand.

        Args:
            unit: unit name (manifest key).
            make_fn: rung -> zero-argument work callable, or None when
                the rung is not applicable to this unit (it is stepped
                over without counting as a degradation on its own).
            start_rung: the rung the sweep requested.
            progress: optional one-line status sink.

        Returns:
            A :class:`UnitOutcome`; the entry's status is ``ok`` at the
            start rung, ``degraded`` below it, ``skipped`` at the
            bottom.  With degradation disabled the failing exception is
            re-raised (manifest callers never see a ``failed`` entry
            except through :class:`~repro.errors.SweepFailedError`
            handling).
        """
        say = progress or (lambda msg: None)
        rng = self._unit_rng(unit)
        self.counters["units"] += 1
        attempts = 0
        retries = 0
        errors: List[str] = []

        rungs = rungs_from(start_rung) if self.degrade else (start_rung,)
        for rung in rungs:
            if rung == "skip":
                break
            fn = make_fn(rung)
            if fn is None:
                continue
            value, failure = self._attempt_rung(
                unit, rung, fn, rng, errors, say
            )
            attempts += failure.attempts
            retries += failure.retries
            if failure.ok:
                status = "ok" if rung == start_rung else "degraded"
                if status == "degraded":
                    self.counters["degradations"] += 1
                return UnitOutcome(
                    value,
                    UnitEntry(
                        unit=unit, status=status, rung=rung,
                        attempts=attempts, retries=retries, errors=errors,
                    ),
                )
            if failure.klass == FATAL:
                raise failure.exc
            if not self.degrade:
                entry = UnitEntry(
                    unit=unit, status="failed", rung=rung,
                    attempts=attempts, retries=retries, errors=errors,
                )
                raise SweepFailedError(
                    f"unit {unit} failed at rung {rung} with degradation "
                    f"disabled: {errors[-1] if errors else failure.exc}",
                    failed_units=[unit],
                ) from failure.exc
            if failure.klass == SKIP:
                break
            # DEGRADE (or exhausted TRANSIENT): fall through to next rung.

        self.counters["skips"] += 1
        telemetry.inc_counter("supervisor.skips", unit=unit)
        say(f"[{unit}] skipped after {attempts} attempt(s)")
        return UnitOutcome(
            None,
            UnitEntry(
                unit=unit, status="skipped", rung="skip",
                attempts=attempts, retries=retries, errors=errors,
            ),
        )

    # ------------------------------------------------------------------
    @dataclass
    class _RungFailure:
        ok: bool
        exc: Optional[BaseException] = None
        klass: str = ""
        attempts: int = 0
        retries: int = 0

    def _attempt_rung(
        self,
        unit: str,
        rung: str,
        fn: Callable[[], object],
        rng: np.random.Generator,
        errors: List[str],
        say: Callable[[str], None],
    ) -> Tuple[object, "_RungFailure"]:
        """Attempt one rung up to ``1 + max_retries`` times."""
        failure = self._RungFailure(ok=False)
        for attempt in range(1, self.policy.max_retries + 2):
            failure.attempts += 1
            try:
                with telemetry.span(
                    "supervisor.attempt", unit=unit, rung=rung, attempt=attempt
                ):
                    value = self._execute(unit, fn)
                failure.ok = True
                return value, failure
            except BaseException as exc:  # noqa: BLE001 - classified below
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    raise
                klass = classify_failure(exc)
                errors.append(
                    f"{rung}/attempt {attempt}: {type(exc).__name__}: {exc}"
                )
                if isinstance(exc, UnitTimeoutError):
                    self.counters["timeouts"] += 1
                telemetry.inc_counter(
                    "supervisor.failures", unit=unit, rung=rung,
                    error=type(exc).__name__, klass=klass,
                )
                failure.exc = exc
                failure.klass = klass
                if klass != TRANSIENT or attempt > self.policy.max_retries:
                    if klass == TRANSIENT:
                        # Exhausted retries: hand the unit to the ladder.
                        failure.klass = DEGRADE
                    return None, failure
                delay = self.policy.delay_s(attempt, rng)
                failure.retries += 1
                self.counters["retries"] += 1
                self.counters["backoff_sleeps"] += 1
                self.total_backoff_s += delay
                telemetry.inc_counter("supervisor.retries", unit=unit, rung=rung)
                say(
                    f"[{unit}] {rung} attempt {attempt} failed "
                    f"({type(exc).__name__}); retrying in {delay:.3f}s"
                )
                self.sleep(delay)
        return None, failure  # pragma: no cover - loop always returns

    # ------------------------------------------------------------------
    def _execute(self, unit: str, fn: Callable[[], object]) -> object:
        """One attempt under the deadline and the memory budget."""
        budgeted = self._with_memory_budget(unit, fn)
        if self.unit_timeout_s is None:
            return budgeted()
        return _call_with_deadline(budgeted, self.unit_timeout_s, unit)

    def _with_memory_budget(
        self, unit: str, fn: Callable[[], object]
    ) -> Callable[[], object]:
        if self.memory_budget_mb is None:
            return fn

        def run() -> object:
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            else:
                tracemalloc.reset_peak()
            try:
                value = fn()
                peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                if started:
                    tracemalloc.stop()
            if peak_mb > self.memory_budget_mb:
                raise MemoryBudgetError(
                    f"unit {unit} peaked at {peak_mb:.1f} MiB "
                    f"(budget {self.memory_budget_mb:.1f} MiB)",
                    unit=unit, peak_mb=peak_mb,
                    budget_mb=self.memory_budget_mb,
                )
            return value

        return run

    def _unit_rng(self, unit: str) -> np.random.Generator:
        """Per-unit jitter stream, stable across processes and ordering."""
        return np.random.default_rng(
            [self.policy.seed, zlib.crc32(unit.encode("utf-8"))]
        )

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """JSON-safe counter snapshot for the resilience section."""
        return {
            **self.counters,
            "total_backoff_s": round(self.total_backoff_s, 6),
            "policy": {
                "max_retries": self.policy.max_retries,
                "backoff_base_s": self.policy.backoff_base_s,
                "backoff_factor": self.policy.backoff_factor,
                "backoff_max_s": self.policy.backoff_max_s,
                "jitter": self.policy.jitter,
                "seed": self.policy.seed,
            },
            "unit_timeout_s": self.unit_timeout_s,
            "memory_budget_mb": self.memory_budget_mb,
            "degrade": self.degrade,
        }


def _call_with_deadline(
    fn: Callable[[], object], deadline_s: float, unit: str
) -> object:
    """Run ``fn`` in a worker thread; abandon it past ``deadline_s``.

    Python cannot kill a thread, so an expired unit keeps running as a
    daemon until the interpreter exits - but it can no longer write into
    the sweep, and the supervisor proceeds down the ladder.  The leak is
    bounded (one thread per timed-out attempt) and reported via the
    structured error.
    """
    box: Dict[str, object] = {}
    error: List[BaseException] = []

    def target() -> None:
        try:
            box["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised in caller
            error.append(exc)

    worker = threading.Thread(
        target=target, name=f"repro-unit-{unit}", daemon=True
    )
    worker.start()
    worker.join(deadline_s)
    if worker.is_alive():
        raise UnitTimeoutError(
            f"unit {unit} exceeded its {deadline_s:g}s wall-clock deadline "
            "(worker thread abandoned)",
            unit=unit, deadline_s=deadline_s,
        )
    if error:
        raise error[0]
    return box.get("value")


__all__ = [
    "DEGRADE",
    "FATAL",
    "SKIP",
    "TRANSIENT",
    "ResilienceOptions",
    "RetryPolicy",
    "RunSupervisor",
    "UnitOutcome",
    "classify_failure",
]
