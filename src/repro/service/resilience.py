"""Supervised execution: retries, deadlines, quarantine.

The per-cone cache tier, written as each output bit completes, and
the strash-invariant fingerprints already make every unit of work
safely re-runnable; this module is the supervision layer that exploits that.
Three primitives, composed by :func:`run_supervised`:

:class:`RetryPolicy`
    How many attempts a unit of work gets, which errors are worth a
    new attempt (transient ``OSError`` yes; a parse error, an engine
    error or a term-limit verdict no — they are deterministic), and
    how long to back off between attempts (exponential, capped, with
    *seeded* jitter so schedules stay reproducible).

:class:`Deadline`
    A wall-clock and/or RSS budget.  The RSS watchdog is a daemon
    monitor thread sampling ``/proc`` for the whole attempt; the work
    cooperates by calling :meth:`Deadline.check` at natural yield
    points — the per-bit hook of every pipeline extraction
    (:mod:`repro.service.jobs`).

:func:`run_supervised`
    The attempt loop: emits a ``job.attempt`` span each try, counts
    ``resilience.retry``, and raises :class:`Quarantined` (with a
    structured reason, counted as ``resilience.quarantined``) when the
    attempt budget or the deadline is exhausted — the caller records
    the poison unit and *keeps going* instead of killing the run.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.telemetry import Telemetry, current as current_telemetry

#: OSError subclasses that are deterministic facts about the
#: filesystem, not transient conditions — retrying cannot help.
_DETERMINISTIC_OS_ERRORS: Tuple[type, ...] = (
    FileNotFoundError,
    IsADirectoryError,
    NotADirectoryError,
    PermissionError,
)


class DeadlineExceeded(RuntimeError):
    """A supervised attempt ran past its wall or RSS budget."""


class Quarantined(RuntimeError):
    """A unit of work exhausted its attempt budget or its deadline.

    Carries a structured ``reason`` dict (kind, error, attempts, ...)
    destined for the JSONL report — poison is recorded, not fatal.
    """

    def __init__(self, reason: Dict[str, Any]):
        super().__init__(reason.get("error") or reason.get("kind") or "quarantined")
        self.reason = reason


@dataclass(frozen=True)
class RetryPolicy:
    """Attempt budget + backoff schedule + error classification.

    ``max_attempts`` counts *attempts*, so ``1`` means no retries.
    Backoff before attempt ``n+1`` is ``base_delay_s * 2**(n-1)``
    capped at ``max_delay_s``, then shrunk by up to ``jitter`` of
    itself — the jitter fraction is a pure hash of ``(seed, token,
    attempt)``, so a seeded schedule is reproducible while distinct
    tokens (netlists) still decorrelate.

    >>> policy = RetryPolicy(max_attempts=4, base_delay_s=0.1, jitter=0.0)
    >>> [policy.delay_s(n) for n in (1, 2, 3)]
    [0.1, 0.2, 0.4]
    >>> policy.retryable(OSError("transient"))
    True
    >>> policy.retryable(ValueError("parse error"))
    False
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    jitter: float = 0.5
    seed: int = 0
    retryable_types: Tuple[type, ...] = (OSError,)
    non_retryable_types: Tuple[type, ...] = _DETERMINISTIC_OS_ERRORS

    def retryable(self, error: BaseException) -> bool:
        """Is a fresh attempt worth anything for this error?"""
        if isinstance(error, self.non_retryable_types):
            return False
        return isinstance(error, self.retryable_types)

    def delay_s(self, attempt: int, token: str = "") -> float:
        """Backoff before the attempt *after* 1-based ``attempt``."""
        raw = min(
            self.base_delay_s * (2.0 ** max(0, attempt - 1)),
            self.max_delay_s,
        )
        if not self.jitter:
            return raw
        material = f"{self.seed}:{token}:{attempt}"
        digest = hashlib.sha256(material.encode("utf-8")).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2.0**64
        return raw * (1.0 - self.jitter * fraction)


def _process_rss_bytes() -> Optional[int]:
    """Current resident set size, or ``None`` where unknowable."""
    try:
        with open("/proc/self/statm", "rb") as handle:
            pages = int(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGESIZE")
    except (OSError, ValueError, IndexError):
        pass
    try:  # pragma: no cover - non-/proc platforms
        import resource

        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return int(peak_kib) * 1024
    except Exception:  # pragma: no cover
        return None


class Deadline:
    """Wall-clock and RSS budget for one supervised unit of work.

    Use as a context manager; with an RSS budget a daemon monitor
    thread samples resident memory every ``interval_s``.  The budget
    is *cooperative*: the work calls :meth:`check` at yield points
    (per-bit extraction hooks, attempt boundaries)
    and gets :class:`DeadlineExceeded` once either budget is blown.
    Both budgets ``None`` makes every method a no-op.
    """

    def __init__(
        self,
        wall_s: Optional[float] = None,
        max_rss_bytes: Optional[int] = None,
        interval_s: float = 0.05,
    ):
        self.wall_s = wall_s
        self.max_rss_bytes = max_rss_bytes
        self.interval_s = interval_s
        self.exceeded: Optional[str] = None
        self._started: Optional[float] = None
        # The RSS monitor's stop signal, made with the monitor: a
        # wall-only or unarmed deadline allocates no event.
        self._stop: Optional[threading.Event] = None
        self._monitor: Optional[threading.Thread] = None

    @property
    def armed(self) -> bool:
        return self.wall_s is not None or self.max_rss_bytes is not None

    def __enter__(self) -> "Deadline":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def start(self) -> None:
        self._started = time.monotonic()
        self.exceeded = None
        if self.max_rss_bytes is not None and self._monitor is None:
            self._stop = threading.Event()
            self._monitor = threading.Thread(
                target=self._watch, args=(self._stop,),
                name="repro-deadline-rss", daemon=True,
            )
            self._monitor.start()

    def stop(self) -> None:
        if self._monitor is not None:
            self._stop.set()
            self._monitor.join(timeout=1.0)
            self._monitor = None

    def _watch(self, stop: threading.Event) -> None:
        while not stop.wait(self.interval_s):
            rss = _process_rss_bytes()
            if rss is not None and rss > self.max_rss_bytes:  # type: ignore[operator]
                self.exceeded = (
                    f"rss {rss} bytes exceeds budget {self.max_rss_bytes}"
                )
                return

    def elapsed_s(self) -> float:
        if self._started is None:
            return 0.0
        return time.monotonic() - self._started

    def remaining_s(self) -> Optional[float]:
        """Wall budget left (``None`` = unlimited)."""
        if self.wall_s is None:
            return None
        return self.wall_s - self.elapsed_s()

    def check(self) -> None:
        """Raise :class:`DeadlineExceeded` once a budget is blown."""
        if self.exceeded is not None:
            raise DeadlineExceeded(self.exceeded)
        remaining = self.remaining_s()
        if remaining is not None and remaining <= 0:
            self.exceeded = (
                f"wall time {self.elapsed_s():.3f}s exceeds "
                f"budget {self.wall_s}s"
            )
            raise DeadlineExceeded(self.exceeded)


@dataclass
class SupervisedResult:
    """What :func:`run_supervised` hands back alongside the value."""

    value: Any
    attempts: int = 1

    @property
    def retries(self) -> int:
        """Attempts that failed with a retryable error before this one."""
        return self.attempts - 1


def run_supervised(
    fn: Callable[[], Any],
    *,
    policy: Optional[RetryPolicy] = None,
    deadline: Optional[Deadline] = None,
    telemetry: Optional[Telemetry] = None,
    label: str = "",
    sleep: Callable[[float], None] = time.sleep,
) -> SupervisedResult:
    """Run ``fn()`` under retries and a deadline.

    Up to ``policy.max_attempts`` attempts, sleeping the policy's
    backoff between them when the error is retryable
    (``resilience.retry``).  A retryable error that exhausts the
    attempt budget — or a blown deadline — raises :class:`Quarantined`
    (``resilience.quarantined``) with a structured reason; anything
    else propagates unchanged, preserving the caller's existing
    deterministic-failure handling.  Every attempt runs inside a
    ``job.attempt`` span.
    """
    policy = policy or RetryPolicy()
    tel = telemetry or current_telemetry()
    budget = max(1, policy.max_attempts)
    for attempt in range(1, budget + 1):
        if deadline is not None:
            _checked(deadline, attempt - 1, tel)
        attrs: Dict[str, Any] = {"attempt": attempt}
        if label:
            attrs["label"] = label
        try:
            with tel.span("job.attempt", **attrs):
                value = fn()
            return SupervisedResult(value=value, attempts=attempt)
        except DeadlineExceeded as error:
            raise _quarantine(tel, "deadline", str(error), attempt) from error
        except Quarantined:
            raise
        except Exception as error:  # noqa: BLE001 - classified below
            if not policy.retryable(error):
                raise
            if attempt == budget:
                raise _quarantine(
                    tel,
                    "retry_exhausted",
                    f"{type(error).__name__}: {error}",
                    attempt,
                ) from error
            tel.counter("resilience.retry")
            delay = policy.delay_s(attempt, token=label)
            if deadline is not None:
                remaining = deadline.remaining_s()
                if remaining is not None:
                    delay = max(0.0, min(delay, remaining))
            if delay:
                sleep(delay)
    raise AssertionError("unreachable: the last attempt returns or raises")


def _quarantine(
    tel: Telemetry, kind: str, error: str, attempts: int
) -> Quarantined:
    """Count one quarantine and build its structured reason."""
    tel.counter("resilience.quarantined")
    return Quarantined({"kind": kind, "error": error, "attempts": attempts})


def _checked(deadline: Deadline, attempts: int, tel: Telemetry) -> None:
    """Attempt-boundary deadline check that quarantines, not crashes."""
    try:
        deadline.check()
    except DeadlineExceeded as error:
        raise _quarantine(tel, "deadline", str(error), attempts) from error
