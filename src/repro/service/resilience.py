"""Supervised execution: retries, deadlines, fallback, quarantine.

The checkpoint/resume machinery (:mod:`repro.service.jobs`) and the
strash-invariant fingerprints already make every unit of work safely
re-runnable; this module is the supervision layer that exploits that.
Three primitives, composed by :func:`run_supervised`:

:class:`RetryPolicy`
    How many attempts a unit of work gets, which errors are worth a
    new attempt (transient ``OSError`` yes; a parse error or a term-
    limit verdict no — they are deterministic), and how long to back
    off between attempts (exponential, capped, with *seeded* jitter so
    schedules stay reproducible).

:class:`Deadline`
    A wall-clock and/or RSS budget.  The RSS watchdog is a daemon
    monitor thread sampling ``/proc`` for the whole attempt; the work
    cooperates by calling :meth:`Deadline.check` at natural yield
    points — the per-bit/per-chunk persist hooks of checkpointed
    extraction, which exist on every code path already.

:func:`run_supervised`
    The attempt loop: per engine rung × per attempt, emitting a
    ``job.attempt`` span each try, counting ``resilience.retry`` /
    ``resilience.fallback``, and raising :class:`Quarantined` (with a
    structured reason, counted as ``resilience.quarantined``) when
    every rung and attempt is exhausted — the caller records the
    poison unit and *keeps going* instead of killing the run.

Engine degradation happens at run time: when a backend blows up
mid-attempt with an engine-shaped error, the loop moves down the
:data:`~repro.engine.registry.FALLBACK_LADDER` (:func:`engine_ladder`)
and records why.  Every rung is bit-identical by the differential
contract, so degradation trades speed, never answers.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.engine import EngineError, fallback_chain, registered_engines
from repro.telemetry import Telemetry, current as current_telemetry

#: OSError subclasses that are deterministic facts about the
#: filesystem, not transient conditions — retrying cannot help.
_DETERMINISTIC_OS_ERRORS: Tuple[type, ...] = (
    FileNotFoundError,
    IsADirectoryError,
    NotADirectoryError,
    PermissionError,
)

#: Errors that justify moving down the engine ladder: the backend (or
#: its resources) failed, not the netlist.
DEFAULT_FALLBACK_ERRORS: Tuple[type, ...] = (
    EngineError,
    MemoryError,
    ImportError,
)


class DeadlineExceeded(RuntimeError):
    """A supervised attempt ran past its wall or RSS budget."""


class Quarantined(RuntimeError):
    """A unit of work exhausted every attempt and fallback rung.

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
    (checkpoint persist hooks, chunk boundaries, attempt boundaries)
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
        self._stop = threading.Event()
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
            self._stop.clear()
            self._monitor = threading.Thread(
                target=self._watch, name="repro-deadline-rss", daemon=True
            )
            self._monitor.start()

    def stop(self) -> None:
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=1.0)
            self._monitor = None

    def _watch(self) -> None:
        while not self._stop.wait(self.interval_s):
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


def engine_ladder(engine: Optional[str], fallback: bool = False) -> Tuple[str, ...]:
    """The runtime degradation ladder to hand :func:`run_supervised`.

    Without fallback the ladder is just the engine itself.  With it,
    the chain below ``engine`` filtered to registered rungs (a rung
    that fails at runtime is skipped by the loop anyway).
    """
    from repro.engine.registry import DEFAULT_ENGINE

    name = engine or DEFAULT_ENGINE
    if not fallback:
        return (name,)
    registered = registered_engines()
    return tuple(
        candidate
        for candidate in fallback_chain(name)
        if candidate == name or candidate in registered
    )


@dataclass
class SupervisedResult:
    """What :func:`run_supervised` hands back alongside the value."""

    value: Any
    engine_used: Optional[str]
    fallback_reason: Optional[str] = None
    attempts: int = 1
    retries: int = 0
    fallbacks: int = 0


def run_supervised(
    fn: Callable[[Optional[str]], Any],
    *,
    engines: Sequence[Optional[str]] = (None,),
    policy: Optional[RetryPolicy] = None,
    deadline: Optional[Deadline] = None,
    telemetry: Optional[Telemetry] = None,
    label: str = "",
    sleep: Callable[[float], None] = time.sleep,
    fallback_on: Tuple[type, ...] = DEFAULT_FALLBACK_ERRORS,
) -> SupervisedResult:
    """Run ``fn(engine)`` under retries, deadline, and the ladder.

    The loop, per engine rung: up to ``policy.max_attempts`` attempts,
    sleeping the policy's backoff between them when the error is
    retryable.  An error in ``fallback_on`` moves to the next rung
    (``resilience.fallback``); a retryable error that exhausts the
    attempt budget — or a blown deadline — raises :class:`Quarantined`
    (``resilience.quarantined``) with a structured reason; anything
    else propagates unchanged, preserving the caller's existing
    deterministic-failure handling.  Every attempt runs inside a
    ``job.attempt`` span.
    """
    policy = policy or RetryPolicy()
    tel = telemetry or current_telemetry()
    rungs = list(engines) or [None]
    attempts = 0
    retries = 0
    fallbacks = 0
    fallback_reason: Optional[str] = None

    for position, engine in enumerate(rungs):
        last_error: Optional[BaseException] = None
        for attempt in range(1, policy.max_attempts + 1):
            if deadline is not None:
                _checked(deadline, label, attempts, tel)
            attempts += 1
            attrs: Dict[str, Any] = {
                "engine": engine or "",
                "attempt": attempt,
                "total_attempt": attempts,
            }
            if label:
                attrs["label"] = label
            try:
                with tel.span("job.attempt", **attrs):
                    value = fn(engine)
                return SupervisedResult(
                    value=value,
                    engine_used=engine,
                    fallback_reason=fallback_reason,
                    attempts=attempts,
                    retries=retries,
                    fallbacks=fallbacks,
                )
            except DeadlineExceeded as error:
                tel.counter("resilience.quarantined")
                raise Quarantined(
                    {
                        "kind": "deadline",
                        "error": str(error),
                        "attempts": attempts,
                        "engine": engine,
                    }
                ) from error
            except Quarantined:
                raise
            except Exception as error:  # noqa: BLE001 - classified below
                last_error = error
                if policy.retryable(error) and attempt < policy.max_attempts:
                    retries += 1
                    tel.counter("resilience.retry")
                    delay = policy.delay_s(attempt, token=label)
                    if deadline is not None:
                        remaining = deadline.remaining_s()
                        if remaining is not None:
                            delay = max(0.0, min(delay, remaining))
                    if delay:
                        sleep(delay)
                    continue
                if (
                    isinstance(error, fallback_on)
                    and position + 1 < len(rungs)
                ):
                    fallbacks += 1
                    tel.counter("resilience.fallback")
                    fallback_reason = (
                        f"engine {engine!r} failed: "
                        f"{type(error).__name__}: {error}"
                    )
                    break  # next rung
                if policy.retryable(error):
                    tel.counter("resilience.quarantined")
                    raise Quarantined(
                        {
                            "kind": "retry_exhausted",
                            "error": f"{type(error).__name__}: {error}",
                            "attempts": attempts,
                            "engine": engine,
                        }
                    ) from error
                raise
    # Defensive: the loop only ``break``s to a rung that exists, so
    # normal control flow returns or raises above.
    tel.counter("resilience.quarantined")  # pragma: no cover
    raise Quarantined(
        {
            "kind": "fallback_exhausted",
            "error": (
                f"{type(last_error).__name__}: {last_error}"
                if last_error is not None
                else "no engine rung succeeded"
            ),
            "attempts": attempts,
            "engine": rungs[-1],
        }
    )


def _checked(
    deadline: Deadline, label: str, attempts: int, tel: Telemetry
) -> None:
    """Attempt-boundary deadline check that quarantines, not crashes."""
    try:
        deadline.check()
    except DeadlineExceeded as error:
        tel.counter("resilience.quarantined")
        raise Quarantined(
            {
                "kind": "deadline",
                "error": str(error),
                "attempts": attempts,
                "engine": None,
            }
        ) from error
