"""Deterministic fault injection for the resilience tier.

``REPRO_CHAOS`` turns on seeded chaos at named *sites*::

    REPRO_CHAOS="crash_worker=0.1,io_error=0.05,delay.cone=0.2@seed=7"

Each ``site=value`` entry is a firing probability in ``[0, 1]`` except
``delay.<span>=SECONDS`` entries, which slow the named telemetry span
(the same hook point as ``REPRO_TELEMETRY_DELAY``).  The optional
``@seed=N`` suffix seeds the schedule.

Determinism is the whole design: whether a site fires is a pure
function of ``(seed, scope, site, key)`` — no global RNG, no wall
clock.  ``key`` defaults to a per-site call counter, so the N-th visit
to a site always makes the same decision for a given seed, and two
runs with the same seed inject the *identical* fault schedule.  That
is what lets CI assert "a campaign under crashes and IO errors
finishes bit-identical to a fault-free run" instead of merely "usually
survives".

Sites used by the stack:

``crash_worker``
    Kills the current process with ``os._exit`` — but only inside a
    supervised campaign worker (a scope entered via
    :meth:`Chaos.enter_scope`), never in the coordinating process.
    The scope key includes the supervisor's resubmission attempt, so a
    resubmitted netlist draws a *fresh* schedule instead of replaying
    the crash forever.
``io_error``
    Raises :class:`ChaosIOError` (an ``OSError``) before cache IO —
    the transient-failure class the retry policy retries.
``corrupt_cache``
    Deterministically mangles a cache payload on write, exercising the
    quarantine path on the next read.

Decisions fired are mirrored to ``chaos.injected.<site>`` telemetry
counters (per-process) and recorded in a bounded in-memory event log
for the determinism tests.
"""

from __future__ import annotations

import hashlib
import os
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

CHAOS_ENV = "REPRO_CHAOS"

#: Exit code used by injected worker crashes; distinguishable from a
#: real SIGKILL (negative exitcode) and from clean exits in tests.
CRASH_EXIT_CODE = 73

#: Cap on the in-memory event log (enough for any test, bounded for
#: long campaigns).
_MAX_EVENTS = 10_000


class ChaosIOError(OSError):
    """An injected transient IO failure (retryable by classification)."""


@dataclass(frozen=True)
class ChaosSpec:
    """Parsed ``REPRO_CHAOS`` value: site rates, span delays, seed."""

    rates: Mapping[str, float] = field(default_factory=dict)
    delays: Mapping[str, float] = field(default_factory=dict)
    seed: int = 0
    raw: str = ""

    @classmethod
    def parse(cls, raw: Optional[str]) -> Optional["ChaosSpec"]:
        """Parse the env syntax; ``None``/blank/unparseable → ``None``.

        >>> spec = ChaosSpec.parse("crash_worker=0.5,delay.cone=0.2@seed=7")
        >>> spec.rates, dict(spec.delays), spec.seed
        ({'crash_worker': 0.5}, {'cone': 0.2}, 7)
        """
        if raw is None or not raw.strip():
            return None
        body, _, suffix = raw.partition("@")
        seed = 0
        if suffix.strip():
            name, _, value = suffix.partition("=")
            if name.strip() == "seed":
                try:
                    seed = int(value)
                except ValueError:
                    pass
        rates: Dict[str, float] = {}
        delays: Dict[str, float] = {}
        for item in body.split(","):
            site, _, value = item.partition("=")
            site = site.strip()
            if not site or not value.strip():
                continue
            try:
                number = float(value)
            except ValueError:
                continue
            if site.startswith("delay."):
                delays[site[len("delay."):]] = number
            else:
                rates[site] = max(0.0, min(1.0, number))
        if not rates and not delays:
            return None
        return cls(rates=rates, delays=delays, seed=seed, raw=raw)


class Chaos:
    """Seeded, deterministic fault scheduler for one process.

    Thread-safe; the per-site counters live behind one lock.  A
    disabled instance (``spec=None``) makes every call a cheap no-op,
    so call sites need no guards.
    """

    def __init__(self, spec: Optional[ChaosSpec] = None):
        self.spec = spec
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._scope: Optional[str] = None
        self.events: List[Tuple[str, str, bool]] = []

    @property
    def enabled(self) -> bool:
        return self.spec is not None and bool(self.spec.rates)

    def enter_scope(self, scope: str) -> None:
        """Enter a supervised-worker namespace.

        Resets the per-site counters so every worker draws a schedule
        determined only by ``(seed, scope)`` — a resubmitted netlist
        (scope includes the attempt number) gets a fresh draw instead
        of inheriting and replaying the parent's counters.  Also arms
        the ``crash_worker`` site: injected crashes only ever kill
        scoped (supervised, resubmittable) processes.
        """
        with self._lock:
            self._scope = scope
            self._counters = {}
            self.events = []

    @property
    def scope(self) -> Optional[str]:
        return self._scope

    def fires(self, site: str, key: Optional[str] = None) -> bool:
        """Deterministic decision for one visit to ``site``.

        ``key`` pins the decision to an explicit identity (netlist,
        cache path, ...); without one, a per-site visit counter is
        used, so the N-th unkeyed visit is reproducible too.
        """
        spec = self.spec
        if spec is None:
            return False
        rate = spec.rates.get(site)
        if not rate:
            return False
        with self._lock:
            if key is None:
                index = self._counters.get(site, 0)
                self._counters[site] = index + 1
                key = f"#{index}"
            material = f"{spec.seed}:{self._scope or ''}:{site}:{key}"
            digest = hashlib.sha256(material.encode("utf-8")).digest()
            draw = int.from_bytes(digest[:8], "big") / 2.0**64
            fired = draw < rate
            if len(self.events) < _MAX_EVENTS:
                self.events.append((site, key, fired))
        if fired:
            self._count(site)
        return fired

    def crash(self, site: str = "crash_worker", key: Optional[str] = None) -> None:
        """Kill the process via ``os._exit`` if the site fires.

        Only armed inside an entered scope — the coordinating process
        (and plain library users with ``REPRO_CHAOS`` set) must never
        be collateral damage; crashes simulate *worker* death, which
        the campaign supervisor detects and resubmits.
        """
        if self._scope is None:
            return
        if self.fires(site, key):
            os._exit(CRASH_EXIT_CODE)

    def io_error(
        self,
        site: str = "io_error",
        key: Optional[str] = None,
        where: str = "",
    ) -> None:
        """Raise :class:`ChaosIOError` if the site fires."""
        if self.fires(site, key):
            raise ChaosIOError(
                f"chaos: injected IO error at {where or site}"
            )

    def corrupt(
        self,
        payload: bytes,
        site: str = "corrupt_cache",
        key: Optional[str] = None,
    ) -> bytes:
        """Deterministically mangle ``payload`` if the site fires.

        Truncation plus a NUL marker: guaranteed to break JSON parsing
        while staying a pure function of the input, so two runs with
        the same seed corrupt identically.
        """
        if not self.fires(site, key):
            return payload
        return payload[: max(1, len(payload) // 2)] + b"\x00<chaos>"

    def _count(self, site: str) -> None:
        try:
            from repro.telemetry import current

            current().counter(f"chaos.injected.{site}")
        except Exception:  # pragma: no cover - telemetry must not break chaos
            pass


#: Process-wide singleton (lazily parsed from the environment).
_ACTIVE: Optional[Chaos] = None
_ACTIVE_LOCK = threading.Lock()


def get_chaos() -> Chaos:
    """The process-wide :class:`Chaos`, parsed from ``REPRO_CHAOS``.

    Forked campaign workers inherit the parent's configured instance
    (and then :meth:`Chaos.enter_scope` their own namespace); spawned
    workers re-parse the environment.
    """
    global _ACTIVE
    if _ACTIVE is None:
        with _ACTIVE_LOCK:
            if _ACTIVE is None:
                _ACTIVE = Chaos(ChaosSpec.parse(os.environ.get(CHAOS_ENV)))
    return _ACTIVE


def configure(raw: Optional[str]) -> Chaos:
    """Install a chaos spec programmatically (tests, harnesses).

    ``None`` disables injection.  ``delay.<span>`` entries are pushed
    into the telemetry span-delay hook immediately, mirroring what the
    env var does at import time.
    """
    global _ACTIVE
    spec = ChaosSpec.parse(raw)
    with _ACTIVE_LOCK:
        _ACTIVE = Chaos(spec)
    if spec is not None and spec.delays:
        from repro import telemetry

        telemetry.add_span_delays(spec.delays)
    return _ACTIVE
