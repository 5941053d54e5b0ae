"""Tracing and metrics spine shared by every layer of the package.

The paper's evaluation is runtime/memory tables, yet timing used to be
fragmented: :class:`~repro.rewrite.backward.RewriteStats` covered only
the per-bit reference path, the benchmark harness kept its own
stopwatch, and the result cache counted hits privately.  This module is
the one place all of them report to:

* **Spans** — hierarchical timed regions (``span("compile")``,
  ``span("cone", output="z3")``) recording wall time
  (``perf_counter``), per-thread CPU time (``thread_time``) and — when
  asked — the ``tracemalloc`` peak.  Nesting is tracked per thread, so
  concurrent server jobs build separate subtrees.
* **Counters / gauges / histograms** — named process-wide metrics
  behind one lock (``cache.hit``, ``job.<id>.progress``); every span
  exit also feeds a ``span.<name>`` log-bucket latency histogram
  (:mod:`repro.telemetry.histogram`), so request, cone and
  cache-lookup latencies are distributions with p50/p90/p99, not
  averages.  The HTTP ``/metrics`` endpoint serves the same registry
  as JSON or Prometheus text (:mod:`repro.telemetry.prometheus`).
* **Sinks** — span/metrics events fan out to pluggable sinks: a JSONL
  trace file (``--trace out.jsonl``), an in-memory list for tests, and
  the ``repro trace`` renderer that re-reads the JSONL.  With no sink
  attached, a span is two clock reads and a list push — cheap enough
  to leave on permanently, which is how ``RewriteStats.runtime_s``
  is now derived.

Trace JSONL schema (one event per line, :data:`TRACE_SCHEMA`)::

    {"type": "span", "schema": 1, "name": "cone",
     "span_id": 7, "parent_id": 6, "pid": 4242, "thread": "MainThread",
     "start_unix": 1754500000.1, "wall_s": 0.0021, "cpu_s": 0.0020,
     "peak_bytes": null, "status": "ok", "attrs": {"output": "z3"}}
    {"type": "metrics", "schema": 1, "unix": ...,
     "counters": {"cache.hit": 4}, "gauges": {...}}

Span ids are unique per process; forked pool workers append to the
same O_APPEND file handle (one ``write()`` per line, same reasoning as
:func:`repro.ioutil.atomic_append_line`), and the renderer keys spans
by ``(pid, span_id)`` so multi-process traces stay well-formed.
Counters and histograms are per-process: each process flushes its own
exit ``metrics`` event (an :mod:`atexit` hook arms the moment a sink
attaches, so short-lived forked workers flush too), and trace
consumers (:func:`render_trace`, :mod:`repro.telemetry.analyze`)
merge the last event per pid into the fleet view.

``REPRO_TELEMETRY_DELAY`` (``"name=seconds,name=seconds"``) is a
fault-injection hook: named spans sleep that long before closing, so
CI can manufacture a latency regression and prove the ``repro trace
diff --check`` guard catches it.  It perturbs wall clocks only —
never results — and is parsed once at import.

The active :class:`Telemetry` resolves through a :mod:`contextvars`
variable: drivers accept ``telemetry=`` and wrap their work in
:func:`use`, so engines and the cache deep below pick the same
instance up via :func:`current` without widening every signature.
"""

from __future__ import annotations

import atexit
import contextlib
import contextvars
import itertools
import json
import os
import threading
import time
import tracemalloc
import weakref
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.telemetry.histogram import Histogram, merge_states

#: Bump on any change to the emitted event layout.
#: 2: ``metrics`` events carry a ``histograms`` map (log-bucket
#: latency distributions, one state dict per name).
TRACE_SCHEMA = 2


def _parse_delays(raw: Optional[str]) -> Dict[str, float]:
    """Parse ``REPRO_TELEMETRY_DELAY`` (``"cone=0.5,compile=0.1"``)."""
    delays: Dict[str, float] = {}
    for item in (raw or "").split(","):
        name, _, seconds = item.partition("=")
        if name.strip() and seconds.strip():
            try:
                delays[name.strip()] = float(seconds)
            except ValueError:
                continue
    return delays


#: Fault-injection hook: span name -> extra seconds of wall time.
_SPAN_DELAYS = _parse_delays(os.environ.get("REPRO_TELEMETRY_DELAY"))


def add_span_delays(delays: Dict[str, float]) -> None:
    """Merge extra span slowdowns into the fault-injection hook.

    Used by :mod:`repro.chaos` so ``REPRO_CHAOS="delay.cone=0.2"``
    rides the exact same mechanism as ``REPRO_TELEMETRY_DELAY``.
    """
    _SPAN_DELAYS.update(delays)


def _chaos_span_delays(raw: Optional[str]) -> Dict[str, float]:
    """``delay.<span>=s`` entries of a ``REPRO_CHAOS`` value."""
    body = (raw or "").partition("@")[0]
    return {
        name[len("delay."):]: seconds
        for name, seconds in _parse_delays(body).items()
        if name.startswith("delay.")
    }


add_span_delays(_chaos_span_delays(os.environ.get("REPRO_CHAOS")))


class Span:
    """One timed region; use as a context manager.

    ``elapsed()`` / ``cpu_elapsed()`` read the running clocks at any
    point inside the region (that is how ``RewriteStats.runtime_s``
    is populated before a ``return`` inside the ``with`` block);
    ``wall_s`` / ``cpu_s`` are the final figures after exit.  With
    ``memory=True`` the span reports the ``tracemalloc`` peak at exit,
    starting the tracer only if nobody else is tracing — a nested
    memory span therefore reports the *session* peak (a conservative
    upper bound) instead of clobbering the outer measurement.
    """

    __slots__ = (
        "name",
        "attrs",
        "span_id",
        "parent_id",
        "start_unix",
        "wall_s",
        "cpu_s",
        "peak_bytes",
        "status",
        "error",
        "_telemetry",
        "_memory",
        "_owns_tracemalloc",
        "_wall0",
        "_cpu0",
        "_done",
    )

    def __init__(
        self,
        telemetry: "Telemetry",
        name: str,
        attrs: Dict[str, Any],
        memory: bool = False,
    ):
        self.name = name
        self.attrs = attrs
        self.span_id = 0
        self.parent_id: Optional[int] = None
        self.start_unix = 0.0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.peak_bytes: Optional[int] = None
        self.status = "ok"
        self.error: Optional[str] = None
        self._telemetry = telemetry
        self._memory = memory
        self._owns_tracemalloc = False
        self._wall0 = 0.0
        self._cpu0 = 0.0
        self._done = False

    def __enter__(self) -> "Span":
        telemetry = self._telemetry
        self.span_id = next(telemetry._ids)
        stack = telemetry._stack()
        self.parent_id = stack[-1].span_id if stack else None
        stack.append(self)
        if self._memory and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._owns_tracemalloc = True
        self.start_unix = time.time()
        self._wall0 = time.perf_counter()
        self._cpu0 = time.thread_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if _SPAN_DELAYS:
            delay = _SPAN_DELAYS.get(self.name)
            if delay:
                time.sleep(delay)
        self.wall_s = time.perf_counter() - self._wall0
        self.cpu_s = time.thread_time() - self._cpu0
        if self._memory and tracemalloc.is_tracing():
            self.peak_bytes = tracemalloc.get_traced_memory()[1]
        if self._owns_tracemalloc:
            tracemalloc.stop()
            self._owns_tracemalloc = False
        if exc_type is not None:
            self.status = "error"
            self.error = f"{exc_type.__name__}: {exc}"
        stack = self._telemetry._stack()
        if self in stack:
            # Pop self plus any children orphaned above it — a child
            # that never exited (exception unwound past an explicit
            # begin/end pairing) must not adopt later spans.
            while stack.pop() is not self:
                pass
        self._done = True
        # Every span exit is one histogram sample: latency becomes a
        # distribution (p50/p90/p99) without any caller opting in.
        self._telemetry.observe(f"span.{self.name}", self.wall_s)
        self._telemetry._emit_span(self)
        return False

    def elapsed(self) -> float:
        """Wall seconds since the span started (readable mid-region)."""
        if self._done:
            return self.wall_s
        return time.perf_counter() - self._wall0

    def cpu_elapsed(self) -> float:
        """Thread-CPU seconds since the span started."""
        if self._done:
            return self.cpu_s
        return time.thread_time() - self._cpu0

    def annotate(self, **attrs: Any) -> "Span":
        """Attach attributes discovered mid-region (e.g. row counts)."""
        self.attrs.update(attrs)
        return self


class MemorySink:
    """Collects events in a list — the test/staging sink."""

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []
        self._lock = threading.Lock()

    def handle(self, event: Dict[str, Any]) -> None:
        with self._lock:
            self.events.append(event)

    def close(self) -> None:  # part of the sink contract
        pass


class JsonlSink:
    """Appends one JSON line per event to a trace file.

    The file opens in append mode and every event is one ``write()``
    plus a flush, so forked pool workers inheriting the handle
    interleave whole lines (O_APPEND), never fragments — the same
    contract :func:`repro.ioutil.atomic_append_line` relies on.
    """

    def __init__(self, path: Union[str, os.PathLike]):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "a", encoding="utf-8")
        self._lock = threading.Lock()

    def handle(self, event: Dict[str, Any]) -> None:
        line = json.dumps(event, sort_keys=True, default=str) + "\n"
        with self._lock:
            self._handle.write(line)
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            try:
                self._handle.close()
            except ValueError:  # pragma: no cover - already closed
                pass


class Telemetry:
    """Thread-safe span/counter/gauge registry with pluggable sinks."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._sinks: List[Any] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- spans ----------------------------------------------------------

    def span(self, name: str, memory: bool = False, **attrs: Any) -> Span:
        """A new span; enter it with ``with``.  ``attrs`` are free-form
        JSON-serializable annotations (``engine="bitpack"``)."""
        return Span(self, name, attrs, memory=memory)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def active_span(self) -> Optional[Span]:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def _emit_span(self, span: Span) -> None:
        if not self._sinks:
            return
        event = {
            "type": "span",
            "schema": TRACE_SCHEMA,
            "name": span.name,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "pid": os.getpid(),
            "thread": threading.current_thread().name,
            "start_unix": span.start_unix,
            "wall_s": span.wall_s,
            "cpu_s": span.cpu_s,
            "peak_bytes": span.peak_bytes,
            "status": span.status,
            "attrs": span.attrs,
        }
        if span.error is not None:
            event["error"] = span.error
        self.emit(event)

    # -- counters / gauges ----------------------------------------------

    def counter(self, name: str, delta: int = 1) -> int:
        """Add ``delta`` to a named counter; returns the new value."""
        with self._lock:
            value = self._counters.get(name, 0) + delta
            self._counters[name] = value
        return value

    def gauge(self, name: str, value: float) -> None:
        """Set a named gauge to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one sample in the named log-bucket histogram."""
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram()
            histogram.observe(value)

    def clear_gauge(self, name: str) -> None:
        """Drop a gauge (e.g. when its job is evicted)."""
        with self._lock:
            self._gauges.pop(name, None)

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counters)

    def gauges(self) -> Dict[str, float]:
        with self._lock:
            return dict(self._gauges)

    def histogram(self, name: str) -> Optional[Histogram]:
        """The live histogram object for ``name`` (None if never fed)."""
        with self._lock:
            return self._histograms.get(name)

    def histograms(self) -> Dict[str, Dict[str, Any]]:
        """Serialized state of every histogram (JSON-ready)."""
        with self._lock:
            return {
                name: histogram.state()
                for name, histogram in self._histograms.items()
            }

    def metrics(self) -> Dict[str, Any]:
        """Snapshot of the registry (the ``/metrics`` payload core)."""
        with self._lock:
            return {
                "schema": TRACE_SCHEMA,
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: histogram.state()
                    for name, histogram in self._histograms.items()
                },
            }

    def reset(self) -> None:
        """Zero counters/gauges/histograms (tests; sinks stay)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # -- sinks ----------------------------------------------------------

    @property
    def sinks(self) -> List[Any]:
        return list(self._sinks)

    def add_sink(self, sink: Any) -> Any:
        with self._lock:
            self._sinks.append(sink)
        _arm_exit_flush(self)
        return sink

    def remove_sink(self, sink: Any) -> None:
        with self._lock:
            if sink in self._sinks:
                self._sinks.remove(sink)

    def emit(self, event: Dict[str, Any]) -> None:
        """Hand one event to every attached sink."""
        for sink in self._sinks:
            sink.handle(event)

    def flush_metrics(self) -> None:
        """Emit the registry snapshot as one ``metrics`` event."""
        if not self._sinks:
            return
        event = self.metrics()
        event["type"] = "metrics"
        event["unix"] = time.time()
        event["pid"] = os.getpid()
        self.emit(event)


# -- interpreter-exit flushing ------------------------------------------

#: Registries that have (or had) sinks attached; flushed at exit so a
#: short-lived forked worker's counters/histograms reach the shared
#: trace file instead of dying with the process.
_FLUSH_ON_EXIT: "weakref.WeakSet[Telemetry]" = weakref.WeakSet()
_EXIT_ARMED = False


def _flush_at_exit() -> None:
    for registry in list(_FLUSH_ON_EXIT):
        try:
            registry.flush_metrics()
            for sink in registry.sinks:
                sink.close()
        except Exception:  # pragma: no cover - never break shutdown
            pass


def _arm_exit_flush(registry: "Telemetry") -> None:
    """Register ``registry`` for the one process-wide exit flush.

    The :mod:`atexit` entry is armed once per process; fork children
    inherit it (and the registry set), so pool workers that exit
    without an explicit flush still emit their final metrics event —
    the torn-tail case :func:`load_trace` used to paper over.
    """
    global _EXIT_ARMED
    _FLUSH_ON_EXIT.add(registry)
    if not _EXIT_ARMED:
        _EXIT_ARMED = True
        atexit.register(_flush_at_exit)


# -- active-instance plumbing -------------------------------------------

_GLOBAL = Telemetry()

_ACTIVE: "contextvars.ContextVar[Optional[Telemetry]]" = (
    contextvars.ContextVar("repro_telemetry", default=None)
)


def get_telemetry() -> Telemetry:
    """The process-wide default registry (what ``--trace`` attaches to)."""
    return _GLOBAL


def current() -> Telemetry:
    """The active registry: the innermost :func:`use`, else the global."""
    return _ACTIVE.get() or _GLOBAL


@contextlib.contextmanager
def use(telemetry: Telemetry) -> Iterator[Telemetry]:
    """Make ``telemetry`` the active registry for the enclosed region.

    Drivers accepting ``telemetry=`` wrap their work in this, so the
    engines and caches they call emit into the same instance without
    every signature in between naming it.
    """
    token = _ACTIVE.set(telemetry)
    try:
        yield telemetry
    finally:
        _ACTIVE.reset(token)


def resolve(telemetry: Optional[Telemetry] = None) -> Telemetry:
    """``telemetry`` if given, else :func:`current`."""
    return telemetry if telemetry is not None else current()


# -- trace file loading / rendering -------------------------------------


def load_trace(path: Union[str, os.PathLike]) -> List[Dict[str, Any]]:
    """Parse a JSONL trace; a torn trailing line (a writer killed
    mid-append) is skipped."""
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    return events


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds * 1e6:.0f}us"


def _format_bytes(count: int) -> str:
    mb = count / (1024 * 1024)
    if mb >= 1024:
        return f"{mb / 1024:.1f}GB"
    if mb >= 1:
        return f"{mb:.1f}MB"
    return f"{count / 1024:.1f}KB"


def _span_line(event: Dict[str, Any], depth: int) -> str:
    attrs = event.get("attrs") or {}
    parts = [f"{k}={v}" for k, v in attrs.items()]
    timing = (
        f"wall {_format_seconds(event.get('wall_s', 0.0))}"
        f" cpu {_format_seconds(event.get('cpu_s', 0.0))}"
    )
    peak = event.get("peak_bytes")
    if peak is not None:
        timing += f" peak {_format_bytes(peak)}"
    head = "  " * depth + event.get("name", "?")
    if parts:
        head += " " + " ".join(parts)
    line = f"{head}  [{timing}]"
    if event.get("status") == "error":
        line += f"  ERROR: {event.get('error', '?')}"
    return line


def render_trace(events: List[Dict[str, Any]]) -> str:
    """Render a loaded trace as an indented span tree plus metrics.

    Spans are keyed ``(pid, span_id)``; a span whose parent is absent
    (a forked worker whose parent span lives in another process, or a
    trace truncated by a kill) renders as a root.
    """
    spans = [e for e in events if e.get("type") == "span"]
    metrics = [e for e in events if e.get("type") == "metrics"]
    by_key: Dict[Tuple[Any, Any], Dict[str, Any]] = {
        (e.get("pid"), e.get("span_id")): e for e in spans
    }
    children: Dict[Optional[Tuple[Any, Any]], List[Dict[str, Any]]] = {}
    for event in spans:
        parent = event.get("parent_id")
        key = (event.get("pid"), parent)
        resolved = key if parent is not None and key in by_key else None
        children.setdefault(resolved, []).append(event)
    for siblings in children.values():
        # (start_unix, pid, span_id): pid breaks cross-process ties at
        # the root level so multi-process traces render identically no
        # matter which worker's lines landed in the file first.
        siblings.sort(
            key=lambda e: (
                e.get("start_unix", 0.0),
                e.get("pid") or 0,
                e.get("span_id", 0),
            )
        )

    errors = sum(1 for e in spans if e.get("status") == "error")
    pids = {e.get("pid") for e in spans}
    threads = {(e.get("pid"), e.get("thread")) for e in spans}
    lines = [
        f"trace: {len(spans)} spans, {len(pids)} process(es), "
        f"{len(threads)} thread(s), {errors} error(s)"
    ]

    def walk(event: Dict[str, Any], depth: int) -> None:
        lines.append(_span_line(event, depth))
        key = (event.get("pid"), event.get("span_id"))
        for child in children.get(key, []):
            walk(child, depth + 1)

    for root in children.get(None, []):
        walk(root, 0)

    if metrics:
        counters, gauges, histograms = merge_metrics_events(metrics)
        if counters:
            lines.append("counters:")
            for name in sorted(counters):
                lines.append(f"  {name} = {counters[name]}")
        if gauges:
            lines.append("gauges:")
            for name in sorted(gauges):
                lines.append(f"  {name} = {gauges[name]}")
        if histograms:
            lines.append("histograms:")
            for name in sorted(histograms):
                histogram = histograms[name]
                quantiles = " ".join(
                    f"{label}={_format_seconds(histogram.quantile(q))}"
                    for label, q in (
                        ("p50", 0.50), ("p90", 0.90), ("p99", 0.99),
                    )
                    if histogram.quantile(q) is not None
                )
                lines.append(
                    f"  {name}: n={histogram.count} "
                    f"sum={_format_seconds(histogram.total)} {quantiles}"
                )
    return "\n".join(lines)


def merge_metrics_events(
    events: List[Dict[str, Any]],
) -> Tuple[Dict[str, int], Dict[str, float], Dict[str, Histogram]]:
    """Fold ``metrics`` events into one fleet view.

    Counters and histograms are per-process cumulative snapshots, so
    the *last* event per pid is the process total and pids sum/merge;
    gauges are last-write-wins in event order.
    """
    last_by_pid: Dict[Any, Dict[str, Any]] = {}
    gauges: Dict[str, float] = {}
    for event in events:
        if event.get("type") != "metrics":
            continue
        last_by_pid[event.get("pid")] = event
        gauges.update(event.get("gauges") or {})
    counters: Dict[str, int] = {}
    histograms: Dict[str, Histogram] = {}
    for event in last_by_pid.values():
        for name, value in (event.get("counters") or {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, state in (event.get("histograms") or {}).items():
            merged = histograms.setdefault(name, Histogram())
            merged.merge(Histogram.from_state(state))
    return counters, gauges, histograms
