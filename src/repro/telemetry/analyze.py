"""Trace analytics: profiles, critical paths, and trace diffing.

PR 6 made every layer emit spans; this module turns a JSONL trace
into *answers*:

* :func:`profile_trace` — per-span-name aggregation: count, total and
  **self** wall time (total minus the time attributed to child
  spans), CPU time, tracemalloc peaks, and exact wall-time
  percentiles (the trace retains every sample, so no bucketing error
  here), plus the merged fleet counters/gauges/histograms.
* :func:`critical_path` — the chain of spans you would have to speed
  up to make the run faster: from the longest root, repeatedly
  descend into the child that consumed the most wall time.
* :func:`diff_traces` — compare a current trace against a baseline
  per span name, **host-normalized** by the ``calibrate`` span each
  traced run emits (a fixed CPU workload timed at trace start), so a
  baseline recorded on a fast CI machine is comparable to a rerun on
  a slow one.  A policy dict (typically loaded from a JSON file)
  sets the regression threshold, per-span overrides, structural
  requirements (spans/counters that must exist), and error handling
  — making one ``repro trace diff --check`` invocation the single CI
  perf/structure guard.

The CLI surfaces these as ``repro trace FILE --profile [--json]``
and ``repro trace diff BASE CURRENT [--check --policy P.json]``;
:mod:`benchmarks.ledger` writes the same profile shape into
``BENCH_history.jsonl`` rows.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.telemetry import (
    Telemetry,
    _format_seconds,
    merge_metrics_events,
    resolve,
)

#: Name of the hardware-calibration span every traced run emits.
CALIBRATION_SPAN = "calibrate"

#: Inner loop size of one calibration pass (~5-15ms of pure-python
#: integer work on current hardware; deterministic, allocation-free).
CALIBRATION_ITERATIONS = 120_000

#: Default policy for :func:`diff_traces`; a policy file overrides
#: any subset of these keys.
DEFAULT_POLICY: Dict[str, Any] = {
    # A span name regresses when its normalized total-wall ratio
    # (current/base, divided by the calibration factor) exceeds this.
    "max_ratio": 2.0,
    # Span names whose wall total is below this in the *baseline* are
    # never flagged — micro-spans are noise-dominated.
    "min_wall_s": 0.01,
    # Normalize by the calibrate spans when both traces carry one.
    "calibrate": True,
    # Per-span-name overrides: {"cone": {"max_ratio": 1.5}}.
    "per_span": {},
    # Structural guard: spans that must appear / counters that must be
    # positive in the *current* trace (replaces check_trace.py).
    "require_spans": [],
    "require_counters": [],
    # Spans with status="error" fail the check unless allowed.
    "allow_errors": False,
    # Span names excluded from ratio checks entirely.
    "ignore": [CALIBRATION_SPAN],
}


# ----------------------------------------------------------------------
# Hardware calibration
# ----------------------------------------------------------------------

def _calibration_pass() -> int:
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        total += i * i
    return total


def run_calibration(
    telemetry: Optional[Telemetry] = None, passes: int = 3
) -> float:
    """Time the fixed calibration workload; emit a ``calibrate`` span.

    Returns the best-of-``passes`` seconds for one pass — the host
    speed unit :func:`diff_traces` normalizes by.  The span's
    ``pass_s`` attribute carries the same figure into the trace.
    """
    registry = resolve(telemetry)
    with registry.span(CALIBRATION_SPAN, passes=passes) as span:
        best = float("inf")
        for _ in range(max(1, passes)):
            started = time.perf_counter()
            _calibration_pass()
            best = min(best, time.perf_counter() - started)
        span.annotate(pass_s=best, iterations=CALIBRATION_ITERATIONS)
    return best


def _calibration_of(events: Sequence[Dict[str, Any]]) -> Optional[float]:
    """The per-pass calibration seconds recorded in a trace (best of
    all ``calibrate`` spans, e.g. one per process)."""
    best: Optional[float] = None
    for event in events:
        if (
            event.get("type") == "span"
            and event.get("name") == CALIBRATION_SPAN
        ):
            attrs = event.get("attrs") or {}
            pass_s = attrs.get("pass_s")
            if pass_s is None:
                passes = max(1, int(attrs.get("passes", 1) or 1))
                pass_s = event.get("wall_s", 0.0) / passes
            if pass_s and (best is None or pass_s < best):
                best = float(pass_s)
    return best


# ----------------------------------------------------------------------
# Span tree + profile
# ----------------------------------------------------------------------

def build_span_tree(
    events: Sequence[Dict[str, Any]],
) -> Tuple[
    Dict[Tuple[Any, Any], Dict[str, Any]],
    Dict[Optional[Tuple[Any, Any]], List[Dict[str, Any]]],
]:
    """Key spans by ``(pid, span_id)`` and group children per parent.

    Mirrors the renderer's tree construction (absent parents root the
    span) with the same deterministic ``(start, pid, id)`` ordering.
    """
    spans = [e for e in events if e.get("type") == "span"]
    by_key = {(e.get("pid"), e.get("span_id")): e for e in spans}
    children: Dict[Optional[Tuple[Any, Any]], List[Dict[str, Any]]] = {}
    for event in spans:
        parent = event.get("parent_id")
        key = (event.get("pid"), parent)
        resolved_key = key if parent is not None and key in by_key else None
        children.setdefault(resolved_key, []).append(event)
    for siblings in children.values():
        siblings.sort(
            key=lambda e: (
                e.get("start_unix", 0.0),
                e.get("pid") or 0,
                e.get("span_id", 0),
            )
        )
    return by_key, children


def _percentile(sorted_values: List[float], q: float) -> float:
    """Exact linear-interpolation percentile of a sorted sample."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = q * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    fraction = position - low
    return sorted_values[low] * (1 - fraction) + sorted_values[high] * fraction


def profile_trace(events: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate a trace into a per-span-name profile + fleet metrics."""
    by_key, children = build_span_tree(events)
    spans = list(by_key.values())

    walls: Dict[str, List[float]] = {}
    aggregate: Dict[str, Dict[str, Any]] = {}
    for event in spans:
        name = event.get("name", "?")
        entry = aggregate.setdefault(
            name,
            {
                "count": 0,
                "errors": 0,
                "wall_total_s": 0.0,
                "wall_self_s": 0.0,
                "cpu_total_s": 0.0,
                "peak_bytes_max": None,
            },
        )
        wall = float(event.get("wall_s", 0.0))
        entry["count"] += 1
        entry["wall_total_s"] += wall
        entry["cpu_total_s"] += float(event.get("cpu_s", 0.0))
        if event.get("status") == "error":
            entry["errors"] += 1
        peak = event.get("peak_bytes")
        if peak is not None:
            previous = entry["peak_bytes_max"]
            entry["peak_bytes_max"] = (
                peak if previous is None else max(previous, peak)
            )
        walls.setdefault(name, []).append(wall)
        # Self time: this span's wall minus its direct children's.
        key = (event.get("pid"), event.get("span_id"))
        child_wall = sum(
            float(child.get("wall_s", 0.0))
            for child in children.get(key, ())
        )
        entry["wall_self_s"] += max(0.0, wall - child_wall)

    for name, entry in aggregate.items():
        series = sorted(walls[name])
        entry["wall_p50_s"] = _percentile(series, 0.50)
        entry["wall_p90_s"] = _percentile(series, 0.90)
        entry["wall_p99_s"] = _percentile(series, 0.99)
        entry["wall_max_s"] = series[-1]

    counters, gauges, histograms = merge_metrics_events(
        [e for e in events if e.get("type") == "metrics"]
    )
    return {
        "spans": aggregate,
        "spans_total": len(spans),
        "processes": len({e.get("pid") for e in spans}),
        "errors": sum(entry["errors"] for entry in aggregate.values()),
        "counters": counters,
        "gauges": gauges,
        "histograms": {
            name: histogram.state() for name, histogram in histograms.items()
        },
        "calibration_s": _calibration_of(events),
    }


def critical_path(events: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The heaviest root-to-leaf chain of the span tree.

    From the longest root, repeatedly descend into the child with the
    largest wall time; each step reports its wall and self time — the
    list answers "what do I optimize first".
    """
    by_key, children = build_span_tree(events)
    roots = children.get(None, [])
    if not roots:
        return []
    current = max(roots, key=lambda e: float(e.get("wall_s", 0.0)))
    path: List[Dict[str, Any]] = []
    depth = 0
    while current is not None:
        key = (current.get("pid"), current.get("span_id"))
        kids = children.get(key, [])
        child_wall = sum(float(c.get("wall_s", 0.0)) for c in kids)
        wall = float(current.get("wall_s", 0.0))
        path.append(
            {
                "name": current.get("name", "?"),
                "depth": depth,
                "pid": current.get("pid"),
                "span_id": current.get("span_id"),
                "wall_s": wall,
                "self_s": max(0.0, wall - child_wall),
                "attrs": current.get("attrs") or {},
            }
        )
        current = (
            max(kids, key=lambda e: float(e.get("wall_s", 0.0)))
            if kids
            else None
        )
        depth += 1
    return path


# ----------------------------------------------------------------------
# Structural check + diff
# ----------------------------------------------------------------------

def _merge_policy(policy: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    merged = dict(DEFAULT_POLICY)
    merged["per_span"] = dict(DEFAULT_POLICY["per_span"])
    if policy:
        for key, value in policy.items():
            if key == "per_span":
                merged["per_span"].update(value or {})
            else:
                merged[key] = value
    return merged


def check_trace(
    events: Sequence[Dict[str, Any]],
    policy: Optional[Dict[str, Any]] = None,
) -> List[str]:
    """Structural guard on one trace; returns failure strings.

    Checks the policy's ``require_spans`` (each must appear at least
    once), ``require_counters`` (positive in the merged fleet
    counters), and — unless ``allow_errors`` — that no span ended
    with ``status="error"``.
    """
    rules = _merge_policy(policy)
    spans = [e for e in events if e.get("type") == "span"]
    names: Dict[str, int] = {}
    for event in spans:
        names[event.get("name", "?")] = names.get(event.get("name", "?"), 0) + 1
    failures = []
    if not spans:
        failures.append("trace contains no span events")
    for name in rules["require_spans"]:
        if not names.get(name):
            failures.append(f"required span {name!r} never appeared")
    if rules["require_counters"]:
        counters, _, _ = merge_metrics_events(
            [e for e in events if e.get("type") == "metrics"]
        )
        for name in rules["require_counters"]:
            if counters.get(name, 0) <= 0:
                failures.append(
                    f"counter {name!r} is {counters.get(name, 0)} in the "
                    f"merged metrics"
                )
    if not rules["allow_errors"]:
        errors = [e for e in spans if e.get("status") == "error"]
        if errors:
            first = errors[0]
            failures.append(
                f"{len(errors)} span(s) ended with status=error, e.g. "
                f"{first.get('name')!r}: {first.get('error')!r}"
            )
    return failures


def diff_traces(
    base_events: Sequence[Dict[str, Any]],
    current_events: Sequence[Dict[str, Any]],
    policy: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Compare two traces per span name, host-normalized.

    Returns a report dict; ``report["ok"]`` is the single verdict the
    CI guard exits on.  Wall-total ratios are divided by the
    calibration factor (current host speed / baseline host speed), so
    only *relative* slowdowns of the workload itself flag.
    """
    rules = _merge_policy(policy)
    base_profile = profile_trace(base_events)
    current_profile = profile_trace(current_events)

    base_cal = base_profile["calibration_s"]
    current_cal = current_profile["calibration_s"]
    factor = 1.0
    if rules["calibrate"] and base_cal and current_cal:
        factor = current_cal / base_cal

    ignored = set(rules["ignore"])
    spans: Dict[str, Dict[str, Any]] = {}
    regressions: List[str] = []
    all_names = set(base_profile["spans"]) | set(current_profile["spans"])
    for name in sorted(all_names):
        base_entry = base_profile["spans"].get(name)
        current_entry = current_profile["spans"].get(name)
        per_span = rules["per_span"].get(name, {})
        max_ratio = float(per_span.get("max_ratio", rules["max_ratio"]))
        min_wall = float(per_span.get("min_wall_s", rules["min_wall_s"]))
        row: Dict[str, Any] = {
            "base_wall_s": base_entry["wall_total_s"] if base_entry else None,
            "current_wall_s": (
                current_entry["wall_total_s"] if current_entry else None
            ),
            "base_count": base_entry["count"] if base_entry else 0,
            "current_count": current_entry["count"] if current_entry else 0,
            "max_ratio": max_ratio,
        }
        if base_entry is None:
            row["status"] = "new"
        elif current_entry is None:
            row["status"] = "gone"
        else:
            raw = current_entry["wall_total_s"] / max(
                base_entry["wall_total_s"], 1e-9
            )
            normalized = raw / max(factor, 1e-9)
            row["raw_ratio"] = round(raw, 4)
            row["ratio"] = round(normalized, 4)
            checkable = (
                name not in ignored
                and base_entry["wall_total_s"] >= min_wall
            )
            if checkable and normalized > max_ratio:
                row["status"] = "regression"
                regressions.append(name)
            else:
                row["status"] = "ok"
        spans[name] = row

    failures = check_trace(current_events, rules)
    return {
        "ok": not regressions and not failures,
        "calibration": {
            "base_s": base_cal,
            "current_s": current_cal,
            "factor": round(factor, 4),
        },
        "spans": spans,
        "regressions": regressions,
        "failures": failures,
        "policy": {
            key: rules[key]
            for key in ("max_ratio", "min_wall_s", "calibrate")
        },
    }


# ----------------------------------------------------------------------
# Text rendering (the CLI's --profile / diff output)
# ----------------------------------------------------------------------

def format_profile(
    profile: Dict[str, Any],
    path: Optional[List[Dict[str, Any]]] = None,
) -> str:
    """Human-readable profile table + critical path."""
    lines = [
        f"profile: {profile['spans_total']} spans, "
        f"{profile['processes']} process(es), "
        f"{profile['errors']} error(s)"
        + (
            f", calibration {_format_seconds(profile['calibration_s'])}/pass"
            if profile.get("calibration_s")
            else ""
        )
    ]
    header = (
        f"{'span':<20} {'count':>6} {'total':>9} {'self':>9} "
        f"{'p50':>8} {'p99':>8} {'cpu':>9} {'peak':>8}"
    )
    lines.append(header)
    entries = sorted(
        profile["spans"].items(),
        key=lambda item: item[1]["wall_total_s"],
        reverse=True,
    )
    for name, entry in entries:
        peak = entry.get("peak_bytes_max")
        peak_text = f"{peak / (1024 * 1024):.1f}MB" if peak else "-"
        lines.append(
            f"{name:<20} {entry['count']:>6} "
            f"{_format_seconds(entry['wall_total_s']):>9} "
            f"{_format_seconds(entry['wall_self_s']):>9} "
            f"{_format_seconds(entry['wall_p50_s']):>8} "
            f"{_format_seconds(entry['wall_p99_s']):>8} "
            f"{_format_seconds(entry['cpu_total_s']):>9} "
            f"{peak_text:>8}"
        )
    if path:
        lines.append("critical path:")
        total = path[0]["wall_s"] or 1e-9
        for step in path:
            share = 100.0 * step["wall_s"] / total
            lines.append(
                "  " * step["depth"]
                + f"{step['name']}  "
                f"[wall {_format_seconds(step['wall_s'])} "
                f"self {_format_seconds(step['self_s'])} "
                f"{share:.0f}%]"
            )
    return "\n".join(lines)


def format_diff(report: Dict[str, Any]) -> str:
    """Human-readable diff verdict table."""
    calibration = report["calibration"]
    lines = []
    if calibration["base_s"] and calibration["current_s"]:
        lines.append(
            f"calibration: base "
            f"{_format_seconds(calibration['base_s'])}/pass, current "
            f"{_format_seconds(calibration['current_s'])}/pass "
            f"(factor {calibration['factor']}x)"
        )
    else:
        lines.append("calibration: absent; ratios are raw wall time")
    lines.append(
        f"{'span':<20} {'base':>9} {'current':>9} {'ratio':>7} "
        f"{'allowed':>8}  status"
    )

    def sort_key(item):
        row = item[1]
        return -(row.get("ratio") or 0.0)

    for name, row in sorted(report["spans"].items(), key=sort_key):
        base = row["base_wall_s"]
        current = row["current_wall_s"]
        lines.append(
            f"{name:<20} "
            f"{_format_seconds(base) if base is not None else '-':>9} "
            f"{_format_seconds(current) if current is not None else '-':>9} "
            f"{row.get('ratio', '-'):>7} "
            f"{row['max_ratio']:>7}x  {row['status']}"
        )
    for failure in report["failures"]:
        lines.append(f"FAIL: {failure}")
    for name in report["regressions"]:
        lines.append(f"FAIL: span {name!r} regressed beyond policy")
    lines.append("trace diff: " + ("OK" if report["ok"] else "REGRESSED"))
    return "\n".join(lines)
