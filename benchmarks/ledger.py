"""Append-only perf ledger: one JSONL row per benchmark/CI run.

Every row is self-describing: schema version, git revision, host
fingerprint, the hardware-calibration constant (see
``repro.telemetry.analyze.run_calibration``), and — when a trace file
is supplied — the per-span profile extracted from it.  CI appends a
row per guarded run, so ``BENCH_history.jsonl`` accumulates a
machine-normalizable performance history that `repro trace diff` can
be pointed at later.

Usage::

    # Append a row for a finished benchmark report:
    PYTHONPATH=src python benchmarks/ledger.py \
        --bench bench_eco --report BENCH_eco.json \
        --trace trace.jsonl

    # Or from another benchmark script:
    from ledger import append_row
    append_row("bench_eco", report=report, trace_path="trace.jsonl")

Row schema (``LEDGER_SCHEMA = 1``)::

    {"schema": 1, "bench": ..., "unix": ..., "git_rev": ...,
     "host": {"python": ..., "platform": ..., "machine": ...},
     "calibration_s": ...,          # best-of-3 fixed-work pass, seconds
     "summary": {...},              # benchmark-specific report extract
     "profile": {span: {...}}}     # per-span profile when --trace given
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import subprocess
import sys
import time
from typing import List, Optional

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

from repro.ioutil import atomic_append_line  # noqa: E402
from repro.telemetry import load_trace  # noqa: E402
from repro.telemetry.analyze import (  # noqa: E402
    profile_trace,
    run_calibration,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_LEDGER = ROOT / "BENCH_history.jsonl"

LEDGER_SCHEMA = 1


def git_rev() -> Optional[str]:
    """Current commit hash, or None outside a usable git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def host_info() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def make_row(
    bench: str,
    summary: Optional[dict] = None,
    trace_path: Optional[str] = None,
    calibration_s: Optional[float] = None,
) -> dict:
    """Build one schema-versioned ledger row.

    ``calibration_s`` defaults to a fresh measurement; pass the value
    recorded in the trace (``profile["calibration_s"]``) to reuse it.
    """
    row = {
        "schema": LEDGER_SCHEMA,
        "bench": bench,
        "unix": round(time.time(), 3),
        "git_rev": git_rev(),
        "host": host_info(),
    }
    profile = None
    if trace_path is not None:
        profile = profile_trace(load_trace(trace_path))
        if calibration_s is None:
            calibration_s = profile.get("calibration_s")
    if calibration_s is None:
        calibration_s = run_calibration()
    row["calibration_s"] = round(calibration_s, 6)
    if summary is not None:
        row["summary"] = summary
    if profile is not None:
        # Spans only: counters/gauges already live in the trace file.
        row["profile"] = profile["spans"]
        row["spans_total"] = profile["spans_total"]
        row["errors"] = profile["errors"]
    return row


def append_row(
    bench: str,
    summary: Optional[dict] = None,
    trace_path: Optional[str] = None,
    calibration_s: Optional[float] = None,
    path: Optional[pathlib.Path] = None,
) -> dict:
    """Append one row to the ledger and return it."""
    row = make_row(
        bench,
        summary=summary,
        trace_path=trace_path,
        calibration_s=calibration_s,
    )
    atomic_append_line(
        path or DEFAULT_LEDGER, json.dumps(row, sort_keys=True)
    )
    return row


def _summarize_report(bench: str, report: dict) -> dict:
    """Pull the stable, comparable core out of a benchmark report.

    Full reports stay in their own ``BENCH_*.json`` files; the ledger
    keeps only what cross-run comparisons need.
    """
    summary: dict = {}
    if "acceptance" in report:
        acceptance = report["acceptance"]
        summary["acceptance_passed"] = acceptance.get("passed")
        if "speedup" in acceptance:
            summary["acceptance_speedup"] = acceptance["speedup"]
    rows = report.get("rows")
    if isinstance(rows, list):
        summary["rows"] = len(rows)
    return summary


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", required=True, help="benchmark name")
    parser.add_argument(
        "--report", default=None, help="benchmark JSON report to summarize"
    )
    parser.add_argument(
        "--trace", default=None, help="telemetry trace to profile"
    )
    parser.add_argument(
        "-o",
        "--output",
        default=None,
        help=f"ledger path (default {DEFAULT_LEDGER.name} at repo root)",
    )
    args = parser.parse_args(argv)

    summary = None
    if args.report is not None:
        report = json.loads(
            pathlib.Path(args.report).read_text(encoding="utf-8")
        )
        summary = _summarize_report(args.bench, report)
    row = append_row(
        args.bench,
        summary=summary,
        trace_path=args.trace,
        path=pathlib.Path(args.output) if args.output else None,
    )
    target = args.output or DEFAULT_LEDGER
    print(
        f"ledger: appended {args.bench} row "
        f"(git {str(row['git_rev'])[:12]}, "
        f"calibration {row['calibration_s']:.4f}s) -> {target}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
