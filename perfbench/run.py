"""End-to-end benchmark of the reverse-engineering service: file to verdict.

Each run measures one workload through the service's public entry
points (``CampaignRunner.run`` and ``eco_reverify``) with ``jobs=1``
and ``workers=1`` on a closed loop, and prints one JSON line last::

    python3 perfbench/run.py --workload cold-bitpack --seed 1 \\
        --seconds 10 --trace 0

Workloads (inputs are seeded NAND-mapped Mastrovito multipliers; the
seed picks the irreducible polynomials, faults and edits, except the
eco baseline's polynomial, which is the same for every seed):

* ``cold-bitpack`` -- one never-seen netlist at each of m = 32, 48, 64,
  audited on an empty cache with ``engine="bitpack"``;
* ``cold-fused``   -- the m=32 and m=48 netlists with ``engine="vector",
  fused=True``, where compiling the program is most of the wall;
* ``eco``          -- a verified m=64 baseline, then never-seen
  function-preserving single-cone edits ``z -> AND(z', OR(z', a_j))``
  re-audited with ``eco_reverify(audit=True)``, three per pass;
* ``triage``       -- a fleet of clean and single-fault multipliers
  (m <= 16) through ``CampaignRunner(mode="diagnose")``.

Every request is sent fresh (cache never saw it) and then repeated
against the warm cache.  Times are host-normalized seconds: every timed
request, and every setup probe, is bracketed by the calibration loop of
``hostspeed.py``, so that a slow phase of a shared host cancels out of
the figures while a change to the program does not.  ``--trace 0``
reports the end-to-end metrics:

* ``setup_s``      -- median over several fresh interpreters of the
  time until the service is ready (imports, engine-registry probe,
  cache open; see ``ready.py``);
* ``wall_s``       -- time of one pass over the workload's requests,
  fresh and repeats (median over passes);
* ``fresh_mean_s`` -- mean file-to-verdict latency of a pass's fresh
  requests, median over passes (cold-*: an audit of the ladder; eco: a
  fresh edit re-audit; triage: a diagnosis of the fleet).  A mean, not
  a median: a pass holds 2-8 fresh requests of different sizes, and
  the median of so few samples of mixed sizes is one sample;
* ``repeat_p50_s`` -- median latency of a warm-cache repeat over the
  run (every fresh request is repeated many times);
* ``peak_rss_mb``  -- peak RSS of the workload's own process.

The ledger row adds per-rung (cold-*) or per-stratum (triage) medians
with their sample counts, and the raw, unnormalized fresh latencies.

Failed requests and wrong verdicts are the ``failed`` count of the
result line; any of them makes the command exit with code 1.
``--trace 1`` runs the same requests twice, untraced and traced, and
reports the per-layer metrics of ``layers.py``.  Each run also appends
a ``benchmarks/ledger.py`` row to ``.perfbench_work/ledger.jsonl``.

Inputs are generated once per seed, outside the timed process, under
``.perfbench_work/inputs``; ``--smoke`` uses m <= 16 inputs instead.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_WORK = ROOT / ".perfbench_work"

#: Input kind of each workload (cold-bitpack and cold-fused share one
#: ladder per seed).
INPUT_KIND = {
    "cold-bitpack": "ladder",
    "cold-fused": "ladder",
    "eco": "eco",
    "triage": "triage",
}

#: Host-normalized seconds one pass takes at the commit that introduced
#: the benchmark (2-core x86 VM).  A run does ``round(--seconds / this)``
#: passes, at least one: the same work for the same ``--seconds`` on
#: every commit, so a faster program finishes sooner instead of
#: measuring more.
NOMINAL_PASS_S = {
    "cold-bitpack": 4.5,
    "cold-fused": 3.5,
    "eco": 4.3,
    "triage": 3.8,
}

#: Passes of a ``--trace 1`` run (the same for its untraced twin).
TRACE_PASSES = {"cold-bitpack": 1, "cold-fused": 1, "eco": 1, "triage": 1}

#: Never-seen edits re-audited per eco pass.
ECO_EDITS_PER_PASS = 3

#: Fresh interpreters timed per run for ``setup_s``.
SETUP_PROBES = 3

#: Every run must finish within this many seconds.
RUN_BUDGET_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "fresh_mean_s": "s",
    "repeat_p50_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark could not run (missing sources, crashed worker)."""


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def run_worker(
    workload: str,
    inputs: Path,
    work: Path,
    passes: int,
    trace: bool,
    deadline: float,
) -> Dict[str, Any]:
    """Run ``worker.py`` in a fresh interpreter; returns its result."""
    work.mkdir(parents=True, exist_ok=True)
    out = work / "result.json"
    out.unlink(missing_ok=True)
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload,
        "--inputs", str(inputs),
        "--work", str(work),
        "--passes", str(passes),
        "--edits-per-pass", str(ECO_EDITS_PER_PASS),
        "--out", str(out),
    ]
    if trace:
        command.append("--trace")
    try:
        # The worker's stdout goes to our stderr: the last line of our
        # stdout is reserved for the result.
        completed = subprocess.run(
            command, stdout=sys.stderr, timeout=max(1.0, deadline - time.time())
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker exceeded the run budget") from None
    if completed.returncode != 0 or not out.exists():
        raise BenchError(
            f"{workload} worker exited with code {completed.returncode}"
        )
    return json.loads(out.read_text(encoding="utf-8"))


def setup_seconds(work: Path, probes: int) -> float:
    """Median host-normalized spawn-to-exit time of ``ready.py`` on an
    empty cache."""
    from hostspeed import speed_factor

    samples = []
    for index in range(probes):
        cache_dir = work / f"ready-{index}"
        before = speed_factor()
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "ready.py"), str(cache_dir)],
            check=True, timeout=60,
        )
        elapsed = time.perf_counter() - started
        samples.append(elapsed * (before + speed_factor()) / 2)
        shutil.rmtree(cache_dir, ignore_errors=True)
    return statistics.median(samples)


def end_to_end(result: Dict[str, Any]) -> Dict[str, float]:
    passes = result["passes"]
    if not passes:
        raise BenchError("the worker completed no pass")
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "fresh_mean_s": statistics.median(
            statistics.fmean(p["fresh"]) for p in passes
        ),
        "repeat_p50_s": statistics.median(
            sample for p in passes for samples in p["repeat"]
            for sample in samples
        ),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def breakdown(result: Dict[str, Any]) -> Dict[str, Any]:
    """Per-request-class medians for the ledger row, with sample counts
    (cold-*: per ladder rung; eco: the edit; triage: per stratum)."""
    fresh: Dict[str, List[float]] = {}
    raw: Dict[str, List[float]] = {}
    warm: Dict[str, List[float]] = {}
    for p in result["passes"]:
        for label, first, unscaled, again in zip(
            p["labels"], p["fresh"], p["raw_fresh"], p["repeat"]
        ):
            fresh.setdefault(label, []).append(first)
            raw.setdefault(label, []).append(unscaled)
            warm.setdefault(label, []).extend(again)
    return {
        "passes": len(result["passes"]),
        "fresh_p50_s": {k: statistics.median(v) for k, v in fresh.items()},
        "raw_fresh_p50_s": {k: statistics.median(v) for k, v in raw.items()},
        "repeat_p50_s": {k: statistics.median(v) for k, v in warm.items()},
        "samples": {k: len(v) for k, v in fresh.items()},
        "repeat_samples": {k: len(v) for k, v in warm.items()},
    }


def measure(args, work: Path) -> Dict[str, Any]:
    """One benchmark run: the result line, the wrong-verdict messages
    and (untraced runs) the per-request-class breakdown."""
    started = time.time()
    deadline = started + RUN_BUDGET_S
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchError(f"no package sources under {ROOT / 'src'}")
    if not (ROOT / "benchmarks" / "ledger.py").is_file():
        raise BenchError("benchmarks/ledger.py is missing")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from inputs import ensure_inputs

    workload = args.workload
    passes = TRACE_PASSES[workload] if args.trace else passes_for(
        workload, args.seconds
    )
    inputs, _ = ensure_inputs(
        work, INPUT_KIND[workload], args.seed, smoke=args.smoke,
        # The edits of every eco pass, plus the untimed warm-up edit.
        edits=ECO_EDITS_PER_PASS * max(
            TRACE_PASSES["eco"], passes_for("eco", args.seconds)
        ) + 1,
    )
    run_dir = work / "runs" / workload
    shutil.rmtree(run_dir, ignore_errors=True)
    if args.trace:
        plain = run_worker(
            workload, inputs, run_dir / "plain", passes, False, deadline
        )
        traced = run_worker(
            workload, inputs, run_dir / "traced", passes, True, deadline
        )
        metrics = dict(traced["layers"])
        metrics["telemetry.overhead_frac"] = (
            traced["normalized_s"] / plain["normalized_s"]
        )
        results = [plain, traced]
        trace_path = traced["trace"]
        per_class = None
        from layers import LAYER_METRICS as units
    else:
        setup = setup_seconds(run_dir, 1 if args.smoke else SETUP_PROBES)
        result = run_worker(
            workload, inputs, run_dir / "plain", passes, False, deadline
        )
        metrics = {"setup_s": setup, **end_to_end(result)}
        results = [result]
        trace_path = None
        units = END_TO_END_UNITS
        per_class = breakdown(result)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    errors = [e for r in results for e in r["errors"]]
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }

    from ledger import append_row

    append_row(
        f"perfbench.{workload}",
        summary={
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "smoke": bool(args.smoke),
            "error_rate": failed / max(1, attempted),
            "metrics": {name: metrics[name] for name in units},
            "breakdown": per_class,
        },
        trace_path=trace_path,
        path=work / "ledger.jsonl",
    )
    return {"line": line, "errors": errors, "breakdown": per_class}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(INPUT_KIND))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="m <= 16 inputs, one setup probe"
    )
    parser.add_argument(
        "--work", type=Path, default=DEFAULT_WORK,
        help="scratch directory for inputs, caches and the ledger",
    )
    args = parser.parse_args(argv)
    try:
        outcome = measure(args, args.work)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    for message in outcome["errors"]:
        print(f"perfbench: wrong verdict: {message}", file=sys.stderr)
    if outcome["breakdown"] is not None:
        print(f"perfbench: {args.workload} {json.dumps(outcome['breakdown'])}")
    print(json.dumps(outcome["line"]))
    return 0 if outcome["line"]["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
