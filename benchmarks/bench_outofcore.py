"""Out-of-core fused sweeps: spill overhead across a budget ladder.

The fused sweep's intermediate state is one tagged uint64 bit-matrix,
and the paper's hard ceiling is exactly that matrix outgrowing memory.
This benchmark prices the escape hatch: the same sweep under a
descending ladder of ``max_bytes`` budgets, from "never spills"
(in-core baseline) down to budgets small enough that every round
streams through on-disk tag-range shards and k-way parity merges.

Measured per (m, budget):

1. **Sweep wall time** — ``extract_expressions(fused=True,
   max_bytes=...)``, warm (compiled program + packed tables cached),
   best of ``repeats``.
2. **Whether the budget actually bit** — asserted from telemetry
   (``sweep.spill`` spans), plus spilled bytes, shard counts and
   streamed-merge counts, so a row can never silently claim spill
   coverage the run did not exercise.
3. **Identity** — the smallest-budget (most-spilled) run is checked
   bit-for-bit against the per-bit ``vector`` sweep, the engine
   acceptance contract (Theorem 1: canonical forms do not depend on
   evaluation order, in-core or streamed).

The workload is the NAND-mapped Mastrovito family with the cut-ANF
flat bound forced to 2.  Under the *default* bound these sizes
flatten into one substitution round and the matrix never peaks (the
spill tier exists for field sizes far past CI budgets), so the forced
bound is what makes the measurement honest at benchmarkable sizes:
multi-round sweeps whose matrices genuinely cross the budget ladder.
The methodology note in the report says so explicitly.

The crossover table answers: at what fraction of the in-core peak
does spilling start to cost?  Budgets well above the peak are free
(never trip); the overhead appears with the first real spill and
grows as shards shrink — the committed numbers put the streamed
sweep within small multiples of in-core even at 1/16th of the peak,
which is the trade the memory wall buys.

Usage::

    PYTHONPATH=src python benchmarks/bench_outofcore.py           # full
    PYTHONPATH=src python benchmarks/bench_outofcore.py --smoke   # CI
    PYTHONPATH=src python benchmarks/bench_outofcore.py --smoke \
        --ledger BENCH_history.jsonl                              # ledger

The full run writes ``BENCH_outofcore.json`` at the repository root.
The module doubles as a pytest file: the smoke test always runs (and
skips without numpy); the full matrix is marked ``slow``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time
from typing import List, Optional

import pytest

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

from repro.engine import available_engines, get_engine  # noqa: E402
from repro.fieldmath.bitpoly import bitpoly_str  # noqa: E402
from repro.fieldmath.irreducible import default_irreducible  # noqa: E402
from repro.fieldmath.polynomial_db import PAPER_POLYNOMIALS  # noqa: E402
from repro.gen.mastrovito import generate_mastrovito  # noqa: E402
from repro.rewrite.parallel import extract_expressions  # noqa: E402
from repro.synth.pipeline import synthesize  # noqa: E402
from repro.telemetry import MemorySink, Telemetry, use  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = ROOT / "BENCH_outofcore.json"

FULL_SIZES = [16, 24, 32]
SMOKE_SIZES = [16]

#: The budget ladder, as fractions of the workload's measured in-core
#: matrix peak.  None = unbudgeted baseline; 2.0 sits safely above the
#: peak (the budget must not bite); the small fractions force spills
#: of increasing depth (more, smaller shards per round).
BUDGET_FRACTIONS = [None, 2.0, 0.5, 0.25, 0.0625]


def _vector_available() -> bool:
    return "vector" in available_engines()


def _polynomial_for(m: int) -> int:
    return PAPER_POLYNOMIALS.get(m, default_irreducible(m))


def _workload(m: int):
    """NAND-mapped Mastrovito under the forced matrix loop."""
    return synthesize(
        generate_mastrovito(_polynomial_for(m)), use_xor_cells=False
    )


def _spill_stats(sink: MemorySink) -> dict:
    spills = [
        e
        for e in sink.events
        if e.get("type") == "span" and e.get("name") == "sweep.spill"
    ]
    merges = [
        e
        for e in sink.events
        if e.get("type") == "span" and e.get("name") == "sweep.merge"
    ]
    return {
        "spills": len(spills),
        "spilled_bytes": sum(e["attrs"].get("bytes", 0) for e in spills),
        "shards": max(
            (e["attrs"].get("chunks", 0) for e in spills), default=0
        ),
        "merges": len(merges),
    }


def _run_once(netlist, max_bytes: Optional[int]):
    """One observed fused sweep; returns (run, wall_s, spill stats)."""
    telemetry = Telemetry()
    sink = telemetry.add_sink(MemorySink())
    kwargs = {"max_bytes": max_bytes} if max_bytes is not None else {}
    started = time.perf_counter()
    with use(telemetry):
        run = extract_expressions(
            netlist, engine="vector", fused=True, **kwargs
        )
    wall = time.perf_counter() - started
    return run, wall, _spill_stats(sink)


def _matrix_peak_bytes(sink: MemorySink) -> int:
    """Peak live-matrix footprint from the unbudgeted run's rounds."""
    peaks = [
        e["attrs"]["rows"]
        for e in sink.events
        if e.get("type") == "span" and e.get("name") == "sweep.round"
    ]
    return max(peaks, default=0)


def bench_size(m: int, repeats: int) -> dict:
    """The budget ladder on one field size, identity-checked."""
    netlist = _workload(m)
    _run_once(netlist, None)  # warm: compile + packed tables
    program = get_engine("vector")._compiled_for(netlist)
    if all(node in program.flats for node in program.aig.live_nodes()):
        raise RuntimeError(
            f"m={m}: the forced flat bound left every live node flat; "
            "the sweep would never run a matrix round"
        )

    # The in-core peak in bytes: watch the resident gauge round by
    # round on one *warm* unbudgeted probe run.  Warm matters: a cold
    # run interns variables as rounds discover them and widens the
    # matrix lazily, while every timed run below starts at the settled
    # width — a cold probe would under-report the peak by a column.
    observed = []
    original_gauge = Telemetry.gauge

    def spy(self, name, value):
        if name == "sweep.resident_bytes":
            observed.append(int(value))
        return original_gauge(self, name, value)

    Telemetry.gauge = spy
    try:
        probe_run, _, _ = _run_once(netlist, None)
    finally:
        Telemetry.gauge = original_gauge
    peak_bytes = max(observed, default=0)
    if not peak_bytes:
        raise RuntimeError(
            f"m={m}: no matrix rounds observed; the flat bound must be "
            "forced for this workload to exercise the sweep"
        )

    # Per-bit vector sweep: the identity oracle for the most-spilled
    # run, and the speedup baseline the fused numbers answer to.
    perbit_run = extract_expressions(netlist, engine="vector")
    perbit = dict(perbit_run.expressions.items())

    rows = []
    for fraction in BUDGET_FRACTIONS:
        budget = (
            None if fraction is None else max(1024, int(peak_bytes * fraction))
        )
        _run_once(netlist, budget)  # warm-up
        best, stats, run = float("inf"), None, None
        for _ in range(repeats):
            run, wall, observed_stats = _run_once(netlist, budget)
            if wall < best:
                best, stats = wall, observed_stats
        row = {
            "budget_fraction": fraction,
            "budget_bytes": budget,
            "min_s": round(best, 6),
            **stats,
        }
        rows.append(row)

    # Identity: the deepest-spilled run against the per-bit sweep.
    deepest_budget = rows[-1]["budget_bytes"]
    deepest_run, _, deepest_stats = _run_once(netlist, deepest_budget)
    if not deepest_stats["spills"]:
        raise RuntimeError(
            f"m={m}: the smallest budget ({deepest_budget} bytes) never "
            "tripped a spill; the crossover table would be vacuous"
        )
    identical = dict(deepest_run.expressions.items()) == perbit
    assert identical, f"m={m}: spilled sweep diverged from per-bit"

    baseline = rows[0]["min_s"]
    for row in rows:
        row["vs_incore"] = round(row["min_s"] / max(baseline, 1e-9), 2)
    return {
        "generator": "mastrovito",
        "variant": "nand-mapped, flat bound 2",
        "m": m,
        "polynomial": bitpoly_str(_polynomial_for(m)),
        "gates": len(netlist),
        "matrix_peak_bytes": peak_bytes,
        "perbit_min_s": round(perbit_run.wall_time_s, 6),
        "identical_under_deepest_spill": identical,
        "budgets": rows,
    }


def bench_m163_acceptance() -> dict:
    """The paper-scale acceptance run: NAND-mapped Mastrovito over
    GF(2^163) (the NIST B-163 field), fused sweep capped at half its
    observed matrix peak, checked bit-identical to the per-bit vector
    sweep.  Runs under the *default* flat bound — the production
    configuration; at this size the cones genuinely outgrow it and
    the sweep is matrix-resident without any forcing."""
    netlist = synthesize(
        generate_mastrovito(_polynomial_for(163)), use_xor_cells=False
    )
    _run_once(netlist, None)  # warm
    observed = []
    original_gauge = Telemetry.gauge

    def spy(self, name, value):
        if name == "sweep.resident_bytes":
            observed.append(int(value))
        return original_gauge(self, name, value)

    Telemetry.gauge = spy
    try:
        _, incore_s, _ = _run_once(netlist, None)
    finally:
        Telemetry.gauge = original_gauge
    peak_bytes = max(observed, default=0)
    budget = max(65536, peak_bytes // 2)
    capped_run, capped_s, stats = _run_once(netlist, budget)
    perbit_run = extract_expressions(netlist, engine="vector")
    identical = dict(capped_run.expressions.items()) == dict(
        perbit_run.expressions.items()
    )
    assert identical, "m=163 capped sweep diverged from per-bit"
    assert stats["spills"], "m=163 budget never tripped"
    return {
        "m": 163,
        "polynomial": bitpoly_str(_polynomial_for(163)),
        "variant": "nand-mapped, default flat bound (production)",
        "gates": len(netlist),
        "matrix_peak_bytes": peak_bytes,
        "budget_bytes": budget,
        "incore_min_s": round(incore_s, 6),
        "capped_min_s": round(capped_s, 6),
        "perbit_min_s": round(perbit_run.wall_time_s, 6),
        **stats,
        "identical_to_perbit": identical,
    }


def run_benchmark(sizes: List[int], repeats: int) -> dict:
    import repro.engine.aig as aig_module

    saved_bound = aig_module._FLAT_BOUND
    results = []
    try:
        aig_module._FLAT_BOUND = 2
        for m in sizes:
            row = bench_size(m, repeats)
            results.append(row)
            ladder = "  ".join(
                f"{budget['budget_fraction'] or 'in-core'}:"
                f"{budget['min_s']:.4f}s"
                f"({budget['vs_incore']}x,{budget['spills']} spills)"
                for budget in row["budgets"]
            )
            print(
                f"mastrovito m={m:<3} gates={row['gates']:<6} "
                f"peak={row['matrix_peak_bytes']:<8} {ladder}"
            )
    finally:
        aig_module._FLAT_BOUND = saved_bound

    report = {
        "benchmark": "bench_outofcore",
        "python": platform.python_version(),
        "repeats": repeats,
        "methodology": (
            "NAND-mapped Mastrovito with the cut-ANF flat bound forced "
            "to 2 (under the default bound these sizes flatten in one "
            "round and never peak; the forced bound produces the "
            "multi-round, matrix-resident sweeps the spill tier "
            "exists for, at CI-benchmarkable sizes).  Per m: the "
            "in-core matrix peak is observed via the resident-bytes "
            "gauge on a probe run, then each ladder budget "
            "(fractions of that peak) runs one warm-up plus `repeats` "
            "timed extract_expressions(fused=True, max_bytes=...) "
            "calls; spill/merge counts come from the run's telemetry "
            "spans, so a row cannot claim spill coverage it did not "
            "exercise.  The deepest-budget run is asserted "
            "bit-identical to the per-bit vector sweep"
        ),
        "budget_fractions": BUDGET_FRACTIONS,
        "rows": results,
    }

    deepest = [
        (row["m"], row["budgets"][-1]["vs_incore"]) for row in results
    ]
    identical = all(
        row["identical_under_deepest_spill"] for row in results
    )
    # The overhead gate applies to the largest benchmarked size only:
    # at m=16 the whole matrix is ~25 KB and the deepest-spill ratio
    # measures per-round file churn, not the streaming path (the
    # smaller rows are reported for the fixed-cost picture, ungated).
    gated = [ratio for size, ratio in deepest if size >= 32]
    report["acceptance"] = {
        "criterion": (
            "every ladder row bit-identical under the deepest spill; "
            "on the largest size (m>=32), the streamed sweep stays "
            "within 20x of in-core even at 1/16th of the matrix peak "
            "(smaller sizes are fixed-cost dominated and reported "
            "ungated)"
        ),
        "identical": identical,
        "deepest_overhead": {f"m{m}": ratio for m, ratio in deepest},
        "passed": identical
        and all(ratio <= 20.0 for ratio in gated),
    }
    return report


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------

def test_outofcore_smoke():
    """CI-sized run (m=16): spills engage, results stay identical."""
    if not _vector_available():
        pytest.skip("numpy not installed; vector engine unregistered")
    report = run_benchmark(SMOKE_SIZES, repeats=1)
    assert report["acceptance"]["identical"]
    smallest = report["rows"][0]["budgets"][-1]
    assert smallest["spills"] >= 1
    assert smallest["merges"] >= 1


@pytest.mark.slow
def test_outofcore_full_acceptance():
    """Full ladder (slow): the committed overhead ceiling."""
    if not _vector_available():
        pytest.skip("numpy not installed; vector engine unregistered")
    report = run_benchmark(FULL_SIZES, repeats=3)
    assert report["acceptance"]["passed"]


# ----------------------------------------------------------------------
# CLI entry point
# ----------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized sizes only (m=16)"
    )
    parser.add_argument(
        "--m163",
        action="store_true",
        help=(
            "also run the paper-scale acceptance: GF(2^163) NAND-mapped "
            "Mastrovito, fused sweep capped at half its matrix peak, "
            "bit-identical to per-bit (several minutes; implied by the "
            "full run's committed report)"
        ),
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("-o", "--output", default=None)
    parser.add_argument(
        "--ledger",
        default=None,
        metavar="LEDGER",
        help=(
            "append a schema-versioned summary row (git rev, host, "
            "calibration) to this BENCH_history.jsonl ledger"
        ),
    )
    args = parser.parse_args(argv)

    if not _vector_available():
        print(
            "numpy not installed; vector engine unavailable",
            file=sys.stderr,
        )
        return 1

    sizes = SMOKE_SIZES if args.smoke else FULL_SIZES
    report = run_benchmark(sizes, repeats=args.repeats)
    if args.m163 or not args.smoke:
        print("running the m=163 capped-budget acceptance ...")
        row = bench_m163_acceptance()
        report["m163_acceptance"] = row
        print(
            f"m=163: gates={row['gates']} peak={row['matrix_peak_bytes']} "
            f"budget={row['budget_bytes']} capped={row['capped_min_s']:.2f}s "
            f"spills={row['spills']} merges={row['merges']} "
            f"identical={row['identical_to_perbit']}"
        )
        report["acceptance"]["m163_identical"] = row["identical_to_perbit"]
        report["acceptance"]["passed"] = (
            report["acceptance"]["passed"] and row["identical_to_perbit"]
        )
    status = "PASS" if report["acceptance"]["passed"] else "FAIL"
    print(f"acceptance [{status}]: {report['acceptance']['criterion']}")
    output = args.output
    if output is None and not args.smoke:
        output = DEFAULT_OUTPUT
    if output:
        pathlib.Path(output).write_text(
            json.dumps(report, indent=2) + "\n", encoding="utf-8"
        )
        print(f"wrote {output}")
    if args.ledger is not None:
        import ledger

        row = ledger.append_row(
            "bench_outofcore",
            summary=ledger._summarize_report("bench_outofcore", report),
            path=pathlib.Path(args.ledger),
        )
        print(
            f"ledger: appended row (calibration "
            f"{row['calibration_s']:.4f}s) -> {args.ledger}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
