"""Fused multi-output extraction vs the per-bit ``vector`` sweep.

Two comparisons are measured on flat and NAND-mapped Mastrovito
multipliers, each after asserting the fused results identical to the
reference engine:

1. **Fused sweep ratio** — ``extract_expressions(fused=True)`` (one
   output-tagged bit-matrix for all m cones, rounds of batched
   substitutions, per-(tag, monomial) cancellation) against the
   per-bit ``vector`` sweep (m independent ``rewrite_cone`` calls,
   which run the ``bitpack`` engine's loop).  Both run warm (compiled
   program + packed model tables cached), so the comparison isolates
   the substitution sweep the fused mode amortizes.  The NAND-mapped
   m=32 ratio is reported as a diagnostic, without a pass/fail.

2. **End-to-end extraction** — the same comparison through
   ``extract_irreducible_polynomial``, which adds the Algorithm-2
   membership tests, the irreducibility check and (on the fused path)
   the lazily deferred mask materialization.  These shared costs are
   mode-independent, so the end-to-end ratio is smaller by
   construction.

Usage::

    PYTHONPATH=src python benchmarks/bench_fused.py            # full
    PYTHONPATH=src python benchmarks/bench_fused.py --smoke    # CI (m=16)
    PYTHONPATH=src python benchmarks/bench_fused.py --smoke \
        --ledger BENCH_history.jsonl                           # CI ledger

The full run writes ``BENCH_fused.json`` at the repository root.
``--ledger`` appends a schema-versioned row (git rev, host,
calibration constant, report summary) to the append-only perf
ledger — see ``benchmarks/ledger.py``.  Perf-regression *gating*
moved to the trace level: CI runs the traced m=16 workload twice and
judges it with ``repro trace diff BASE CURRENT --check``, which
normalizes by the hardware-calibration span instead of by the
per-bit sweep.

The module doubles as a pytest file: the smoke test always runs (and
skips without numpy), the full matrix is marked ``slow``.
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

from repro.engine import available_engines  # noqa: E402
from repro.extract.extractor import (  # noqa: E402
    extract_irreducible_polynomial,
)
from repro.fieldmath.bitpoly import bitpoly_str  # noqa: E402
from repro.fieldmath.irreducible import default_irreducible  # noqa: E402
from repro.fieldmath.polynomial_db import PAPER_POLYNOMIALS  # noqa: E402
from repro.gen.mastrovito import generate_mastrovito  # noqa: E402
from repro.rewrite.parallel import extract_expressions  # noqa: E402
from repro.synth.pipeline import synthesize  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = ROOT / "BENCH_fused.json"

FULL_SIZES = [16, 32]
SMOKE_SIZES = [16]


def _vector_available() -> bool:
    return "vector" in available_engines()


def _polynomial_for(m: int) -> int:
    return PAPER_POLYNOMIALS.get(m, default_irreducible(m))


def _netlists(m: int):
    flat = generate_mastrovito(_polynomial_for(m))
    nand = synthesize(flat, use_xor_cells=False)
    return (("flat", flat), ("nand-mapped", nand))


def _best(fn, repeats: int) -> float:
    fn()  # warm-up: compile + packed-table caches
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def bench_variant(variant: str, netlist, m: int, repeats: int) -> dict:
    """Per-bit vs fused, sweep-level and end-to-end, identity checked."""
    outputs = [f"z{i}" for i in range(m)]
    reference = extract_irreducible_polynomial(netlist, engine="reference")
    fused_result = extract_irreducible_polynomial(
        netlist, engine="vector", fused=True
    )
    assert fused_result.modulus == reference.modulus
    assert fused_result.member_bits == reference.member_bits
    for bit in range(m):
        assert fused_result.expression_of(bit) == reference.expression_of(
            bit
        )

    sweep_perbit = _best(
        lambda: extract_expressions(
            netlist, outputs=outputs, engine="vector"
        ),
        repeats,
    )
    sweep_fused = _best(
        lambda: extract_expressions(
            netlist, outputs=outputs, engine="vector", fused=True
        ),
        repeats,
    )
    extract_perbit = _best(
        lambda: extract_irreducible_polynomial(netlist, engine="vector"),
        repeats,
    )
    extract_fused = _best(
        lambda: extract_irreducible_polynomial(
            netlist, engine="vector", fused=True
        ),
        repeats,
    )
    return {
        "generator": "mastrovito",
        "variant": variant,
        "m": m,
        "polynomial": bitpoly_str(_polynomial_for(m)),
        "gates": len(netlist),
        "identical": True,
        "sweep": {
            "perbit_min_s": round(sweep_perbit, 6),
            "fused_min_s": round(sweep_fused, 6),
            "speedup": round(sweep_perbit / max(sweep_fused, 1e-9), 2),
        },
        "extract": {
            "perbit_min_s": round(extract_perbit, 6),
            "fused_min_s": round(extract_fused, 6),
            "speedup": round(extract_perbit / max(extract_fused, 1e-9), 2),
        },
    }


def run_benchmark(sizes: List[int], repeats: int) -> dict:
    rows = []
    for m in sizes:
        for variant, netlist in _netlists(m):
            row = bench_variant(variant, netlist, m, repeats)
            rows.append(row)
            print(
                f"mastrovito m={m:<3} {variant:<12} "
                f"gates={row['gates']:<6} "
                f"sweep: per-bit {row['sweep']['perbit_min_s']:.4f}s "
                f"fused {row['sweep']['fused_min_s']:.4f}s "
                f"({row['sweep']['speedup']}x)   "
                f"extract: {row['extract']['perbit_min_s']:.4f}s -> "
                f"{row['extract']['fused_min_s']:.4f}s "
                f"({row['extract']['speedup']}x)"
            )
    report = {
        "benchmark": "bench_fused",
        "python": platform.python_version(),
        "repeats": repeats,
        "methodology": (
            "per (variant, m): identity asserted against reference, "
            "then one warm-up + `repeats` timed runs per mode; sweep "
            "rows time extract_expressions (the substitution sweep "
            "the fused mode amortizes; decode is lazy on both paths), "
            "extract rows time extract_irreducible_polynomial "
            "end-to-end including the mode-independent Algorithm-2 "
            "phase.  Per-bit vector runs the bitpack engine's loop"
        ),
        "rows": rows,
    }
    target = next(
        (
            row
            for row in rows
            if row["m"] == 32 and row["variant"] == "nand-mapped"
        ),
        None,
    )
    if target is not None:
        report["diagnostic"] = {
            "ratio": (
                "per-bit vector sweep / fused sweep on the NAND-mapped "
                "m=32 Mastrovito (reported, not gated)"
            ),
            "perbit_min_s": target["sweep"]["perbit_min_s"],
            "fused_min_s": target["sweep"]["fused_min_s"],
            "speedup": target["sweep"]["speedup"],
        }
    return report


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------

def test_fused_smoke():
    """CI-sized run (m=16): fused results identical to reference."""
    if not _vector_available():
        pytest.skip("numpy not installed; vector engine unregistered")
    report = run_benchmark(SMOKE_SIZES, repeats=1)
    assert all(row["identical"] for row in report["rows"])


@pytest.mark.slow
def test_fused_full_acceptance():
    """Full matrix (slow): fused results identical to reference."""
    if not _vector_available():
        pytest.skip("numpy not installed; vector engine unregistered")
    report = run_benchmark(FULL_SIZES, repeats=5)
    assert all(row["identical"] for row in report["rows"])


# ----------------------------------------------------------------------
# CLI entry point
# ----------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized sizes only (m=16)"
    )
    parser.add_argument("--repeats", type=int, default=5)
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
    if "diagnostic" in report:
        diagnostic = report["diagnostic"]
        print(f"{diagnostic['ratio']}: {diagnostic['speedup']}x")
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
            "bench_fused",
            summary=ledger._summarize_report("bench_fused", report),
            path=pathlib.Path(args.ledger),
        )
        print(
            f"ledger: appended row (calibration "
            f"{row['calibration_s']:.4f}s) -> {args.ledger}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
