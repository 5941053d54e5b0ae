"""The numpy ``vector`` engine on flat and NAND-mapped Mastrovito
multipliers.

**Steady state** — the vector engine's per-bit extraction against the
other backends (per-bit ``vector`` runs the ``bitpack`` engine's loop
over the same program, so its rows read like ``bitpack`` within
noise; the fused sweep is ``bench_fused.py``'s subject): per
(variant, m, engine) one warm-up run, then ``--repeats`` timed runs;
``min_s`` is the steady state and ``cold_s`` the first call including
the engine's one-time netlist compile.  Committed acceptance:
``vector`` beats ``bitpack`` by ≥3x steady-state on the NAND-mapped
m=32 extraction.

Usage::

    PYTHONPATH=src python benchmarks/bench_vector.py            # full
    PYTHONPATH=src python benchmarks/bench_vector.py --smoke    # CI (m=16)
    PYTHONPATH=src python benchmarks/bench_vector.py -o out.json

The full run writes ``BENCH_vector.json`` at the repository root.
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
from repro.synth.pipeline import synthesize  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = ROOT / "BENCH_vector.json"

ENGINES = ("reference", "bitpack", "vector")

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


def bench_variant(variant: str, netlist, m: int, repeats: int) -> dict:
    """Steady-state table: every engine, identical results enforced."""
    row: dict = {
        "generator": "mastrovito",
        "variant": variant,
        "m": m,
        "polynomial": bitpoly_str(_polynomial_for(m)),
        "gates": len(netlist),
        "engines": {},
    }
    results = {}
    for engine in ENGINES:
        started = time.perf_counter()
        results[engine] = extract_irreducible_polynomial(
            netlist, engine=engine
        )
        cold = time.perf_counter() - started
        timings = []
        for _ in range(repeats):
            started = time.perf_counter()
            result = extract_irreducible_polynomial(netlist, engine=engine)
            timings.append(time.perf_counter() - started)
            assert result.modulus == results[engine].modulus
        row["engines"][engine] = {
            "cold_s": round(cold, 6),
            "min_s": round(min(timings), 6),
            "mean_s": round(sum(timings) / len(timings), 6),
        }
    baseline = results["reference"]
    for engine in ENGINES[1:]:
        assert results[engine].modulus == baseline.modulus
        assert results[engine].member_bits == baseline.member_bits
        row["engines"][engine]["speedup_vs_bitpack"] = round(
            row["engines"]["bitpack"]["min_s"]
            / max(row["engines"][engine]["min_s"], 1e-9),
            2,
        )
    row["identical"] = True
    return row


def run_benchmark(sizes: List[int], repeats: int) -> dict:
    rows = []
    for m in sizes:
        for variant, netlist in _netlists(m):
            row = bench_variant(variant, netlist, m, repeats)
            rows.append(row)
            print(
                f"mastrovito m={m:<3} {variant:<12} "
                f"gates={row['gates']:<6} "
                + "  ".join(
                    f"{name}: cold {data['cold_s']:.4f}s "
                    f"min {data['min_s']:.4f}s"
                    for name, data in row["engines"].items()
                )
            )
    report = {
        "benchmark": "bench_vector",
        "python": platform.python_version(),
        "repeats": repeats,
        "methodology": (
            "steady table: one warm-up per engine then `repeats` timed "
            "runs (min_s = steady state, cold_s = first call incl. "
            "compile)"
        ),
        "engines": [e for e in ENGINES if e in available_engines()],
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
    if target is not None and "vector" in target["engines"]:
        vector = target["engines"]["vector"]["min_s"]
        bitpack = target["engines"]["bitpack"]["min_s"]
        report["acceptance"] = {
            "criterion": (
                "vector >= 3x faster than bitpack steady-state on the "
                "NAND-mapped m=32 Mastrovito extraction"
            ),
            "vector_min_s": vector,
            "bitpack_min_s": bitpack,
            "speedup": round(bitpack / max(vector, 1e-9), 2),
            "passed": vector * 3 <= bitpack,
        }
    return report


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------

def test_vector_engine_smoke():
    """CI-sized run (m=16): identical results."""
    if not _vector_available():
        pytest.skip("numpy not installed; vector engine unregistered")
    report = run_benchmark(SMOKE_SIZES, repeats=1)
    assert all(row["identical"] for row in report["rows"])


@pytest.mark.slow
def test_vector_engine_full_acceptance():
    """Full matrix (slow): the committed criteria."""
    if not _vector_available():
        pytest.skip("numpy not installed; vector engine unregistered")
    report = run_benchmark(FULL_SIZES, repeats=5)
    assert report["acceptance"]["passed"]


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
    args = parser.parse_args(argv)

    if not _vector_available():
        print("numpy not installed; vector engine unavailable", file=sys.stderr)
        return 1

    sizes = SMOKE_SIZES if args.smoke else FULL_SIZES
    report = run_benchmark(sizes, repeats=args.repeats)
    if "acceptance" in report:
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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
