"""Reference vs bitpack engine benchmark across the generator zoo.

Measures :func:`repro.extract.extractor.extract_irreducible_polynomial`
end-to-end (rewriting + Algorithm 2 membership + irreducibility test)
for every registered backend on Mastrovito, Montgomery, Karatsuba,
schoolbook and digit-serial multipliers, asserting bit-identical
``modulus``/``member_bits`` between backends at every size.

Methodology: per (generator, m, engine) the extraction runs once as a
warm-up — populating the caches any long-lived audit process holds
(gate-model table, topological order, the bitpack engine's compiled
netlist) — then ``--repeats`` timed runs; the table reports the
minimum (steady state) and the mean.  The warm-up time is recorded
separately as ``cold_s`` for one-shot workloads.

Usage::

    PYTHONPATH=src python benchmarks/bench_engines.py            # full
    PYTHONPATH=src python benchmarks/bench_engines.py --smoke    # CI
    PYTHONPATH=src python benchmarks/bench_engines.py -o out.json

The full run writes ``BENCH_engines.json`` at the repository root —
the committed evidence for the ≥5× acceptance criterion on the m=32
Mastrovito extraction.

The module doubles as a pytest file: the smoke test always runs, the
full matrix is marked ``slow``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time
from typing import Callable, Dict, List, Optional

import pytest

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

from repro.engine import registered_engines  # noqa: E402
from repro.extract.extractor import (  # noqa: E402
    extract_irreducible_polynomial,
)
from repro.fieldmath.bitpoly import bitpoly_str  # noqa: E402
from repro.fieldmath.irreducible import default_irreducible  # noqa: E402
from repro.fieldmath.polynomial_db import PAPER_POLYNOMIALS  # noqa: E402
from repro.gen.digit_serial import generate_digit_serial  # noqa: E402
from repro.gen.karatsuba import generate_karatsuba  # noqa: E402
from repro.gen.mastrovito import generate_mastrovito  # noqa: E402
from repro.gen.montgomery import generate_montgomery  # noqa: E402
from repro.gen.schoolbook import generate_schoolbook  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = ROOT / "BENCH_engines.json"

GENERATORS: Dict[str, Callable] = {
    "mastrovito": generate_mastrovito,
    "montgomery": generate_montgomery,
    "karatsuba": generate_karatsuba,
    "schoolbook": generate_schoolbook,
    "digit-serial": generate_digit_serial,
}

#: Full-matrix sizes per generator (kept moderate: the reference
#: engine is the slow side of every pair).
FULL_SIZES: Dict[str, List[int]] = {
    "mastrovito": [16, 32, 48],
    "montgomery": [16, 24],
    "karatsuba": [16, 32],
    "schoolbook": [16, 32],
    "digit-serial": [16, 32],
}

SMOKE_SIZES: Dict[str, List[int]] = {name: [8] for name in GENERATORS}


def _polynomial_for(m: int) -> int:
    return PAPER_POLYNOMIALS.get(m, default_irreducible(m))


def bench_pair(
    generator: str,
    m: int,
    repeats: int,
    engines=("reference", "bitpack"),
) -> dict:
    """Benchmark every engine on one netlist; verify identical results."""
    modulus = _polynomial_for(m)
    netlist = GENERATORS[generator](modulus)
    row: dict = {
        "generator": generator,
        "m": m,
        "polynomial": bitpoly_str(modulus),
        "gates": len(netlist),
        "engines": {},
    }
    results = {}
    for engine in engines:
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
    baseline = results[engines[0]]
    for engine, result in results.items():
        assert result.modulus == modulus, (
            f"{engine} recovered {bitpoly_str(result.modulus)} "
            f"instead of {bitpoly_str(modulus)} on {generator} m={m}"
        )
        assert result.modulus == baseline.modulus
        assert result.member_bits == baseline.member_bits
    row["identical"] = True
    reference_min = row["engines"][engines[0]]["min_s"]
    for engine in engines[1:]:
        row["engines"][engine]["speedup"] = round(
            reference_min / max(row["engines"][engine]["min_s"], 1e-9), 2
        )
    return row


def run_matrix(
    sizes: Dict[str, List[int]], repeats: int, verbose: bool = True
) -> dict:
    rows = []
    for generator, generator_sizes in sizes.items():
        for m in generator_sizes:
            row = bench_pair(generator, m, repeats)
            rows.append(row)
            if verbose:
                reference = row["engines"]["reference"]
                bitpack = row["engines"]["bitpack"]
                print(
                    f"{generator:>12} m={m:<3} gates={row['gates']:<6} "
                    f"reference={reference['min_s']:.4f}s "
                    f"bitpack={bitpack['min_s']:.4f}s "
                    f"speedup={bitpack['speedup']:.1f}x "
                    f"(cold {bitpack['cold_s']:.4f}s)"
                )
    report = {
        "benchmark": "bench_engines",
        "python": platform.python_version(),
        "repeats": repeats,
        "methodology": (
            "one warm-up extraction per engine (caches populated), then "
            "`repeats` timed runs; min_s is steady state, cold_s the "
            "first call including compilation"
        ),
        "engines": list(registered_engines()),
        "rows": rows,
    }
    acceptance = next(
        (
            row
            for row in rows
            if row["generator"] == "mastrovito" and row["m"] == 32
        ),
        None,
    )
    if acceptance is not None:
        report["acceptance"] = {
            "criterion": "bitpack >= 5x reference on m=32 Mastrovito",
            "speedup": acceptance["engines"]["bitpack"]["speedup"],
            "passed": acceptance["engines"]["bitpack"]["speedup"] >= 5.0,
        }
    return report


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------


def test_engines_smoke():
    """Fast cross-engine sanity sweep (runs in CI)."""
    report = run_matrix(SMOKE_SIZES, repeats=1, verbose=False)
    assert all(row["identical"] for row in report["rows"])


@pytest.mark.slow
def test_engines_full_matrix():
    """The complete matrix incl. the m=32 Mastrovito acceptance bar."""
    report = run_matrix(FULL_SIZES, repeats=3, verbose=False)
    assert all(row["identical"] for row in report["rows"])
    assert report["acceptance"]["passed"], report["acceptance"]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes, one repeat, no JSON output (CI sanity run)",
    )
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "-o",
        "--output",
        default=str(DEFAULT_OUTPUT),
        help="JSON report path (full runs only)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        report = run_matrix(SMOKE_SIZES, repeats=1)
        print("smoke: all engines identical "
              f"on {len(report['rows'])} netlists")
        return 0

    report = run_matrix(FULL_SIZES, repeats=args.repeats)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    acceptance = report.get("acceptance", {})
    print(f"\nwrote {args.output}")
    print(
        f"acceptance (m=32 mastrovito >= 5x): "
        f"{acceptance.get('speedup')}x "
        f"{'PASS' if acceptance.get('passed') else 'FAIL'}"
    )
    return 0 if acceptance.get("passed") else 1


if __name__ == "__main__":
    raise SystemExit(main())
