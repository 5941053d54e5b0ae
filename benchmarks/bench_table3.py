"""Table III — extraction from synthesized (technology-mapped) designs.

Paper: Mastrovito and Montgomery multipliers "optimized and mapped
using synthesis tool ABC" extract with *much less* runtime and memory
than the raw generator netlists, because synthesis shrinks the logic
cones.

Here: the raw generator output is emulated by redundancy decoration
(double-inverter pairs + buffered outputs — exactly what raw generator
netlists carry and ABC removes); the ABC flow is our
``synthesize()`` pipeline (the AIG passes — strash with constant
propagation, XOR and AND balancing — then technology mapping).
Asserted shape: extraction recovers P(x) on the mapped netlists, and
the synthesized versions extract no slower than the redundant flat
versions.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import JOBS, emit, sizes
from repro.analysis.instrument import measure
from repro.analysis.tables import Table
from repro.extract.extractor import extract_irreducible_polynomial
from repro.fieldmath.bitpoly import bitpoly_str
from repro.fieldmath.irreducible import default_irreducible
from repro.fieldmath.polynomial_db import PAPER_POLYNOMIALS
from repro.gen.mastrovito import generate_mastrovito
from repro.gen.montgomery import generate_montgomery
from repro.gen.redundancy import decorate_with_redundancy
from repro.synth.pipeline import synthesize

#: Full paper-scale harness - excluded from quick CI runs.
pytestmark = pytest.mark.slow

MASTROVITO_SIZES = sizes(
    quick=[8],
    default=[16, 32, 64],
    paper=[64, 96, 163],
)
MONTGOMERY_SIZES = sizes(
    quick=[8],
    default=[16, 24, 32],
    paper=[48, 64, 96],
)

_ROWS = []


def _polynomial_for(m: int) -> int:
    return PAPER_POLYNOMIALS.get(m, default_irreducible(m))


def _run_pair(algorithm: str, generator, m: int, benchmark) -> None:
    modulus = _polynomial_for(m)
    flat = decorate_with_redundancy(generator(modulus))
    mapped = synthesize(flat)

    flat_measured = measure(
        lambda: extract_irreducible_polynomial(flat, jobs=JOBS)
    )
    mapped_measured = measure(
        lambda: benchmark.pedantic(
            lambda: extract_irreducible_polynomial(mapped, jobs=JOBS),
            rounds=1,
            iterations=1,
        )
    )
    assert flat_measured.value.modulus == modulus
    assert mapped_measured.value.modulus == modulus
    _ROWS.append(
        {
            "algo": algorithm,
            "m": m,
            "poly": bitpoly_str(modulus),
            "flat_eqns": len(flat),
            "flat_runtime": flat_measured.value.total_time_s,
            "flat_mem": flat_measured.memory_str(),
            "syn_eqns": len(mapped),
            "syn_runtime": mapped_measured.value.total_time_s,
            "syn_mem": mapped_measured.memory_str(),
        }
    )


@pytest.mark.parametrize("m", MASTROVITO_SIZES)
def test_table3_mastrovito_syn(benchmark, m):
    _run_pair("Mastrovito", generate_mastrovito, m, benchmark)


@pytest.mark.parametrize("m", MONTGOMERY_SIZES)
def test_table3_montgomery_syn(benchmark, m):
    _run_pair("Montgomery", generate_montgomery, m, benchmark)


def test_table3_report():
    assert _ROWS
    table = Table(
        ["algo", "m", "P(x)", "flat #eqns", "flat Runtime(s)", "flat Mem",
         "syn #eqns", "syn Runtime(s)", "syn Mem"],
        title="Table III: raw generator netlists vs synthesized/mapped "
              "(ABC-equivalent pipeline)",
    )
    for row in sorted(_ROWS, key=lambda r: (r["algo"], r["m"])):
        table.add_row(
            [row["algo"], row["m"], row["poly"],
             row["flat_eqns"], row["flat_runtime"], row["flat_mem"],
             row["syn_eqns"], row["syn_runtime"], row["syn_mem"]]
        )
    emit("table3_synthesized", table.render())

    # Shape: synthesis shrinks the netlist, and the mapped version
    # extracts no slower (paper: much faster) at the largest size.
    for algo in ("Mastrovito", "Montgomery"):
        rows = [r for r in _ROWS if r["algo"] == algo]
        if not rows:
            continue
        largest = max(rows, key=lambda r: r["m"])
        assert largest["syn_eqns"] < largest["flat_eqns"]
        assert largest["syn_runtime"] < 1.3 * largest["flat_runtime"], (
            f"{algo}: synthesized extraction should not be slower"
        )
