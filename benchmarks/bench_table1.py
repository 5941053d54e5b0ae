"""Table I — extracting P(x) from Mastrovito multipliers.

Paper: NIST-recommended polynomials, m = 64..571, C++ with 16 threads;
runtime 9.2 s (m=64) to 4089.9 s (m=571), memory 37 MB to 27.1 GB.

Here: the same construction at profile-scaled bit-widths.  Asserted
shape: extraction recovers P(x) exactly at every size, and runtime and
equation counts grow superlinearly with m.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import emit, sizes
from repro.analysis.instrument import measure
from repro.analysis.tables import Table
from repro.extract.extractor import extract_irreducible_polynomial
from repro.fieldmath.bitpoly import bitpoly_str
from repro.fieldmath.irreducible import default_irreducible
from repro.fieldmath.polynomial_db import PAPER_POLYNOMIALS
from repro.gen.mastrovito import generate_mastrovito

#: Full paper-scale harness - excluded from quick CI runs.
pytestmark = pytest.mark.slow

SIZES = sizes(
    quick=[8, 16],
    default=[16, 32, 64, 96],
    paper=[64, 96, 163, 233],
)

_ROWS = []


def _polynomial_for(m: int) -> int:
    return PAPER_POLYNOMIALS.get(m, default_irreducible(m))


@pytest.mark.parametrize("m", SIZES)
def test_table1_mastrovito(benchmark, m):
    modulus = _polynomial_for(m)
    netlist = generate_mastrovito(modulus)

    def run():
        return extract_irreducible_polynomial(
            netlist, engine="reference", measure_memory=False
        )

    measured = measure(lambda: benchmark.pedantic(run, rounds=1, iterations=1))
    result = measured.value
    assert result.modulus == modulus, "extraction must recover P(x)"
    assert result.irreducible
    _ROWS.append(
        {
            "m": m,
            "poly": bitpoly_str(modulus),
            "eqns": len(netlist),
            "runtime": result.total_time_s,
            "mem": measured.memory_str(),
            "peak_terms": result.run.peak_terms,
        }
    )


def test_table1_report():
    assert _ROWS, "rows collected by the parametrized benchmarks"
    table = Table(
        ["bit-width m", "Irreducible polynomial P(x)", "# eqns",
         "Runtime(s)", "Mem", "peak terms"],
        title="Table I: Mastrovito multipliers, NIST/paper polynomials",
    )
    for row in sorted(_ROWS, key=lambda r: r["m"]):
        table.add_row(
            [row["m"], row["poly"], row["eqns"], row["runtime"],
             row["mem"], row["peak_terms"]]
        )
    emit("table1_mastrovito", table.render())

    ordered = sorted(_ROWS, key=lambda r: r["m"])
    if len(ordered) >= 3:
        # Superlinear growth in both equations and runtime.
        first, last = ordered[0], ordered[-1]
        m_ratio = last["m"] / first["m"]
        assert last["eqns"] / first["eqns"] > m_ratio
        assert last["runtime"] / max(first["runtime"], 1e-9) > m_ratio
