"""Table II — extracting P(x) from flattened Montgomery multipliers.

Paper: same NIST polynomials, m = 64..409; Montgomery extraction is
far more expensive than Mastrovito (42.2 s vs 9.2 s at m=64; 21520 s
vs 704.5 s at m=283) and the m=409 instance runs out of 32 GB ("MO").

Here: flattened two-step Montgomery netlists at profile-scaled sizes,
plus an explicit memory-out demonstration using a term-count budget.
Asserted shape: extraction still recovers P(x); Montgomery costs a
multiple of Mastrovito at equal m; an undersized memory budget
produces the paper's MO outcome.
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
from repro.gen.montgomery import generate_montgomery
from repro.rewrite.backward import TermLimitExceeded

#: Full paper-scale harness - excluded from quick CI runs.
pytestmark = pytest.mark.slow

SIZES = sizes(
    quick=[8, 12],
    default=[16, 32, 48, 64],
    paper=[64, 96, 128, 163],
)

_ROWS = []


def _polynomial_for(m: int) -> int:
    return PAPER_POLYNOMIALS.get(m, default_irreducible(m))


@pytest.mark.parametrize("m", SIZES)
def test_table2_montgomery(benchmark, m):
    modulus = _polynomial_for(m)
    netlist = generate_montgomery(modulus)

    def run():
        return extract_irreducible_polynomial(netlist, engine="reference")

    measured = measure(lambda: benchmark.pedantic(run, rounds=1, iterations=1))
    result = measured.value
    assert result.modulus == modulus
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


def test_table2_memory_out():
    """The paper's MO row: a bounded memory budget aborts extraction.

    We model the 32 GB budget as a term-count budget far below what
    the Montgomery rewriting needs at this size.
    """
    m = SIZES[-1]
    modulus = _polynomial_for(m)
    netlist = generate_montgomery(modulus)
    with pytest.raises(TermLimitExceeded):
        extract_irreducible_polynomial(netlist, engine="reference", term_limit=8)
    _ROWS.append(
        {
            "m": m,
            "poly": bitpoly_str(modulus),
            "eqns": len(netlist),
            "runtime": float("nan"),
            "mem": "MO (term budget)",
            "peak_terms": 0,
        }
    )


def test_table2_report():
    assert _ROWS
    table = Table(
        ["bit-width m", "Irreducible polynomial P(x)", "# eqns",
         "Runtime(s)", "Mem", "peak terms"],
        title="Table II: flattened Montgomery multipliers "
              "(MO = memory budget exceeded)",
    )
    for row in sorted(_ROWS, key=lambda r: (r["m"], r["mem"])):
        runtime = row["runtime"]
        table.add_row(
            [row["m"], row["poly"], row["eqns"],
             "-" if runtime != runtime else runtime,
             row["mem"], row["peak_terms"]]
        )
    emit("table2_montgomery", table.render())

    # Shape: Montgomery extraction is slower than Mastrovito at the
    # largest common size (paper: 4.6x at m=64).
    m = SIZES[-1]
    modulus = _polynomial_for(m)
    mont_row = next(
        r for r in _ROWS if r["m"] == m and r["runtime"] == r["runtime"]
    )
    mast = extract_irreducible_polynomial(
        generate_mastrovito(modulus), engine="reference"
    )
    assert mont_row["runtime"] > 1.5 * mast.total_time_s, (
        "Montgomery extraction must cost a multiple of Mastrovito"
    )
