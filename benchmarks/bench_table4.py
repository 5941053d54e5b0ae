"""Table IV — extraction cost versus the choice of P(x) at fixed m.

Paper: four GF(2^233) Mastrovito multipliers built from Scott's
architecture-optimal polynomials; extraction runtime spans 233.7 s
(ARM trinomial) to 546.7 s (Intel-Pentium pentanomial) and memory
4.8 GB to 11.7 GB — the point being that P(x) alone changes the cost
by >2x because the number of XORs in the reduction differs.

Here: the paper profile runs the real GF(2^233) suite; the default
profile runs a structurally analogous suite (trinomial, low
pentanomial, high-exponent pentanomials) at a scaled bit-width.
Asserted shape: every suite member is recovered exactly, and the
cheapest/most expensive polynomials differ in runtime by a material
factor with the trinomial among the cheapest.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import PROFILE, emit, sizes
from repro.analysis.instrument import measure
from repro.analysis.tables import Table
from repro.extract.extractor import extract_irreducible_polynomial
from repro.fieldmath.bitpoly import bitpoly_str
from repro.fieldmath.polynomial_db import (
    arch_optimal_polynomials,
    scaled_arch_suite,
)
from repro.fieldmath.reduction import reduction_xor_cost
from repro.gen.mastrovito import generate_mastrovito

#: Full paper-scale harness - excluded from quick CI runs.
pytestmark = pytest.mark.slow

SCALED_M = sizes(quick=12, default=64, paper=233)


def _suite():
    if PROFILE == "paper":
        return arch_optimal_polynomials()
    return scaled_arch_suite(SCALED_M)


SUITE = _suite()
_ROWS = []


@pytest.mark.parametrize(
    "name,modulus", SUITE, ids=[name for name, _ in SUITE]
)
def test_table4_polynomial_choice(benchmark, name, modulus):
    netlist = generate_mastrovito(modulus)

    def run():
        return extract_irreducible_polynomial(netlist, engine="reference")

    measured = measure(lambda: benchmark.pedantic(run, rounds=1, iterations=1))
    result = measured.value
    assert result.modulus == modulus
    _ROWS.append(
        {
            "name": name,
            "poly": bitpoly_str(modulus),
            "weight": bin(modulus).count("1"),
            "red_xors": reduction_xor_cost(modulus),
            "eqns": len(netlist),
            "runtime": result.total_time_s,
            "mem": measured.memory_str(),
        }
    )


def test_table4_report():
    assert _ROWS
    table = Table(
        ["Optimal P(x) for", "P(x)", "reduction XORs", "# eqns",
         "Runtime(s)", "Mem"],
        title=f"Table IV: GF(2^{SCALED_M if PROFILE != 'paper' else 233}) "
              "Mastrovito multipliers, different P(x)",
    )
    for row in _ROWS:
        table.add_row(
            [row["name"], row["poly"], row["red_xors"], row["eqns"],
             row["runtime"], row["mem"]]
        )
    emit("table4_polynomial_choice", table.render())

    # Shape assertions.
    by_runtime = sorted(_ROWS, key=lambda r: r["runtime"])
    cheapest, priciest = by_runtime[0], by_runtime[-1]
    if len(_ROWS) >= 3:
        assert priciest["runtime"] > 1.1 * cheapest["runtime"], (
            "P(x) choice must change extraction cost materially "
            f"({cheapest['name']} vs {priciest['name']})"
        )
        # More reduction XORs => more equations to rewrite.
        by_xors = sorted(_ROWS, key=lambda r: r["red_xors"])
        assert by_xors[0]["eqns"] <= by_xors[-1]["eqns"]
        # The trinomial rows (weight 3) are among the cheaper half.
        trinomials = [r for r in _ROWS if r["weight"] == 3]
        if trinomials:
            median = by_runtime[len(by_runtime) // 2]["runtime"]
            assert min(t["runtime"] for t in trinomials) <= median
