"""Figure 4 — per-output-bit extraction runtime profiles.

Paper: for the four GF(2^233) Table-IV multipliers, the runtime of
extracting each output bit's expression is plotted against the bit
position; the Pentium/MSP430 pentanomials sit well above the ARM/NIST
curves and the profiles ramp up with bit position.

Here: the same series are measured (scaled suite on the default
profile), written as CSV to results/, and rendered as an ASCII scatter
plot.  Asserted shape: the most expensive polynomial's total per-bit
curve dominates the cheapest by a material factor.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import PROFILE, emit, sizes
from repro.analysis.tables import ascii_series_plot
from repro.extract.extractor import extract_irreducible_polynomial
from repro.fieldmath.bitpoly import bitpoly_str
from repro.fieldmath.polynomial_db import (
    arch_optimal_polynomials,
    scaled_arch_suite,
)
from repro.gen.mastrovito import generate_mastrovito

#: Full paper-scale harness - excluded from quick CI runs.
pytestmark = pytest.mark.slow

SCALED_M = sizes(quick=12, default=64, paper=233)

if PROFILE == "paper":
    SUITE = arch_optimal_polynomials()
else:
    SUITE = scaled_arch_suite(SCALED_M)

_SERIES = {}


@pytest.mark.parametrize(
    "name,modulus", SUITE, ids=[name for name, _ in SUITE]
)
def test_figure4_per_bit_runtime(benchmark, name, modulus):
    netlist = generate_mastrovito(modulus)

    def run():
        return extract_irreducible_polynomial(netlist, engine="reference")

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.modulus == modulus
    _SERIES[name] = result.run.per_bit_runtimes()


def test_figure4_report():
    assert _SERIES
    # CSV: bit position, one column per polynomial.
    names = list(_SERIES)
    positions = [pos for pos, _ in _SERIES[names[0]]]
    lines = ["bit," + ",".join(names)]
    for idx, pos in enumerate(positions):
        cells = [str(pos)]
        for name in names:
            cells.append(f"{_SERIES[name][idx][1]:.6f}")
        lines.append(",".join(cells))
    csv_text = "\n".join(lines)

    plot = ascii_series_plot(
        _SERIES,
        x_label="output bit position",
        y_label="extraction runtime per bit (s)",
    )
    emit("figure4_per_bit_runtime", plot + "\n\nCSV:\n" + csv_text)

    # Shape: total cost separates the suite; cheapest vs priciest.
    totals = {
        name: sum(runtime for _, runtime in series)
        for name, series in _SERIES.items()
    }
    cheapest = min(totals.values())
    priciest = max(totals.values())
    if len(totals) >= 3:
        assert priciest > 1.1 * cheapest, totals
