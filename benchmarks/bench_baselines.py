"""Motivation baselines — Sections I-II of the paper made measurable.

Three claims are benchmarked:

1. Gröbner-style verification [1] *with a known P(x)* scales like our
   rewriting (it is the same reduction), but cannot run at all without
   P(x) — extraction supplies the missing input.
2. SAT-based equivalence checking of GF multipliers blows up rapidly
   with m (XOR-dominated miters are resolution-hard).
3. BDD node counts for multiplier outputs grow steeply with m for a
   standard interleaved order.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import emit, sizes
from repro.analysis.instrument import measure
from repro.analysis.tables import Table
from repro.baselines.bdd import build_output_bdds
from repro.baselines.groebner import verify_known_polynomial
from repro.baselines.sat import equivalence_check_sat
from repro.extract.extractor import extract_irreducible_polynomial
from repro.fieldmath.irreducible import default_irreducible
from repro.gen.mastrovito import generate_mastrovito
from repro.gen.montgomery import generate_montgomery

#: Full paper-scale harness - excluded from quick CI runs.
pytestmark = pytest.mark.slow

GROEBNER_SIZES = sizes(quick=[4, 8], default=[8, 16, 32], paper=[16, 32, 64])
SAT_SIZES = sizes(quick=[2, 3], default=[2, 3, 4], paper=[3, 4, 5])
BDD_SIZES = sizes(quick=[4, 6], default=[4, 6, 8, 10], paper=[6, 8, 10, 12])

_GROEBNER_ROWS = []
_SAT_ROWS = []
_BDD_ROWS = []


@pytest.mark.parametrize("m", GROEBNER_SIZES)
def test_groebner_verification_with_known_p(benchmark, m):
    modulus = default_irreducible(m)
    netlist = generate_mastrovito(modulus)

    report = benchmark.pedantic(
        lambda: verify_known_polynomial(netlist, modulus),
        rounds=1,
        iterations=1,
    )
    assert report.verified
    extraction = extract_irreducible_polynomial(netlist, engine="reference")
    assert extraction.modulus == modulus
    _GROEBNER_ROWS.append(
        {
            "m": m,
            "groebner_s": report.runtime_s,
            "extract_s": extraction.total_time_s,
            "reductions": report.reductions,
        }
    )


@pytest.mark.parametrize("m", SAT_SIZES)
def test_sat_miter_equivalence(benchmark, m):
    modulus = default_irreducible(m)
    golden = generate_mastrovito(modulus)
    candidate = generate_montgomery(modulus)

    equivalent, result = benchmark.pedantic(
        lambda: equivalence_check_sat(golden, candidate),
        rounds=1,
        iterations=1,
    )
    assert equivalent
    _SAT_ROWS.append(
        {
            "m": m,
            "runtime_s": result.runtime_s,
            "decisions": result.decisions,
            "propagations": result.propagations,
        }
    )


@pytest.mark.parametrize("m", BDD_SIZES)
def test_bdd_blowup(benchmark, m):
    modulus = default_irreducible(m)
    netlist = generate_mastrovito(modulus)

    def build():
        manager, outputs = build_output_bdds(netlist)
        return max(manager.node_count(node) for node in outputs.values())

    measured = measure(
        lambda: benchmark.pedantic(build, rounds=1, iterations=1)
    )
    _BDD_ROWS.append(
        {"m": m, "max_nodes": measured.value, "runtime_s": measured.wall_s}
    )


def test_baselines_report():
    assert _GROEBNER_ROWS and _SAT_ROWS and _BDD_ROWS

    groebner = Table(
        ["m", "Groebner verify (known P) s", "extraction (recovers P) s",
         "division steps"],
        title="Baseline 1: [1]-style ideal membership vs our extraction",
    )
    for row in sorted(_GROEBNER_ROWS, key=lambda r: r["m"]):
        groebner.add_row(
            [row["m"], row["groebner_s"], row["extract_s"],
             row["reductions"]]
        )

    sat = Table(
        ["m", "miter runtime (s)", "decisions", "propagations"],
        title="Baseline 2: DPLL SAT equivalence of GF multipliers",
    )
    for row in sorted(_SAT_ROWS, key=lambda r: r["m"]):
        sat.add_row(
            [row["m"], row["runtime_s"], row["decisions"],
             row["propagations"]]
        )

    bdd = Table(
        ["m", "max output BDD nodes", "build time (s)"],
        title="Baseline 3: ROBDD size of multiplier outputs",
    )
    for row in sorted(_BDD_ROWS, key=lambda r: r["m"]):
        bdd.add_row([row["m"], row["max_nodes"], row["runtime_s"]])

    emit(
        "baselines",
        "\n\n".join([groebner.render(), sat.render(), bdd.render()]),
    )

    # Shape: SAT decisions and BDD nodes blow up superlinearly.
    sat_sorted = sorted(_SAT_ROWS, key=lambda r: r["m"])
    if len(sat_sorted) >= 2:
        first, last = sat_sorted[0], sat_sorted[-1]
        assert last["decisions"] > 2 * first["decisions"]
    bdd_sorted = sorted(_BDD_ROWS, key=lambda r: r["m"])
    first, last = bdd_sorted[0], bdd_sorted[-1]
    assert last["max_nodes"] / first["max_nodes"] > (
        last["m"] / first["m"]
    ) ** 2, "BDD nodes must grow superquadratically"
