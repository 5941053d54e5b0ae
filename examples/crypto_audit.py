#!/usr/bin/env python3
"""Audit a portfolio of crypto-accelerator multipliers.

Scenario from the paper's introduction: GF(2^m) multipliers sit inside
ECC and AES hardware, each built with *some* irreducible polynomial
chosen for the target architecture (Scott [3]); for a fixed field size
many polynomials are in circulation.  This audit:

1. reverse engineers P(x) for every multiplier in a portfolio
   (different algorithms, different field sizes, different P(x));
2. verifies each against its golden model;
3. compares the XOR cost of the recovered polynomials against the
   cheapest available trinomial/pentanomial for the same field size
   (the Section II-D / Table IV analysis).

Run:  python examples/crypto_audit.py
"""

from repro.analysis.tables import Table
from repro.analysis.xor_count import xor_cost_comparison
from repro.extract.extractor import extract_irreducible_polynomial
from repro.extract.verify import verify_multiplier
from repro.fieldmath.bitpoly import bitpoly_str
from repro.fieldmath.irreducible import (
    find_irreducible_pentanomials,
    find_irreducible_trinomials,
)
from repro.fieldmath.reduction import reduction_xor_cost
from repro.gen.mastrovito import generate_mastrovito
from repro.gen.montgomery import generate_montgomery
from repro.gen.schoolbook import generate_schoolbook


#: The audit portfolio: (label, generator, P(x)).  In a real audit the
#: netlists arrive as files; here we fabricate them in-process.
PORTFOLIO = [
    ("ecc-core-a", generate_mastrovito, (1 << 16) | (1 << 5) | (1 << 3)
     | (1 << 2) | 1),
    ("ecc-core-b", generate_montgomery, (1 << 16) | (1 << 9) | (1 << 8)
     | (1 << 7) | 1),
    ("aes-like", generate_schoolbook, 0x11B),
    ("dsp-filter", generate_mastrovito, (1 << 15) | (1 << 1) | 1),
    ("legacy-ip", generate_montgomery, (1 << 12) | (1 << 6) | (1 << 4)
     | (1 << 1) | 1),
]


def cheapest_alternative(m: int) -> int:
    """The cheapest-by-reduction-XORs standard-form polynomial."""
    candidates = find_irreducible_trinomials(m) or (
        find_irreducible_pentanomials(m, limit=8)
    )
    return min(candidates, key=reduction_xor_cost)


def main() -> None:
    table = Table(
        ["block", "m", "recovered P(x)", "verified", "reduction XORs",
         "cheapest alt XORs", "verdict"],
        title="crypto multiplier audit",
    )
    recovered = {}
    for label, generator, modulus in PORTFOLIO:
        netlist = generator(modulus, name=label)
        result = extract_irreducible_polynomial(netlist)
        report = verify_multiplier(netlist, result, random_vectors=64)
        assert result.modulus == modulus, "audit must recover the truth"
        recovered[label] = result.modulus

        own_cost = reduction_xor_cost(result.modulus)
        best = cheapest_alternative(result.m)
        best_cost = reduction_xor_cost(best)
        verdict = "optimal" if own_cost <= best_cost else (
            f"suboptimal (+{own_cost - best_cost} XORs)"
        )
        table.add_row(
            [label, result.m, result.polynomial_str,
             "yes" if report.equivalent else "NO",
             own_cost, best_cost, verdict]
        )
    print(table.render())

    print()
    print("Per-architecture comparison for the GF(2^16) blocks:")
    print(
        xor_cost_comparison(
            {
                label: modulus
                for label, modulus in recovered.items()
                if modulus.bit_length() - 1 == 16
            }
        ).render()
    )


if __name__ == "__main__":
    main()
