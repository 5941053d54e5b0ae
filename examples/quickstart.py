#!/usr/bin/env python3
"""Quickstart — recover P(x) from a multiplier you did not build.

Builds a GF(2^8) multiplier from the AES field polynomial, pretends we
never knew the polynomial, reverse engineers it from the gate-level
netlist, and verifies the design against the recovered golden model.

Run:  python examples/quickstart.py
"""

from repro import (
    bitpoly_parse,
    extract_irreducible_polynomial,
    format_extraction_report,
    generate_mastrovito,
    verify_multiplier,
)


def main() -> None:
    # 1. Somebody builds a multiplier.  (AES uses x^8+x^4+x^3+x+1.)
    secret_polynomial = bitpoly_parse("x^8 + x^4 + x^3 + x + 1")
    netlist = generate_mastrovito(secret_polynomial)
    print(
        f"netlist under analysis: {len(netlist)} gates, "
        f"{len(netlist.inputs)} inputs, {len(netlist.outputs)} outputs"
    )

    # 2. We receive only the netlist and recover the polynomial
    #    (Algorithm 1 + Algorithm 2 of the paper).
    result = extract_irreducible_polynomial(netlist)
    print(f"\nextracted: P(x) = {result.polynomial_str}")
    assert result.modulus == secret_polynomial

    # 3. Verify the implementation against the golden model built from
    #    the extracted polynomial.
    report = verify_multiplier(netlist, result)
    print(f"verification: {report}\n")

    # 4. Full report, as the CLI's `repro audit` would print it.
    print(format_extraction_report(result, report, netlist_gates=len(netlist)))


if __name__ == "__main__":
    main()
