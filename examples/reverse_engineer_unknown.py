#!/usr/bin/env python3
"""Blind reverse engineering of an anonymous vendor netlist.

Scenario: a security evaluator receives a flattened, synthesized,
technology-mapped netlist file claimed to be "a GF(2^m) multiplier"
— no algorithm, no field polynomial, no block boundaries.  The
evaluator must determine:

1. which irreducible polynomial the field was constructed with,
2. whether the design actually computes A*B mod P(x), and
3. whether the polynomial matches a published standard (NIST).

This script plays both sides: a "vendor" process fabricates the
netlist (Montgomery algorithm, synthesized, redundancy + mapping, with
a randomly drawn polynomial), writes it to a file and forgets it; the
"evaluator" reads the file and recovers everything.

Run:  python examples/reverse_engineer_unknown.py
"""

import random
import tempfile
from pathlib import Path

from repro import (
    bitpoly_str,
    extract_irreducible_polynomial,
    format_extraction_report,
    read_eqn,
    verify_multiplier,
    write_eqn,
)
from repro.fieldmath.irreducible import (
    find_irreducible_pentanomials,
    find_irreducible_trinomials,
)
from repro.fieldmath.polynomial_db import NIST_POLYNOMIALS, PAPER_POLYNOMIALS
from repro.gen.montgomery import generate_montgomery
from repro.gen.redundancy import decorate_with_redundancy
from repro.synth.pipeline import synthesize


def vendor_builds_netlist(path: Path, rng: random.Random) -> None:
    """The vendor side: pick a secret P(x), emit a mapped netlist."""
    m = rng.choice([10, 12, 14, 16])
    candidates = (
        find_irreducible_trinomials(m)
        + find_irreducible_pentanomials(m, limit=4)
    )
    secret = rng.choice(candidates)
    netlist = synthesize(
        decorate_with_redundancy(
            generate_montgomery(secret), seed=rng.randint(0, 2**31)
        )
    )
    netlist.name = "vendor_ip_block"
    write_eqn(netlist, path)
    print(
        f"[vendor]    wrote {path.name}: GF(2^{m}) multiplier, "
        f"{len(netlist)} mapped cells (polynomial withheld)"
    )


def evaluator_analyzes(path: Path) -> None:
    """The evaluator side: recover P(x) and audit the design."""
    netlist = read_eqn(path)
    m = len(netlist.outputs)
    print(f"[evaluator] loaded {path.name}: GF(2^{m}), {len(netlist)} cells")

    result = extract_irreducible_polynomial(netlist)
    print(f"[evaluator] recovered P(x) = {result.polynomial_str}")

    report = verify_multiplier(netlist, result)
    print(f"[evaluator] {report}")

    known = {poly: f"NIST GF(2^{m_})" for m_, poly in NIST_POLYNOMIALS.items()}
    known.update(
        {poly: f"paper Table I GF(2^{m_})"
         for m_, poly in PAPER_POLYNOMIALS.items()}
    )
    provenance = known.get(result.modulus, "not a published standard")
    print(f"[evaluator] polynomial provenance: {provenance}")
    print()
    print(format_extraction_report(result, report, netlist_gates=len(netlist)))
    if not report.equivalent:
        raise SystemExit("netlist is NOT a GF multiplier for any P(x)")


def main() -> None:
    rng = random.Random(20170327)  # DATE 2017 conference date
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "vendor_ip.eqn"
        vendor_builds_netlist(path, rng)
        evaluator_analyzes(path)


if __name__ == "__main__":
    main()
