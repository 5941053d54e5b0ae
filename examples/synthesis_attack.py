#!/usr/bin/env python3
"""Does synthesis hide the field polynomial?  (Spoiler: no.)

A designer might hope that aggressive logic optimization and
technology mapping obfuscate which irreducible polynomial a GF(2^m)
multiplier was built with.  This experiment (the Table III story told
as an attack) runs the extractor against progressively harsher
netlist transformations:

1. lean generator output (AND/XOR),
2. redundancy-decorated "raw generator" output,
3. optimized + mapped to INV/NAND/NOR/XOR cells,
4. mapped to an all-NAND netlist (XORs dissolved into NAND4 patterns),
5. a second synthesis round on top of the all-NAND form.

The polynomial is recovered — in comparable or *less* time — at every
stage, and the per-stage numbers show why: synthesis cannot change the
canonical GF(2) expression of any output bit (Theorem 1), it only
changes how many rewriting iterations it takes to reach it.

Run:  python examples/synthesis_attack.py
"""

from repro.analysis.instrument import measure
from repro.analysis.tables import Table
from repro.extract.extractor import extract_irreducible_polynomial
from repro.fieldmath.bitpoly import bitpoly_str
from repro.gen.montgomery import generate_montgomery
from repro.gen.redundancy import decorate_with_redundancy
from repro.synth.pipeline import synthesize

SECRET = (1 << 16) | (1 << 5) | (1 << 3) | (1 << 2) | 1  # x^16+x^5+x^3+x^2+1


def main() -> None:
    lean = generate_montgomery(SECRET, name="lean")
    raw = decorate_with_redundancy(lean)
    raw.name = "raw-generator"
    mapped = synthesize(raw)
    mapped.name = "mapped-xor-cells"
    nand_only = synthesize(raw, use_xor_cells=False)
    nand_only.name = "mapped-all-nand"
    double = synthesize(nand_only)
    double.name = "synthesized-twice"

    table = Table(
        ["netlist", "# eqns", "cell types", "extract (s)",
         "peak terms", "recovered P(x)"],
        title=f"extraction vs obfuscation (secret: {bitpoly_str(SECRET)})",
    )
    for netlist in (lean, raw, mapped, nand_only, double):
        measured = measure(
            lambda nl=netlist: extract_irreducible_polynomial(nl),
            track_memory=False,
        )
        result = measured.value
        assert result.modulus == SECRET, f"{netlist.name}: extraction failed!"
        cells = ",".join(
            sorted({gate.gtype.value for gate in netlist.gates})
        )
        table.add_row(
            [netlist.name, len(netlist), cells, measured.wall_s,
             result.run.peak_terms, result.polynomial_str]
        )
    print(table.render())
    print(
        "\nConclusion: every transformation preserved the canonical "
        "per-bit expressions,\nso Algorithm 2 recovered the polynomial "
        "from all five netlists."
    )


if __name__ == "__main__":
    main()
