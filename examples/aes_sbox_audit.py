#!/usr/bin/env python3
"""Auditing an AES datapath: recover the byte field, rebuild SubBytes.

AES hardware contains GF(2^8) multipliers and inverters over the fixed
polynomial ``x^8 + x^4 + x^3 + x + 1``.  An auditor holding only the
gate-level multiplier can use the paper's technique to (a) confirm the
design really uses the AES polynomial, and (b) regenerate the S-box
and MixColumns tables from the recovered field — if the recovered
polynomial were even one term off, the S-box would disagree with
FIPS-197 on essentially every byte.

The example also audits a *counterfeit* datapath built over 0x11D (a
different irreducible byte polynomial): the extractor exposes it
immediately, and the comparison shows how many S-box entries such a
part would corrupt.

Run:  python examples/aes_sbox_audit.py
"""

from repro import (
    GF2m,
    diagnose,
    extract_irreducible_polynomial,
    generate_interleaved,
)
from repro.crypto.aes_field import (
    AES_MODULUS,
    mix_column,
    sbox_table,
)


def main() -> None:
    # ------------------------------------------------------------------
    # 1. The genuine part: an unrolled serial multiplier over 0x11B.
    # ------------------------------------------------------------------
    genuine = generate_interleaved(AES_MODULUS, name="aes_mul_genuine")
    result = extract_irreducible_polynomial(genuine)
    print(f"genuine part : recovered P(x) = {result.polynomial_str}")
    print(f"               verdict = {diagnose(genuine).verdict.value}")
    assert result.modulus == AES_MODULUS

    # Rebuild SubBytes from the *recovered* polynomial.
    recovered_field = GF2m(result.modulus)
    rebuilt = sbox_table(recovered_field)
    reference = sbox_table()
    matches = sum(a == b for a, b in zip(rebuilt, reference))
    print(f"               S-box rebuilt from recovered field: "
          f"{matches}/256 entries match FIPS-197")
    assert matches == 256

    column = [0xDB, 0x13, 0x53, 0x45]
    print(f"               MixColumns({[hex(b) for b in column]}) = "
          f"{[hex(b) for b in mix_column(column, recovered_field)]}\n")

    # ------------------------------------------------------------------
    # 2. The counterfeit: same architecture, wrong byte field (0x11D).
    # ------------------------------------------------------------------
    counterfeit = generate_interleaved(0x11D, name="aes_mul_counterfeit")
    result_bad = extract_irreducible_polynomial(counterfeit)
    print(f"counterfeit  : recovered P(x) = {result_bad.polynomial_str}")
    assert result_bad.modulus != AES_MODULUS
    print("               => flagged: not the AES polynomial")

    wrong_field = GF2m(result_bad.modulus)
    corrupted = sbox_table(wrong_field)
    corrupt_count = sum(
        a != b for a, b in zip(corrupted, reference)
    )
    print(f"               S-box over the counterfeit field corrupts "
          f"{corrupt_count}/256 entries")


if __name__ == "__main__":
    main()
