#!/usr/bin/env python3
"""ECC key exchange on a field recovered from silicon.

The scenario the paper's introduction motivates: you hold the
gate-level netlist of a field multiplier ripped out of an ECC
accelerator, but the RTL (and the irreducible polynomial) is long
gone.  To interoperate with the device you must recover P(x) exactly —
a multiplier over the wrong polynomial computes a different function
and no shared secret will ever match.

This example:

1. builds the accelerator's datapath (a Karatsuba multiplier over a
   secret P(x)) and throws the polynomial away;
2. recovers P(x) from the netlist with the paper's Algorithms 1+2;
3. reconstructs the field, instantiates a binary elliptic curve over
   it, and runs an ECDH exchange whose two sides agree — the proof
   that the recovered polynomial is *exactly* right;
4. shows the counterfactual: the same curve over a plausible-but-wrong
   irreducible polynomial of the same degree, where the generator is
   not even a curve point.

Run:  python examples/ecc_key_exchange.py
"""

from repro import (
    GF2m,
    bitpoly_str,
    diagnose,
    extract_irreducible_polynomial,
    generate_karatsuba,
)
from repro.crypto.ecc import BinaryCurve, Point
from repro.fieldmath.irreducible import find_irreducible_trinomials


def main() -> None:
    # ------------------------------------------------------------------
    # 1. The device: a GF(2^9) Karatsuba multiplier over a secret P(x).
    # ------------------------------------------------------------------
    secret = (1 << 9) | (1 << 1) | 1  # x^9 + x + 1, never referenced again
    netlist = generate_karatsuba(secret)
    print(
        f"accelerator datapath: {netlist.name}, {len(netlist)} gates, "
        f"{len(netlist.inputs)} inputs"
    )

    # ------------------------------------------------------------------
    # 2. Recover the polynomial from gates alone.
    # ------------------------------------------------------------------
    result = extract_irreducible_polynomial(netlist)
    print(f"recovered: P(x) = {result.polynomial_str}")
    verdict = diagnose(netlist)
    print(f"diagnosis: {verdict.verdict.value} — {verdict.reason}\n")
    assert verdict.is_clean

    # ------------------------------------------------------------------
    # 3. Rebuild the field and run ECDH over it.
    # ------------------------------------------------------------------
    field = GF2m(result.modulus)
    curve, generator = _find_demo_curve(field)
    order = curve.order_of(generator)
    print(f"curve: {curve!r}")
    print(f"generator {generator}, order {order}")

    alice_private, bob_private = 23, 41
    pub_a, pub_b, shared = curve.diffie_hellman(
        generator, alice_private, bob_private
    )
    shared_bob = curve.scalar_mult(bob_private, pub_a)
    print(f"Alice's public point : {pub_a}")
    print(f"Bob's public point   : {pub_b}")
    print(f"shared secret (Alice): {shared}")
    print(f"shared secret (Bob)  : {shared_bob}")
    assert shared == shared_bob
    print("=> key exchange agrees: the recovered P(x) is exact\n")

    # ------------------------------------------------------------------
    # 4. Counterfactual: a wrong-but-irreducible polynomial fails.
    # ------------------------------------------------------------------
    wrong = next(
        poly
        for poly in find_irreducible_trinomials(field.m)
        if poly != result.modulus
    )
    wrong_field = GF2m(wrong)
    wrong_curve = BinaryCurve(wrong_field, a=curve.a, b=curve.b)
    still_valid = wrong_curve.is_on_curve(
        Point(generator.x, generator.y)
    )
    print(
        f"same curve constants over {bitpoly_str(wrong)}: generator "
        f"{'remains' if still_valid else 'is NOT'} a curve point"
    )
    if not still_valid:
        print("=> guessing the polynomial wrong breaks interoperability")


def _find_demo_curve(field: GF2m):
    """A curve/generator pair with a reasonably large point order."""
    threshold = field.order // 4
    fallback = None
    for a in (0, 1):
        curve = BinaryCurve(field, a=a, b=1)
        for point in curve.enumerate_points()[1:]:
            order = curve.order_of(point)
            if order >= threshold:
                return curve, point
            if fallback is None or order > fallback[2]:
                fallback = (curve, point, order)
    assert fallback is not None
    return fallback[0], fallback[1]


if __name__ == "__main__":
    main()
