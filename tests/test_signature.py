"""Tests for output/input signatures and specification expressions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fieldmath.bitpoly import bitpoly_degree, bitpoly_mod
from repro.fieldmath.gf2m import GF2m
from repro.fieldmath.polynomial_db import NIST_POLYNOMIALS, PAPER_POLYNOMIALS
from repro.gf2.polynomial import Gf2Poly
from repro.gf2.parse import parse_poly
from repro.rewrite.signature import (
    output_signature,
    spec_expression,
    spec_expressions,
)


class TestOutputSignature:
    def test_shape(self):
        sig = output_signature(4)
        assert set(sig) == {0, 1, 2, 3}
        assert str(sig[2]) == "z2"


class TestSpecExpressions:
    def test_paper_gf4_example(self):
        """Section II-C lists z0..z3 for P2 = x^4 + x + 1 (in s_k form);
        expanded to products they must match spec_expressions."""
        spec = spec_expressions(0b10011)
        # z0 = s0 + s4 = a0b0 + (a1b3 + a2b2 + a3b1)
        assert spec[0] == parse_poly(
            "a0*b0 + a1*b3 + a2*b2 + a3*b1"
        )
        # z2 as printed in the paper (Section II-C).
        assert spec[2] == parse_poly(
            "a0*b2 + a1*b1 + a2*b0 + a2*b3 + a3*b2 + a3*b3"
        )
        # z3 as printed in the paper.
        assert spec[3] == parse_poly(
            "a0*b3 + a1*b2 + a2*b1 + a3*b0 + a3*b3"
        )

    def test_gf2_example(self):
        spec = spec_expressions(0b111)
        assert spec[0] == parse_poly("a0*b0 + a1*b1")
        assert spec[1] == parse_poly("a0*b1 + a1*b0 + a1*b1")

    def test_single_bit_matches_full(self):
        modulus = 0b11001
        full = spec_expressions(modulus)
        for bit in range(4):
            assert spec_expression(modulus, bit) == full[bit]

    def test_bit_out_of_range(self):
        with pytest.raises(ValueError):
            spec_expression(0b111, 5)

    def test_spec_evaluates_to_field_product(self):
        """The symbolic spec agrees with GF2m.mul pointwise."""
        modulus = 0b1011
        field = GF2m(modulus)
        spec = spec_expressions(modulus)
        for a_value in range(8):
            for b_value in range(8):
                env = {f"a{i}": (a_value >> i) & 1 for i in range(3)}
                env.update({f"b{i}": (b_value >> i) & 1 for i in range(3)})
                product = field.mul(a_value, b_value)
                for bit in range(3):
                    assert spec[bit].evaluate(env) == (product >> bit) & 1

    def test_custom_prefixes(self):
        spec = spec_expression(0b111, 0, a_prefix="u", b_prefix="v")
        assert spec == parse_poly("u0*v0 + u1*v1")


# The dense loops the sparse ones replaced, kept verbatim as the oracle.


def dense_spec_expression(modulus, bit, a_prefix="a", b_prefix="b"):
    m = bitpoly_degree(modulus)
    if not 0 <= bit < m:
        raise ValueError(f"bit {bit} out of range for GF(2^{m})")
    monomials = set()
    for j in range(m):
        for k in range(m):
            if (bitpoly_mod(1 << (j + k), modulus) >> bit) & 1:
                monomials.add(frozenset({f"{a_prefix}{j}", f"{b_prefix}{k}"}))
    return Gf2Poly.from_monomials(monomials)


def dense_spec_expressions(modulus, a_prefix="a", b_prefix="b"):
    m = bitpoly_degree(modulus)
    reduced = [bitpoly_mod(1 << deg, modulus) for deg in range(2 * m - 1)]
    buckets = [set() for _ in range(m)]
    for j in range(m):
        for k in range(m):
            row = reduced[j + k]
            mono = frozenset({f"{a_prefix}{j}", f"{b_prefix}{k}"})
            for bit in range(m):
                if (row >> bit) & 1:
                    bucket = buckets[bit]
                    if mono in bucket:
                        bucket.discard(mono)
                    else:
                        bucket.add(mono)
    return [Gf2Poly.from_monomials(bucket) for bucket in buckets]


#: The paper's moduli: x^4+x+1 (Section II-C), the AES x^8+x^4+x^3+x+1,
#: the m=64 pentanomial of Tables I/II and the B-163 curve polynomial,
#: plus the densest degree-8 modulus (every coefficient set).
PAPER_MODULI = [
    0b10011,
    0x11B,
    PAPER_POLYNOMIALS[64],
    NIST_POLYNOMIALS[163],
    0b111111111,
]


class TestSparseSpecMatchesDenseLoop:
    @pytest.mark.parametrize("modulus", PAPER_MODULI, ids=bitpoly_degree)
    def test_all_bits(self, modulus):
        assert spec_expressions(modulus) == dense_spec_expressions(modulus)

    @pytest.mark.parametrize("modulus", PAPER_MODULI, ids=bitpoly_degree)
    def test_single_bits(self, modulus):
        m = bitpoly_degree(modulus)
        for bit in sorted({0, 1, m // 2, m - 1}):
            assert spec_expression(modulus, bit) == dense_spec_expression(
                modulus, bit
            )

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=20),
        low=st.integers(min_value=0, max_value=(1 << 20) - 1),
        prefixes=st.sampled_from([("a", "b"), ("u", "v"), ("a", "a")]),
    )
    def test_drawn_moduli(self, m, low, prefixes):
        """Any degree-m modulus (reducible or not), including shared
        operand prefixes, where partial products cancel in pairs."""
        modulus = (1 << m) | (low & ((1 << m) - 1))
        assert spec_expressions(modulus, *prefixes) == dense_spec_expressions(
            modulus, *prefixes
        )
        for bit in range(m):
            assert spec_expression(
                modulus, bit, *prefixes
            ) == dense_spec_expression(modulus, bit, *prefixes)
