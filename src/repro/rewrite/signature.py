"""Output and input signatures of a GF(2^m) multiplier.

Section III-B: the *output signature* is ``Sig_out = Σ z_i x^i`` and
the *input signature* is the word-level specification expressed per
power of x — for a multiplier built with irreducible polynomial P(x),
the coefficient of ``x^i`` is the canonical GF(2) expression of output
bit ``z_i`` of ``A·B mod P(x)``.

Backward rewriting transforms Sig_out into a polynomial over primary
inputs; verification then checks it equals the input signature.  These
helpers compute the specification side from P(x) — the "golden
implementation constructed using the extracted irreducible polynomial"
of the paper's abstract, in canonical algebraic form.
"""

from __future__ import annotations

from typing import Dict, List

from repro.fieldmath.bitpoly import bitpoly_degree
from repro.gf2.polynomial import Gf2Poly


def output_signature(m: int, prefix: str = "z") -> Dict[int, Gf2Poly]:
    """``Sig_out`` as a map ``degree -> coefficient polynomial``.

    >>> sig = output_signature(2)
    >>> str(sig[1])
    'z1'
    """
    return {i: Gf2Poly.variable(f"{prefix}{i}") for i in range(m)}


def _reduction_bits(modulus: int, m: int) -> List[List[int]]:
    """Set bits of ``x^d mod P(x)`` for every degree ``d < 2m - 1``.

    Row ``d`` lists the output bits the partial products ``a_j·b_k``
    with ``j + k = d`` land in.  Each row is the previous one shifted
    once and reduced when it reaches ``x^m``.
    """
    rows = []
    row = 1
    for _ in range(2 * m - 1):
        rows.append([bit for bit in range(m) if (row >> bit) & 1])
        row <<= 1
        if (row >> m) & 1:
            row ^= modulus
    return rows


def spec_expression(
    modulus: int,
    bit: int,
    a_prefix: str = "a",
    b_prefix: str = "b",
) -> Gf2Poly:
    """Canonical expression of output bit ``z_bit`` of ``A·B mod P``.

    The coefficient of ``x^bit`` after reducing the double product:
    the XOR of every partial product ``a_j·b_k`` whose reduced weight
    ``x^{j+k} mod P(x)`` covers ``x^bit``.

    >>> str(spec_expression(0b111, 0))        # GF(2^2), x^2+x+1
    'a0*b0 + a1*b1'
    """
    m = bitpoly_degree(modulus)
    if not 0 <= bit < m:
        raise ValueError(f"bit {bit} out of range for GF(2^{m})")
    covers = [bit in row for row in _reduction_bits(modulus, m)]
    monomials = set()
    for j in range(m):
        for k in range(m):
            if covers[j + k]:
                monomials.add(frozenset({f"{a_prefix}{j}", f"{b_prefix}{k}"}))
    return Gf2Poly.from_monomials(monomials)


def spec_expressions(
    modulus: int,
    a_prefix: str = "a",
    b_prefix: str = "b",
) -> List[Gf2Poly]:
    """Specification expressions for all m output bits (the input
    signature, coefficient by coefficient).

    Each partial product visits only the set bits of its reduced
    weight, so the cost follows the weight of the reduction rows
    rather than m per pair.
    """
    m = bitpoly_degree(modulus)
    rows = _reduction_bits(modulus, m)
    buckets: List[set] = [set() for _ in range(m)]
    for j in range(m):
        for k in range(m):
            mono = frozenset({f"{a_prefix}{j}", f"{b_prefix}{k}"})
            for bit in rows[j + k]:
                bucket = buckets[bit]
                if mono in bucket:
                    bucket.discard(mono)
                else:
                    bucket.add(mono)
    return [Gf2Poly.from_monomials(bucket) for bucket in buckets]
