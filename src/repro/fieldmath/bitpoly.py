"""Univariate polynomials over GF(2) as integer bit masks.

Bit ``i`` of the integer is the coefficient of ``x^i``:

>>> bitpoly_str(0b10011)
'x^4 + x + 1'

All functions are pure and operate on plain ``int`` values, which keeps
them trivially usable inside forked campaign workers and benchmark
loops.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple


def bitpoly_degree(poly: int) -> int:
    """Degree of the polynomial; the zero polynomial has degree -1."""
    return poly.bit_length() - 1


def bitpoly_from_exponents(exponents: Iterable[int]) -> int:
    """Build a polynomial from its exponent list.

    >>> bitpoly_from_exponents([4, 1, 0]) == 0b10011
    True
    """
    poly = 0
    for exp in exponents:
        if exp < 0:
            raise ValueError(f"negative exponent {exp}")
        poly ^= 1 << exp
    return poly


def bitpoly_to_exponents(poly: int) -> List[int]:
    """Exponents with coefficient 1, descending.

    >>> bitpoly_to_exponents(0b10011)
    [4, 1, 0]
    """
    out = []
    idx = poly.bit_length() - 1
    while idx >= 0:
        if (poly >> idx) & 1:
            out.append(idx)
        idx -= 1
    return out


def bitpoly_mul(lhs: int, rhs: int) -> int:
    """Carry-less product of two GF(2)[x] polynomials.

    Iterates over the set bits of the smaller operand.
    """
    if lhs.bit_count() > rhs.bit_count():
        lhs, rhs = rhs, lhs
    acc = 0
    while lhs:
        low = lhs & -lhs
        acc ^= rhs * low  # multiplying by a power of two is a shift
        lhs ^= low
    return acc


def bitpoly_divmod(dividend: int, divisor: int) -> Tuple[int, int]:
    """Quotient and remainder of polynomial division over GF(2).

    >>> q, r = bitpoly_divmod(0b10011, 0b111)
    >>> bitpoly_mod(bitpoly_mul(q, 0b111) ^ r, 1 << 60) == 0b10011
    True
    """
    if divisor == 0:
        raise ZeroDivisionError("polynomial division by zero")
    deg_divisor = bitpoly_degree(divisor)
    quotient = 0
    remainder = dividend
    deg_rem = bitpoly_degree(remainder)
    while deg_rem >= deg_divisor:
        shift = deg_rem - deg_divisor
        quotient ^= 1 << shift
        remainder ^= divisor << shift
        deg_rem = bitpoly_degree(remainder)
    return quotient, remainder


def bitpoly_mod(poly: int, modulus: int) -> int:
    """Remainder of ``poly`` modulo ``modulus`` over GF(2)."""
    if modulus == 0:
        raise ZeroDivisionError("polynomial reduction by zero")
    deg_mod = bitpoly_degree(modulus)
    deg = bitpoly_degree(poly)
    while deg >= deg_mod:
        poly ^= modulus << (deg - deg_mod)
        deg = bitpoly_degree(poly)
    return poly


def bitpoly_mulmod(lhs: int, rhs: int, modulus: int) -> int:
    """``lhs * rhs mod modulus`` over GF(2)[x]."""
    return bitpoly_mod(bitpoly_mul(lhs, rhs), modulus)


def bitpoly_powmod(base: int, exponent: int, modulus: int) -> int:
    """``base^exponent mod modulus`` by square-and-multiply.

    >>> bitpoly_powmod(0b10, 4, 0b10011)  # x^4 mod x^4+x+1 = x+1
    3
    """
    if exponent < 0:
        raise ValueError("negative exponent")
    result = 1
    base = bitpoly_mod(base, modulus)
    while exponent:
        if exponent & 1:
            result = bitpoly_mulmod(result, base, modulus)
        base = bitpoly_mulmod(base, base, modulus)
        exponent >>= 1
    return result


def bitpoly_gcd(lhs: int, rhs: int) -> int:
    """Greatest common divisor over GF(2)[x] (Euclid)."""
    while rhs:
        lhs, rhs = rhs, bitpoly_mod(lhs, rhs)
    return lhs


def bitpoly_str(poly: int) -> str:
    """Human-readable form, matching the paper's notation.

    >>> bitpoly_str(bitpoly_from_exponents([233, 74, 0]))
    'x^233 + x^74 + 1'
    >>> bitpoly_str(0)
    '0'
    """
    if poly == 0:
        return "0"
    parts = []
    for exp in bitpoly_to_exponents(poly):
        if exp == 0:
            parts.append("1")
        elif exp == 1:
            parts.append("x")
        else:
            parts.append(f"x^{exp}")
    return " + ".join(parts)


def bitpoly_parse(text: str) -> int:
    """Parse ``x^233 + x^74 + 1`` (also accepts ``X``, ``**`` and no-ops).

    >>> bitpoly_parse("x^4 + x + 1") == 0b10011
    True
    >>> bitpoly_parse("X**8+X**4+X**3+X+1") == 0x11b
    True
    """
    poly = 0
    cleaned = text.replace("**", "^").replace(" ", "").lower()
    if not cleaned:
        raise ValueError("empty polynomial string")
    for term in cleaned.split("+"):
        if not term:
            raise ValueError(f"empty term in {text!r}")
        if term == "1":
            poly ^= 1
        elif term == "0":
            continue
        elif term == "x":
            poly ^= 2
        elif term.startswith("x^"):
            poly ^= 1 << int(term[2:])
        else:
            raise ValueError(f"cannot parse term {term!r} in {text!r}")
    return poly
