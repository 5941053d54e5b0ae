"""Known-answer arithmetic that does not use the code under test.

``mulmod`` is the golden model: a carry-less product reduced by P(x),
written here rather than taken from the package.  ``simulate_pairs``
drives a netlist through bit-parallel ``Netlist.simulate`` so that its
outputs can be compared with the golden model on many operand pairs at
once.
"""

from __future__ import annotations

import numpy as np


def mulmod(lhs: int, rhs: int, modulus: int) -> int:
    """Carry-less product of two field elements reduced by ``modulus``."""
    m = modulus.bit_length() - 1
    product = 0
    while rhs:
        if rhs & 1:
            product ^= lhs
        lhs <<= 1
        rhs >>= 1
    for bit in range(product.bit_length() - 1, m - 1, -1):
        if product >> bit & 1:
            product ^= modulus << (bit - m)
    return product


def _polymod(value: int, divisor: int) -> int:
    degree = divisor.bit_length() - 1
    while value.bit_length() - 1 >= degree:
        value ^= divisor << (value.bit_length() - 1 - degree)
    return value


def is_irreducible(modulus: int) -> bool:
    """Trial division by every polynomial of degree <= m/2 (small m)."""
    m = modulus.bit_length() - 1
    if m < 1:
        return False
    return all(
        _polymod(modulus, divisor) != 0
        for divisor in range(2, 1 << (m // 2 + 1))
    )


def poly_str(modulus: int) -> str:
    """P(x) in the paper's notation, e.g. ``x^8 + x^4 + x^3 + x + 1``."""
    terms = []
    for exponent in range(modulus.bit_length() - 1, -1, -1):
        if modulus >> exponent & 1:
            terms.append(
                "1" if exponent == 0
                else "x" if exponent == 1
                else f"x^{exponent}"
            )
    return " + ".join(terms) if terms else "0"


def _pack(bits: np.ndarray) -> int:
    packed = np.packbits(bits.astype(np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def _unpack(value: int, width: int) -> np.ndarray:
    raw = value.to_bytes((width + 7) // 8, "little")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return bits[:width].astype(np.int64)


def simulate_pairs(netlist, m: int, lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Outputs ``z`` for every operand pair, one simulation lane each."""
    width = len(lhs)
    assignment = {}
    for i in range(m):
        assignment[f"a{i}"] = _pack((lhs >> i) & 1)
        assignment[f"b{i}"] = _pack((rhs >> i) & 1)
    outputs = netlist.simulate(assignment, width=width)
    result = np.zeros(width, dtype=np.int64)
    for i in range(m):
        result |= _unpack(outputs[f"z{i}"], width) << i
    return result


def golden(lhs: np.ndarray, rhs: np.ndarray, modulus: int) -> np.ndarray:
    """``mulmod`` of every operand pair, one array lane each."""
    m = modulus.bit_length() - 1
    if 2 * m - 1 > 62:
        # The unreduced product would not fit an int64 lane.
        return np.array(
            [mulmod(int(a), int(b), modulus) for a, b in zip(lhs, rhs)],
            dtype=np.int64,
        )
    lhs = np.asarray(lhs, dtype=np.int64)
    rhs = np.asarray(rhs, dtype=np.int64)
    product = np.zeros_like(lhs)
    for bit in range(m):
        product ^= np.where((rhs >> bit) & 1, lhs << bit, 0)
    for bit in range(2 * m - 2, m - 1, -1):
        product ^= np.where((product >> bit) & 1, modulus << (bit - m), 0)
    return product
