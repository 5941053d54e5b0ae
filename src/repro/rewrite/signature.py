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

from typing import Dict, List, Sequence, Tuple

from repro.fieldmath.bitpoly import bitpoly_degree
from repro.gf2.polynomial import Gf2Poly


def output_signature(m: int, prefix: str = "z") -> Dict[int, Gf2Poly]:
    """``Sig_out`` as a map ``degree -> coefficient polynomial``.

    >>> sig = output_signature(2)
    >>> str(sig[1])
    'z1'
    """
    return {i: Gf2Poly.variable(f"{prefix}{i}") for i in range(m)}


def _reduction_bits(modulus: int, m: int) -> List[int]:
    """``x^d mod P(x)`` as a bitmask for every degree ``d < 2m - 1``.

    Row ``d`` has bit ``i`` set when the partial products ``a_j·b_k``
    with ``j + k = d`` land in output bit ``i``.  Each row is the
    previous one shifted once and reduced when it reaches ``x^m``.
    """
    rows = []
    row = 1
    for _ in range(2 * m - 1):
        rows.append(row)
        row <<= 1
        if (row >> m) & 1:
            row ^= modulus
    return rows


class ProductSpec:
    """The golden model ``A·B mod P(x)`` read off P(x)'s reduction rows.

    Output bit ``z_i``'s specification is the XOR of the partial
    products ``a_j·b_k`` whose row ``j + k`` covers bit ``i``.  Distinct
    pairs are distinct monomials, so nothing cancels, and a canonical
    expression equals the specification exactly when it has
    ``counts[i] = Σ_d [i ∈ row d]·(min(d, 2m−2−d)+1)`` monomials (the
    pairs of degree ``d``, summed over the rows covering ``i``) and
    each of them is one ``a_j`` times one ``b_k`` whose row covers
    ``i``.  That is the whole check: no specification polynomial is
    built.

    A monomial is read through per-name *codes*: ``a_j`` is ``j - m``,
    ``b_k`` is ``k + m`` and every other name :attr:`other`.  A pair's
    code sum is then ``j + k`` for an ``a·b`` product, negative for
    ``a·a``, and at least ``2m - 1`` (past every row) for ``b·b`` or
    any other name, so one test against ``covers[i]`` (bit ``d`` set
    when row ``d`` covers ``i``) judges the monomial.

    >>> spec = ProductSpec(0b111)                 # GF(2^2), x^2+x+1
    >>> spec.counts, [bin(cover) for cover in spec.covers]
    ([2, 3], ['0b101', '0b110'])
    >>> degree = spec.codes["a1"] + spec.codes["b1"]
    >>> degree, spec.covers[0] >> degree & 1
    (2, 1)
    """

    __slots__ = ("covers", "counts", "codes", "other", "_leaf_codes")

    def __init__(self, modulus: int):
        m = bitpoly_degree(modulus)
        self.covers = [0] * m
        self.counts = [0] * m
        for degree, row in enumerate(_reduction_bits(modulus, m)):
            pairs = min(degree, 2 * m - 2 - degree) + 1
            while row:
                low = row & -row
                bit = low.bit_length() - 1
                self.covers[bit] |= 1 << degree
                self.counts[bit] += pairs
                row ^= low
        #: name -> code; a name not here codes as :attr:`other`.
        self.codes: Dict[str, int] = {
            **{f"a{j}": j - m for j in range(m)},
            **{f"b{k}": k + m for k in range(m)},
        }
        self.other = 4 * m
        self._leaf_codes: Dict[int, Tuple[Sequence[str], List[int]]] = {}

    def leaf_codes(self, names: Sequence[str]) -> List[int]:
        """The code of every name of ``names``, by position.

        Memoized by the identity of ``names``: the cones of one
        compiled program share one leaf-name list, so its codes are
        built once per program, not once per cone.
        """
        entry = self._leaf_codes.get(id(names))
        if entry is None or entry[0] is not names:
            code, other = self.codes.get, self.other
            entry = (names, [code(name, other) for name in names])
            self._leaf_codes[id(names)] = entry
        return entry[1]


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
    covers = [row >> bit & 1 for row in _reduction_bits(modulus, m)]
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
    rows = [
        [bit for bit in range(m) if row >> bit & 1]
        for row in _reduction_bits(modulus, m)
    ]
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
