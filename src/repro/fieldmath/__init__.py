"""Univariate GF(2)[x] arithmetic and GF(2^m) field substrate.

Polynomials over GF(2) are represented as Python integers whose bit ``i``
is the coefficient of ``x^i`` — e.g. ``0b10011`` is ``x^4 + x + 1``.
Python's arbitrary-precision integers make this representation exact for
the paper's largest field, GF(2^571).

Contents:

``bitpoly``
    carry-less multiply, divmod, gcd, modular exponentiation,
    parsing/printing of ``x^233 + x^74 + 1`` style strings.
``irreducible``
    Rabin irreducibility test; trinomial/pentanomial search.
``gf2m``
    the field GF(2^m) itself (element arithmetic, inversion); the golden
    word-level model our gate-level multipliers are validated against.
``polynomial_db``
    NIST-recommended and architecture-optimal irreducible polynomials
    used in the paper's Tables I-IV.
``montgomery_math``
    word-level Montgomery multiplication reference model.
``reduction``
    Mastrovito reduction rows (``x^{m+t} mod P``) and the XOR-cost model
    of Section II-D / Figure 1.
``element``
    operator-overloaded field elements on top of :class:`GF2m`.
``linalg2``
    GF(2) linear algebra on bitmask matrices (rank / solve / invert),
    used by the normal-basis construction and diagnosis.
``normal``
    normal bases (conjugate orbits) and the Massey-Omura λ-matrix.
``tower``
    composite fields GF((2^k)^2) — the Canright/Satoh AES structure.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "bitpoly_degree": "repro.fieldmath.bitpoly",
    "bitpoly_divmod": "repro.fieldmath.bitpoly",
    "bitpoly_from_exponents": "repro.fieldmath.bitpoly",
    "bitpoly_gcd": "repro.fieldmath.bitpoly",
    "bitpoly_mod": "repro.fieldmath.bitpoly",
    "bitpoly_mul": "repro.fieldmath.bitpoly",
    "bitpoly_mulmod": "repro.fieldmath.bitpoly",
    "bitpoly_parse": "repro.fieldmath.bitpoly",
    "bitpoly_powmod": "repro.fieldmath.bitpoly",
    "bitpoly_str": "repro.fieldmath.bitpoly",
    "bitpoly_to_exponents": "repro.fieldmath.bitpoly",
    "find_irreducible_pentanomials": "repro.fieldmath.irreducible",
    "find_irreducible_trinomials": "repro.fieldmath.irreducible",
    "is_irreducible": "repro.fieldmath.irreducible",
    "FieldElement": "repro.fieldmath.element",
    "GF2m": "repro.fieldmath.gf2m",
    "gf2_invert": "repro.fieldmath.linalg2",
    "gf2_rank": "repro.fieldmath.linalg2",
    "gf2_solve": "repro.fieldmath.linalg2",
    "matvec": "repro.fieldmath.linalg2",
    "transpose": "repro.fieldmath.linalg2",
    "ARCH_OPTIMAL_233": "repro.fieldmath.polynomial_db",
    "NIST_POLYNOMIALS": "repro.fieldmath.polynomial_db",
    "PAPER_POLYNOMIALS": "repro.fieldmath.polynomial_db",
    "arch_optimal_polynomials": "repro.fieldmath.polynomial_db",
    "nist_polynomial": "repro.fieldmath.polynomial_db",
    "scaled_arch_suite": "repro.fieldmath.polynomial_db",
    "mont_mul": "repro.fieldmath.montgomery_math",
    "mont_r2": "repro.fieldmath.montgomery_math",
    "to_mont": "repro.fieldmath.montgomery_math",
    "from_mont": "repro.fieldmath.montgomery_math",
    "NormalBasis": "repro.fieldmath.normal",
    "find_normal_element": "repro.fieldmath.normal",
    "TowerField": "repro.fieldmath.tower",
    "reduction_rows": "repro.fieldmath.reduction",
    "reduction_table": "repro.fieldmath.reduction",
    "reduction_xor_cost": "repro.fieldmath.reduction",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
