"""Cryptographic applications of GF(2^m) — the paper's motivation.

The introduction motivates reverse engineering of field polynomials
with ECC and AES hardware.  This package supplies those application
layers on top of :mod:`repro.fieldmath`, so the examples can carry a
recovered P(x) all the way to a working protocol:

``ecc``
    binary-field elliptic curves (ECC): point arithmetic, scalar
    multiplication, Diffie-Hellman, plus the NIST K-163 parameters;
``aes_field``
    the AES byte field GF(2^8): S-box from field inversion + affine
    map, the MixColumns column transform, and the circuit constants.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "INFINITY": "repro.crypto.ecc",
    "BinaryCurve": "repro.crypto.ecc",
    "Point": "repro.crypto.ecc",
    "koblitz_curve_k163": "repro.crypto.ecc",
    "AES_MODULUS": "repro.crypto.aes_field",
    "aes_sbox": "repro.crypto.aes_field",
    "aes_inv_sbox": "repro.crypto.aes_field",
    "mix_column": "repro.crypto.aes_field",
    "inv_mix_column": "repro.crypto.aes_field",
    "xtime": "repro.crypto.aes_field",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
