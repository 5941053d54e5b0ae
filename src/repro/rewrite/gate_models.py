"""Algebraic models of logic gates over GF(2) — Eq. (1) of the paper.

The basic models::

    ¬a    = 1 + a
    a ∧ b = a·b
    a ∨ b = a + b + a·b
    a ⊕ b = a + b          (all arithmetic mod 2)

are extended to the n-ary forms and to the complex standard cells
(AOI/OAI/MUX) obtained by synthesis and technology mapping — the paper
explicitly includes those in its circuit model (Section III-A).

Models are computed *generically* by composing the four basic rules
through :class:`~repro.gf2.polynomial.Gf2Poly` arithmetic, so repeated
inputs simplify correctly (``XOR(a, a) = 0``, ``AND(a, a) = a``) and
every model is guaranteed consistent with the Boolean simulation
semantics of :func:`repro.netlist.gate.evaluate_gate` (property-tested).
"""

from __future__ import annotations

from functools import lru_cache
from typing import FrozenSet, Tuple

from repro.gf2.monomial import Monomial
from repro.gf2.polynomial import Gf2Poly
from repro.netlist.gate import Gate, GateType


def _var(name: str) -> Gf2Poly:
    return Gf2Poly.variable(name)


def _and_all(polys) -> Gf2Poly:
    acc = Gf2Poly.one()
    for poly in polys:
        acc = acc * poly
    return acc


def _xor_all(polys) -> Gf2Poly:
    acc = Gf2Poly.zero()
    for poly in polys:
        acc = acc + poly
    return acc


def _or_all(polys) -> Gf2Poly:
    # a ∨ b ∨ ... = 1 + Π(1 + x_i)
    acc = Gf2Poly.one()
    one = Gf2Poly.one()
    for poly in polys:
        acc = acc * (one + poly)
    return Gf2Poly.one() + acc


def gate_model_poly(gtype: GateType, inputs: Tuple[str, ...]) -> Gf2Poly:
    """The GF(2) polynomial implemented by one gate, over its input nets.

    >>> str(gate_model_poly(GateType.OR, ("a", "b")))
    'a*b + a + b'
    >>> str(gate_model_poly(GateType.AOI21, ("a", "b", "c")))
    'a*b*c + a*b + c + 1'
    """
    one = Gf2Poly.one()
    operands = [_var(name) for name in inputs]
    if gtype is GateType.CONST0:
        return Gf2Poly.zero()
    if gtype is GateType.CONST1:
        return one
    if gtype is GateType.BUF:
        return operands[0]
    if gtype is GateType.INV:
        return one + operands[0]
    if gtype is GateType.AND:
        return _and_all(operands)
    if gtype is GateType.NAND:
        return one + _and_all(operands)
    if gtype is GateType.OR:
        return _or_all(operands)
    if gtype is GateType.NOR:
        return one + _or_all(operands)
    if gtype is GateType.XOR:
        return _xor_all(operands)
    if gtype is GateType.XNOR:
        return one + _xor_all(operands)
    if gtype is GateType.AOI21:
        a, b, c = operands
        return one + _or_all([a * b, c])
    if gtype is GateType.AOI22:
        a, b, c, d = operands
        return one + _or_all([a * b, c * d])
    if gtype is GateType.OAI21:
        a, b, c = operands
        return one + _or_all([a, b]) * c
    if gtype is GateType.OAI22:
        a, b, c, d = operands
        return one + _or_all([a, b]) * _or_all([c, d])
    if gtype is GateType.MUX2:
        sel, d1, d0 = operands
        return sel * d1 + (one + sel) * d0
    raise ValueError(f"no algebraic model for gate type {gtype}")


#: Entries of the gate-model cache.  It is keyed by net names, so a
#: long-running service meets new keys with every new netlist; the LRU
#: bound keeps it from growing without limit.  One m=64 NAND-mapped
#: multiplier needs about 42k entries, so re-audits up to m=64 still hit.
MODEL_CACHE_SIZE = 1 << 17


@lru_cache(maxsize=MODEL_CACHE_SIZE)
def _cached_model(
    gtype: GateType, inputs: Tuple[str, ...]
) -> FrozenSet[Monomial]:
    return gate_model_poly(gtype, inputs).monomials


def gate_model(gate: Gate) -> FrozenSet[Monomial]:
    """Monomial set of a gate's model (cached; the reference engine's
    hot path — the packed engines model AIG nodes instead)."""
    return _cached_model(gate.gtype, gate.inputs)
