"""The cell library: gate types, arities and bit-parallel evaluation.

Two tiers of cells, mirroring the paper's Section III-A:

* *basic* gates — AND, OR, XOR, INV (plus the inverted/buffered forms),
  n-ary where associativity allows;
* *complex* standard cells — AOI/OAI and a 2:1 MUX — which appear after
  synthesis and technology mapping (Table III) and exercise the
  extended algebraic models.

Evaluation is bit-parallel: every net value is a Python integer whose
bits carry independent simulation vectors, so a single pass over the
netlist simulates up to thousands of input patterns.  ``mask`` bounds
the vector width (needed to implement NOT on unbounded ints).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple


class GateType(enum.Enum):
    """Every cell the netlist substrate understands."""

    CONST0 = "CONST0"
    CONST1 = "CONST1"
    BUF = "BUF"
    INV = "INV"
    AND = "AND"
    OR = "OR"
    XOR = "XOR"
    NAND = "NAND"
    NOR = "NOR"
    XNOR = "XNOR"
    #: AND-OR-Invert: ``!(a*b + c)``
    AOI21 = "AOI21"
    #: AND-OR-Invert: ``!(a*b + c*d)``
    AOI22 = "AOI22"
    #: OR-AND-Invert: ``!((a+b) * c)``
    OAI21 = "OAI21"
    #: OR-AND-Invert: ``!((a+b) * (c+d))``
    OAI22 = "OAI22"
    #: 2:1 multiplexer: inputs ``(sel, d1, d0)`` -> ``sel ? d1 : d0``
    MUX2 = "MUX2"


#: Gate types with a fixed number of inputs; ``None`` means n-ary (>= 2).
_FIXED_ARITY = {
    GateType.CONST0: 0,
    GateType.CONST1: 0,
    GateType.BUF: 1,
    GateType.INV: 1,
    GateType.AOI21: 3,
    GateType.AOI22: 4,
    GateType.OAI21: 3,
    GateType.OAI22: 4,
    GateType.MUX2: 3,
}

#: Gate types whose inputs are order-insensitive (used by strashing).
COMMUTATIVE_TYPES = frozenset(
    {
        GateType.AND,
        GateType.OR,
        GateType.XOR,
        GateType.NAND,
        GateType.NOR,
        GateType.XNOR,
    }
)


#: Every gate type in a fixed order; a type's index here is its *code*,
#: the small int a :class:`~repro.netlist.netlist.Netlist` stores per
#: gate.  Per-type tables indexed by code are built from the
#: ``GateType``-keyed ones (``[EVALUATION[t] for t in GATE_TYPES]``).
GATE_TYPES: Tuple[GateType, ...] = tuple(GateType)

#: Gate type -> its code (index in :data:`GATE_TYPES`).
GATE_CODE: Dict[GateType, int] = {
    gtype: code for code, gtype in enumerate(GATE_TYPES)
}


def gate_arity(gtype: GateType) -> Optional[int]:
    """Fixed arity of a gate type, or ``None`` for n-ary gates."""
    return _FIXED_ARITY.get(gtype)


@dataclass(frozen=True)
class Gate:
    """One netlist cell: ``output = gtype(inputs)``.

    Immutable so gates can live in sets and be shared between netlist
    copies.
    """

    output: str
    gtype: GateType
    inputs: Tuple[str, ...]

    def __post_init__(self) -> None:
        fixed = gate_arity(self.gtype)
        if fixed is not None:
            if len(self.inputs) != fixed:
                raise ValueError(
                    f"{self.gtype.value} gate {self.output!r} needs "
                    f"{fixed} inputs, got {len(self.inputs)}"
                )
        elif len(self.inputs) < 2:
            raise ValueError(
                f"{self.gtype.value} gate {self.output!r} needs >= 2 "
                f"inputs, got {len(self.inputs)}"
            )

    def __str__(self) -> str:
        return f"{self.output} = {self.gtype.value}({', '.join(self.inputs)})"


def evaluate_gate(
    gtype: GateType, values: Sequence[int], mask: int = 1
) -> int:
    """Bit-parallel evaluation of one gate.

    ``values`` are the input net values (bit vectors packed in ints),
    ``mask`` selects the active vector lanes.  A lookup in
    :data:`EVALUATION`, the one per-type table that
    :meth:`Netlist.simulate <repro.netlist.netlist.Netlist.simulate>`
    also calls directly; ``values`` must have the cell's arity (n-ary
    cells take two or more).

    >>> evaluate_gate(GateType.AOI21, [0b11, 0b01, 0b00], mask=0b11)
    2
    """
    try:
        evaluate = EVALUATION[gtype]
    except KeyError:
        raise ValueError(f"unknown gate type {gtype}") from None
    return evaluate(mask, *values)


# Evaluation entries: ``entry(mask, *values) -> value``.  One- and
# two-operand cells are one ``&``/``|``/``^`` on the lane ints; wider
# n-ary cells fold the rest.  Every result is masked, and bits of the
# operands above ``mask`` never reach it.


def _eval_and(mask: int, a: int, b: int, *more: int) -> int:
    acc = a & b
    for value in more:
        acc &= value
    return acc & mask


def _eval_nand(mask: int, a: int, b: int, *more: int) -> int:
    acc = a & b
    for value in more:
        acc &= value
    return ~acc & mask


def _eval_or(mask: int, a: int, b: int, *more: int) -> int:
    acc = a | b
    for value in more:
        acc |= value
    return acc & mask


def _eval_nor(mask: int, a: int, b: int, *more: int) -> int:
    acc = a | b
    for value in more:
        acc |= value
    return ~acc & mask


def _eval_xor(mask: int, a: int, b: int, *more: int) -> int:
    acc = a ^ b
    for value in more:
        acc ^= value
    return acc & mask


def _eval_xnor(mask: int, a: int, b: int, *more: int) -> int:
    acc = a ^ b
    for value in more:
        acc ^= value
    return ~acc & mask


#: Bit-parallel semantics of every gate type (see :func:`evaluate_gate`).
EVALUATION: Dict[GateType, Callable[..., int]] = {
    GateType.CONST0: lambda mask: 0,
    GateType.CONST1: lambda mask: mask,
    GateType.BUF: lambda mask, a: a & mask,
    GateType.INV: lambda mask, a: ~a & mask,
    GateType.AND: _eval_and,
    GateType.NAND: _eval_nand,
    GateType.OR: _eval_or,
    GateType.NOR: _eval_nor,
    GateType.XOR: _eval_xor,
    GateType.XNOR: _eval_xnor,
    GateType.AOI21: lambda mask, a, b, c: ~((a & b) | c) & mask,
    GateType.AOI22: lambda mask, a, b, c, d: ~((a & b) | (c & d)) & mask,
    GateType.OAI21: lambda mask, a, b, c: ~((a | b) & c) & mask,
    GateType.OAI22: lambda mask, a, b, c, d: ~((a | b) & (c | d)) & mask,
    GateType.MUX2: lambda mask, sel, d1, d0: ((sel & d1) | (~sel & d0)) & mask,
}

#: Fixed-arity entries ``entry(mask, a, b)`` of the two-operand cells:
#: :data:`EVALUATION`'s n-ary entries at two operands, without the
#: varargs fold, for operands already masked (as every value of
#: :meth:`Netlist.simulate <repro.netlist.netlist.Netlist.simulate>`
#: is), so AND, OR and XOR need no mask.
EVALUATION_2: Dict[GateType, Callable[[int, int, int], int]] = {
    GateType.AND: lambda mask, a, b: a & b,
    GateType.NAND: lambda mask, a, b: (a & b) ^ mask,
    GateType.OR: lambda mask, a, b: a | b,
    GateType.NOR: lambda mask, a, b: (a | b) ^ mask,
    GateType.XOR: lambda mask, a, b: a ^ b,
    GateType.XNOR: lambda mask, a, b: a ^ b ^ mask,
}
