"""Extension: recovering P(x) from a dedicated squarer circuit.

The paper's Algorithm 2 keys on the out-field *products* ``a_i·b_j``,
so it cannot say anything about the linear circuits that dominate ECC
datapaths — dedicated squarers contain no products at all.  This
module extends the idea: backward rewriting still yields the canonical
per-bit expressions, which for a squarer are sets of single variables
encoding the *squaring matrix* ``Q(P)`` with columns
``x^{2i} mod P(x)``.  P(x) is then recovered from the first out-field
column:

* **even m** — column ``i = m/2`` is ``x^m mod P = P'(x)`` verbatim;
* **odd m** — column ``i = (m+1)/2`` is ``x^{m+1} mod P``, i.e.
  ``(P' << 1) mod P``; the shift-XOR recurrence inverts it bit by bit.

The recovered P(x) is then confirmed by rebuilding the full matrix and
comparing — so a fault anywhere in the squarer surfaces as a verdict
mismatch, exactly like the multiplier flow's golden-model check.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

from repro.engine import DEFAULT_ENGINE
from repro.fieldmath.bitpoly import bitpoly_str
from repro.fieldmath.irreducible import is_irreducible
from repro.gen.squarer import squaring_matrix
from repro.netlist.netlist import Netlist
from repro.rewrite.backward import backward_rewrite


class SquarerExtractionError(RuntimeError):
    """The netlist is not shaped like a GF(2^m) squarer."""


@dataclass
class SquarerExtractionResult:
    """Everything learned from a squarer netlist."""

    #: Recovered P(x) (bit mask), or None when no candidate exists.
    modulus: Optional[int]
    m: int
    #: The observed matrix: observed[i] = output mask fed by input a_i.
    observed_columns: List[int]
    #: Whether the recovered P(x) is irreducible.
    irreducible: bool
    #: Whether the full observed matrix matches squaring_matrix(P).
    verified: bool
    total_time_s: float = 0.0

    @property
    def polynomial_str(self) -> str:
        if self.modulus is None:
            return "(none)"
        return bitpoly_str(self.modulus)


def extract_squarer_polynomial(
    netlist: Netlist,
    engine: str = DEFAULT_ENGINE,
    term_limit: Optional[int] = None,
) -> SquarerExtractionResult:
    """Recover P(x) from a gate-level squarer.

    ``term_limit`` bounds each bit's rewriting as in
    :func:`~repro.rewrite.backward.backward_rewrite`, which raises
    :class:`~repro.rewrite.backward.TermLimitExceeded` past it.

    >>> from repro.gen.squarer import generate_squarer
    >>> extract_squarer_polynomial(generate_squarer(0b10011)).polynomial_str
    'x^4 + x + 1'
    """
    started = time.perf_counter()
    m = len(netlist.outputs)
    expected_inputs = {f"a{i}" for i in range(m)}
    if set(netlist.inputs) != expected_inputs:
        raise SquarerExtractionError(
            f"inputs must be a0..a{m - 1}; got "
            f"{sorted(netlist.inputs)[:6]}"
        )
    expected_outputs = {f"z{i}" for i in range(m)}
    if set(netlist.outputs) != expected_outputs:
        raise SquarerExtractionError(
            f"outputs must be z0..z{m - 1}, got {netlist.outputs}"
        )

    # Backward rewriting per output bit (Algorithm 1, unchanged), one
    # bit at a time so a non-squarer fails fast.
    columns = [0] * m
    for j in range(m):
        poly, _stats = backward_rewrite(
            netlist, f"z{j}", term_limit=term_limit, engine=engine
        )
        for monomial in poly.monomials:
            if len(monomial) != 1:
                raise SquarerExtractionError(
                    f"output z{j} is not linear in the inputs "
                    f"(monomial {sorted(monomial)}) — not a squarer"
                )
            (name,) = monomial
            columns[int(name[1:])] |= 1 << j

    modulus = _polynomial_from_columns(columns, m)
    verified = (
        modulus is not None and squaring_matrix(modulus) == columns
    )
    return SquarerExtractionResult(
        modulus=modulus,
        m=m,
        observed_columns=columns,
        irreducible=bool(modulus) and is_irreducible(modulus),
        verified=verified,
        total_time_s=time.perf_counter() - started,
    )


def _polynomial_from_columns(columns: List[int], m: int) -> Optional[int]:
    """Invert the first out-field column back to P(x)."""
    if m == 1:
        # z0 = a0; every degree-1 mask squares the same way.  x + 1 is
        # the canonical irreducible choice.
        return 0b11 if columns == [1] else None
    if m % 2 == 0:
        low = columns[m // 2]  # x^m mod P = P'(x)
        return (1 << m) | low
    # Odd m: r = x^{m+1} mod P = (P' << 1) mod P.  Writing q = P',
    # either r = q << 1 (no overflow) or q<<1 ^ q = r ^ x^m (one
    # reduction step, since bit0(P) = 1 marks the reduced case).
    r = columns[(m + 1) // 2]
    if not r & 1:
        candidate = (1 << m) | (r >> 1)
        return candidate
    s = r ^ (1 << m)
    q = 0
    previous = 0
    for bit in range(m):
        current = ((s >> bit) & 1) ^ previous
        q |= current << bit
        previous = current
    return (1 << m) | q
