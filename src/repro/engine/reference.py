"""The reference backend — the original ``Gf2Poly`` path as an Engine.

This is a thin adapter over
:func:`repro.rewrite.backward.backward_rewrite`: monomials stay
``frozenset``\\ s of signal names, so "decoding" is free.  The backend
exists so that the reference implementation participates in the same
registry/driver machinery as optimised backends and keeps serving as
the differential-testing oracle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

from repro.engine.base import ConeExpression, Engine, poly_from_json
from repro.gf2.monomial import Monomial
from repro.gf2.polynomial import Gf2Poly
from repro.netlist.netlist import Netlist
from repro.rewrite.backward import RewriteStats, backward_rewrite

if TYPE_CHECKING:
    from repro.rewrite.signature import ProductSpec


class ReferenceExpression(ConeExpression):
    """A :class:`Gf2Poly` wearing the :class:`ConeExpression` hat."""

    __slots__ = ("poly",)

    def __init__(self, poly: Gf2Poly):
        self.poly = poly

    @classmethod
    def from_json(cls, data: List[List[str]]) -> "ReferenceExpression":
        """Decode a ``poly_to_json`` list, keeping it as the encoding."""
        expression = cls(poly_from_json(data))
        expression._json = data
        return expression

    def decode(self) -> Gf2Poly:
        return self.poly

    def term_count(self) -> int:
        return self.poly.term_count()

    def contains_products(self, products: Iterable[Monomial]) -> bool:
        return self.poly.contains_all(products)

    def equals_product(self, spec: "ProductSpec", bit: int) -> bool:
        monomials = self.poly.monomials
        if len(monomials) != spec.counts[bit]:
            return False
        code, other = spec.codes.get, spec.other
        cover = spec.covers[bit]
        for mono in monomials:
            if len(mono) != 2:
                return False
            name, partner = mono
            degree = code(name, other) + code(partner, other)
            if degree < 0 or not cover >> degree & 1:
                return False
        return True


class ReferenceEngine(Engine):
    """Set-of-frozensets backward rewriting (the oracle)."""

    name = "reference"

    def rewrite_cone(
        self,
        netlist: Netlist,
        output: str,
        trace: bool = False,
        term_limit: Optional[int] = None,
        scope: Optional[Tuple[str, ...]] = None,
    ) -> Tuple[ReferenceExpression, RewriteStats]:
        # The rewrite walks ``output``'s own cone: no scope to honour.
        poly, stats = backward_rewrite(
            netlist,
            output,
            trace=trace,
            term_limit=term_limit,
            engine="reference",
        )
        return ReferenceExpression(poly), stats
