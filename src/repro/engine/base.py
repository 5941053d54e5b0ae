"""Engine interface: what every backward-rewriting backend provides.

An :class:`Engine` turns one output cone of a netlist into the
canonical GF(2) expression of that output bit.  Backends differ only in
their *internal* expression representation; the contract is:

* :meth:`Engine.rewrite_cone` returns a :class:`ConeExpression` — the
  backend-native form — plus the usual
  :class:`~repro.rewrite.backward.RewriteStats`;
* a :class:`ConeExpression` answers the two questions Algorithm 2 and
  the verifier ask (out-field membership, equality against the golden
  model's output bit) *without* leaving the native representation,
  and :meth:`ConeExpression.decode`\\ s to a
  :class:`~repro.gf2.polynomial.Gf2Poly` at the API boundary;
* every backend signals failures with the reference exception types —
  :class:`~repro.rewrite.backward.BackwardRewriteError` for structural
  defects (same netlists fail on every backend) and
  :class:`~repro.rewrite.backward.TermLimitExceeded` when
  ``term_limit`` is exceeded; the limit bounds each backend's *own*
  intermediate representation, so the memory-out point may differ
  between backends.

Compiled programs
-----------------
A backend may precompile a netlist into a reusable *program*
(bitpack does, :class:`~repro.engine.bitpack.BitpackEngine`), keeping
one program per live netlist in a weak in-process memo.  The program is
built from the netlist's memoized live AIG, which the content
fingerprint has already paid for; compiling it costs less than
loading a stored copy did, so nothing is persisted.  A program may be
*scoped* to some outputs (``scope``): it is then built from the cut
of the live AIG that holds just their fan-in (:meth:`repro.aig.Aig.cut`),
which is how a partly cone-cached extraction prices the edit, not the
design.

Encoded expressions
-------------------
Every cache entry stores a cone's expression in one engine-neutral
JSON form (:func:`poly_to_json`: a sorted list of sorted variable
lists).  :meth:`ConeExpression.to_json` computes that form once per
expression and memoizes it, so the cone entry and the extraction
entry of one cold run share a single encoding.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, ClassVar, Iterable, List, Optional, Tuple

from repro.gf2.monomial import Monomial
from repro.gf2.polynomial import Gf2Poly
from repro.netlist.netlist import Netlist

if TYPE_CHECKING:  # a runtime import would cycle through repro.rewrite
    from repro.rewrite.backward import RewriteStats
    from repro.rewrite.signature import ProductSpec


class EngineError(ValueError):
    """Unknown engine name or invalid engine registration."""


def poly_to_json(poly: Gf2Poly) -> List[List[str]]:
    """The engine-neutral JSON form: sorted lists of sorted names."""
    return sorted(sorted(mono) for mono in poly.monomials)


def poly_from_json(data: List[List[str]]) -> Gf2Poly:
    return Gf2Poly.from_monomials(
        frozenset(frozenset(mono) for mono in data)
    )


class ConeExpression(abc.ABC):
    """A backend-native canonical expression of one output bit."""

    __slots__ = ("_json",)

    @abc.abstractmethod
    def decode(self) -> Gf2Poly:
        """Convert to the reference representation (API boundary)."""

    @abc.abstractmethod
    def term_count(self) -> int:
        """Number of monomials (the paper's expression-size metric)."""

    @abc.abstractmethod
    def contains_products(self, products: Iterable[Monomial]) -> bool:
        """Algorithm 2 line 6: is every given monomial present?"""

    @abc.abstractmethod
    def equals_product(self, spec: "ProductSpec", bit: int) -> bool:
        """Is this output bit ``bit`` of ``spec``'s ``A·B mod P(x)``?

        The verifier's algebraic check, read off P(x)'s reduction rows
        (see :class:`~repro.rewrite.signature.ProductSpec`) without
        building the specification polynomial.
        """

    def to_json(self) -> List[List[str]]:
        """``poly_to_json(self.decode())``, computed once.

        Every consumer shares the returned list and must not mutate it.
        """
        try:
            return self._json
        except AttributeError:
            encoded = self._json = self._encode()
            return encoded

    def _encode(self) -> List[List[str]]:
        """Build the :meth:`to_json` form (backends may skip decoding)."""
        return poly_to_json(self.decode())


class Engine(abc.ABC):
    """One backward-rewriting backend."""

    #: Registry name of the backend (e.g. ``"reference"``).
    name: ClassVar[str] = ""

    #: Layout version of the backend's compiled program, recorded as
    #: provenance in cone entries; ``None`` for backends that do not
    #: compile.
    compile_schema: ClassVar[Optional[int]] = None

    @abc.abstractmethod
    def rewrite_cone(
        self,
        netlist: Netlist,
        output: str,
        trace: bool = False,
        term_limit: Optional[int] = None,
        scope: Optional[Tuple[str, ...]] = None,
    ) -> Tuple[ConeExpression, RewriteStats]:
        """Algorithm 1 on one output cone, in native representation.

        ``scope`` is the :meth:`prepare` scope of the run ``output``
        belongs to (None: the whole netlist); it names outputs, and
        ``output`` is one of them.  A backend that walks each cone on
        its own ignores it.
        """

    def rewrite(
        self,
        netlist: Netlist,
        output: str,
        trace: bool = False,
        term_limit: Optional[int] = None,
    ) -> Tuple[Gf2Poly, RewriteStats]:
        """Algorithm 1 with the result decoded to :class:`Gf2Poly`."""
        expression, stats = self.rewrite_cone(
            netlist, output, trace=trace, term_limit=term_limit
        )
        return expression.decode(), stats

    def prepare(
        self, netlist: Netlist, scope: Optional[Tuple[str, ...]] = None
    ) -> None:
        """Warm whatever per-netlist state the backend keeps (no-op
        here).  The extraction driver calls it once before the first
        cone, so a compiling backend's one-time ``compile`` span is a
        sibling of the per-bit ``cone`` spans, not nested in one.
        ``scope`` names the outputs the run rewrites when it is not
        the whole netlist (see :meth:`rewrite_cone`)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
