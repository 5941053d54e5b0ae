"""repro.engine — pluggable backward-rewriting execution backends.

Why a subsystem
---------------
The paper's scalability argument (Yu/Holcomb/Ciesielski, DATE 2017) is
that per-output-bit extraction is embarrassingly parallel and cheap per
step; their C++ runs 16 threads up to GF(2^571).  The reference python
path represents a monomial as a ``frozenset`` of signal-name strings,
so every substitution pays string hashing and a container allocation
per monomial — the dominant cost at the field sizes the benchmarks
target.  This package separates *what* Algorithm 1 computes from *how
its monomials are represented*, behind a backend registry.

Packing scheme
--------------
The packed backends intern every signal of one output cone to a bit
index (:class:`~repro.engine.interning.SignalInterner`).  Because
netlist variables are idempotent (``x² = x``), a monomial needs no
exponents: it is exactly the *set* of its signals, packed as one
python ``int`` with bit ``k`` set iff signal ``k`` occurs.  The
constant monomial ``1`` is the mask ``0``.  A polynomial is a
``set[int]`` and mod-2 cancellation stays structural: adding a monomial
toggles set membership.  One Algorithm-1 substitution step is then::

    stripped = mono & ~var_bit      # divide by the node variable
    product  = stripped | model     # multiply by a model monomial
    toggle(current, product)        # cancel pairs mod 2

The variables are not netlist gates but nodes of the netlist's
memoized live AIG (:func:`repro.aig.live_aig`, the strash the content
fingerprint already built): leaves take the low bits every cone
shares, and node variables intern above them in first-seen order
during the backward walk, so a variable's bit is allocated shortly
before its node eliminates it, keeping live masks compact.

Decode boundary
---------------
Packed expressions stay packed for as long as the caller's question can
be answered natively: the Algorithm-2 out-field membership test and the
verifier's spec-equality test run directly on the ``set[int]``
(:meth:`~repro.engine.bitpack.PackedExpression.contains_products`,
:meth:`~repro.engine.bitpack.PackedExpression.equals_poly`).  Only at
the public API boundary — :class:`~repro.rewrite.parallel.ExtractionRun`
expressions, traces, reports — does
:meth:`~repro.engine.bitpack.PackedExpression.decode` rebuild
:class:`~repro.gf2.polynomial.Gf2Poly` values, a single linear pass
that is negligible next to rewriting.

Backends
--------
``reference``
    the original ``Gf2Poly`` path (the differential-testing oracle,
    the last fallback rung, and the engine the paper tables pin for
    their ``peak_terms`` memory proxy);
``bitpack`` (the default)
    interned bitmask monomials over the live AIG: nodes are flattened
    forward into packed leaf-space polynomials below a size bound, and
    every other node is substituted through its direct-fanin model
    (see ``benchmarks/bench_engines.py`` / ``BENCH_engines.json``);
``vector``
    another name for ``bitpack``: it resolves to the same instance.

The compiling backend (bitpack) keeps its one-time per-netlist
compile in a weak in-process memo
(:class:`~repro.engine.base.CompilingEngine`) and never persist it:
the program is built from the live AIG the content fingerprint
already strashed, which is cheaper than loading a stored copy.  The
program is complete at compile time: every model a rewrite can ask
for is built before the first cone.

Every backend produces bit-identical *results* — canonical
expressions, P(x), member bits — and fails structurally broken
netlists with the same exception types; that contract is enforced by
``tests/test_engine_differential.py``.  Statistics and resource
behaviour are backend-specific: ``term_limit`` bounds each engine's
*own* intermediate representation, so a run that memory-outs on the
reference engine may fit under ``bitpack`` (whose flattening keeps
intermediates smaller).  New backends register via
:func:`register_engine`.
"""

from repro.engine.base import (
    CompilingEngine,
    ConeExpression,
    Engine,
    EngineError,
)
from repro.engine.bitpack import BitpackEngine, PackedExpression
from repro.engine.interning import SignalInterner
from repro.engine.reference import ReferenceEngine, ReferenceExpression
from repro.engine.registry import (
    DEFAULT_ENGINE,
    FALLBACK_LADDER,
    engine_availability,
    engine_name,
    fallback_chain,
    get_engine,
    register_engine,
    registered_engines,
)

register_engine(ReferenceEngine.name, ReferenceEngine)
register_engine(BitpackEngine.name, BitpackEngine)
# perfbench still selects ``vector``: the name stays, as an alias,
# until the benchmark stops using it.
register_engine("vector", lambda: get_engine(BitpackEngine.name))

__all__ = [
    "CompilingEngine",
    "ConeExpression",
    "Engine",
    "EngineError",
    "BitpackEngine",
    "PackedExpression",
    "SignalInterner",
    "ReferenceEngine",
    "ReferenceExpression",
    "DEFAULT_ENGINE",
    "FALLBACK_LADDER",
    "engine_availability",
    "engine_name",
    "fallback_chain",
    "get_engine",
    "register_engine",
    "registered_engines",
]
