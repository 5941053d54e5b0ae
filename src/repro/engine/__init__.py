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
    the original ``Gf2Poly`` path (the differential-testing oracle);
``bitpack``
    interned bitmask monomials over the live AIG: nodes are flattened
    forward into packed leaf-space polynomials below a size bound, and
    every other node is substituted through its direct-fanin model
    (see ``benchmarks/bench_engines.py`` / ``BENCH_engines.json``);
``aig``
    bitpack's program and loop with cut-based flattening and cut
    models: a node above the bound is substituted through the exact
    ANF of its best k-feasible cut, so technology-mapped clusters
    collapse before rewriting sees them (see
    ``benchmarks/bench_aig.py`` / ``BENCH_aig.json``);
``vector``
    the same compiled program as ``aig``, with the substitution loop
    vectorized in numpy for the **fused multi-output sweep**
    (:meth:`~repro.engine.base.Engine.rewrite_cones` / ``fused=True``
    on the extraction drivers): all m output cones are rewritten in
    one output-tagged ``uint64`` bit-matrix (one row per monomial,
    interned signals packed 64 per word), one substitution is a
    broadcast OR against the model matrix, and GF(2) cancellation is
    a lexsort + run-parity pass whose sort keys keep cancellation
    strictly per-cone — bit-identical to per-bit extraction
    (``benchmarks/bench_fused.py`` / ``BENCH_fused.json``).  Per-bit
    ``vector`` runs the one loop bitpack and aig share.  numpy is
    optional — the backend is availability-probed, and every other
    backend serves ``rewrite_cones`` through its per-bit loop, so
    ``fused=True`` degrades cleanly without numpy.

Compiling backends (bitpack, aig, vector) keep their one-time
per-netlist compile in a weak in-process memo
(:class:`~repro.engine.base.CompilingEngine`) and never persist it:
the program is built from the live AIG the content fingerprint
already strashed, which is cheaper than loading a stored copy.
bitpack's program is complete at compile time; aig/vector build cut
models lazily while rewriting.

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

from repro.engine.aig import AigEngine
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
    available_engines,
    engine_availability,
    engine_name,
    fallback_chain,
    get_engine,
    register_engine,
    registered_engines,
)
from repro.engine.vector import VectorEngine

register_engine(ReferenceEngine.name, ReferenceEngine)
register_engine(BitpackEngine.name, BitpackEngine)
register_engine(AigEngine.name, AigEngine)
# numpy is optional: vector registers unconditionally with an
# availability probe, so ``available_engines()`` (and thus the
# differential suite and the benchmarks) skips it cleanly when numpy
# is missing, while resolving it by name still fails with the probe's
# recorded reason instead of "unknown engine".
register_engine(
    VectorEngine.name, VectorEngine, probe=VectorEngine.availability
)

__all__ = [
    "CompilingEngine",
    "ConeExpression",
    "Engine",
    "EngineError",
    "AigEngine",
    "BitpackEngine",
    "PackedExpression",
    "SignalInterner",
    "ReferenceEngine",
    "ReferenceExpression",
    "VectorEngine",
    "DEFAULT_ENGINE",
    "FALLBACK_LADDER",
    "available_engines",
    "engine_availability",
    "engine_name",
    "fallback_chain",
    "get_engine",
    "register_engine",
    "registered_engines",
]
