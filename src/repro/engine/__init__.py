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
The ``bitpack`` backend interns every signal of one output cone to a
bit index (:class:`~repro.engine.interning.SignalInterner`).  Because
netlist variables are idempotent (``x² = x``), a monomial needs no
exponents: it is exactly the *set* of its signals, packed as one
python ``int`` with bit ``k`` set iff signal ``k`` occurs.  The
constant monomial ``1`` is the mask ``0``.  A polynomial is a
``set[int]`` and mod-2 cancellation stays structural: adding a monomial
toggles set membership.  One Algorithm-1 substitution step is then::

    stripped = mono & ~var_bit      # divide by the gate-output variable
    product  = stripped | model     # multiply by a model monomial
    toggle(current, product)        # cancel pairs mod 2

Gate models come from :func:`repro.rewrite.gate_models.gate_model`
(already cached per gate type/inputs) and are packed into mask tuples
when the gate is first rewritten.  Interning is first-seen order during
the backward walk, so a signal's bit is allocated shortly before its
driver gate eliminates it, keeping live masks compact.

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
    interned bitmask monomials, typically ≥5× faster (see
    ``benchmarks/bench_engines.py`` / ``BENCH_engines.json``);
``aig``
    cut-based rewriting over the hash-consed And-Inverter Graph
    (:mod:`repro.aig`): the netlist is strashed into complement-edge
    AND/XOR nodes, flattened node-by-node into packed PI-space
    polynomials, and the remainder is substituted cut-by-cut from
    exact k-feasible-cut ANFs — the backend of choice for
    technology-mapped / NAND-lowered netlists, where gate-granular
    rewriting suffers intermediate-expression blowup (see
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
    ``vector`` runs the ``aig`` engine's loop.  numpy is optional —
    the backend is availability-probed, and every other backend
    serves ``rewrite_cones`` through its per-bit loop, so
    ``fused=True`` degrades cleanly without numpy.
    The fused sweep is additionally **memory-budgeted**: under
    ``REPRO_SWEEP_MAX_BYTES`` / ``max_bytes=`` / ``--max-ram`` the
    live matrix spills to on-disk tag-range shards and rounds stream
    out of core (``benchmarks/bench_outofcore.py`` /
    ``BENCH_outofcore.json``).

Compiling backends (bitpack, aig, vector) additionally persist their
one-time per-netlist compile through the ``compile_cache=`` hook
(:class:`~repro.engine.base.CompilingEngine`): programs are stored in
the service result cache keyed by (fingerprint, compile key, compile
schema), validated against an exact-netlist token on load, and
re-stored when rewriting grows them (lazily built cut models), so a
batch campaign compiles each distinct structure once ever.

Every backend produces bit-identical *results* — canonical
expressions, P(x), member bits — and fails structurally broken
netlists with the same exception types; that contract is enforced by
``tests/test_engine_differential.py``.  Statistics and resource
behaviour are backend-specific: ``term_limit`` bounds each engine's
*own* intermediate representation, so a run that memory-outs on the
reference engine may fit under ``bitpack`` (whose flattening keeps
intermediates smaller).  New backends (e.g. AIG/cut-based rewriting)
register via :func:`register_engine`.
"""

from repro.engine.aig import AigEngine
from repro.engine.base import (
    CompilingEngine,
    ConeExpression,
    Engine,
    EngineError,
    netlist_token,
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
    "netlist_token",
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
