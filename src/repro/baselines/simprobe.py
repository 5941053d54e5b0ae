"""Simulation probing — the cheap heuristic the algebraic method beats.

For a *correct* polynomial-basis multiplier there is a one-vector
shortcut nobody should resist trying: feed ``A = x`` and
``B = x^(m-1)``.  The product is ``x^m mod P(x) = P(x) - x^m``, i.e.
the output word *is* the low part of the irreducible polynomial.
:func:`probe_polynomial` implements it (plus a couple of confirming
vectors).

Why, then, does the paper bother with backward rewriting?  Because the
probe is *unsound* on exactly the inputs that matter to an auditor:

* a **buggy** multiplier happily produces a plausible, irreducible
  mask while computing the wrong function everywhere else — the probe
  has no way to notice (see ``test_simprobe.py`` for concrete faulty
  netlists that fool it);
* the probed mask carries no proof: the algebraic flow's canonical
  per-bit expressions *are* the equivalence certificate against the
  golden model, at no extra cost;
* probing requires a working simulation model with the right port
  semantics, whereas rewriting consumes the netlist symbolically.

The module exists so benchmarks can quantify the gap: the probe is
thousands of times faster and strictly weaker.  Running it first and
falling back to full extraction is the pragmatic pipeline; the
``confirm`` helper wires the two together.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro import telemetry as _telemetry
from repro.fieldmath.bitpoly import bitpoly_str
from repro.fieldmath.irreducible import is_irreducible
from repro.gen.naming import value_assignment
from repro.netlist.netlist import Netlist


@dataclass
class ProbeResult:
    """Outcome of simulation probing."""

    #: Candidate irreducible polynomial (bit mask), or None.
    modulus: Optional[int]
    #: Whether the candidate passed the extra confirming vectors.
    consistent: bool
    #: Whether the candidate mask is irreducible.
    irreducible: bool
    vectors_used: int
    runtime_s: float

    @property
    def polynomial_str(self) -> str:
        if self.modulus is None:
            return "(none)"
        return bitpoly_str(self.modulus)


def probe_polynomial(
    netlist: Netlist,
    confirm_vectors: int = 4,
    telemetry: Optional[_telemetry.Telemetry] = None,
) -> ProbeResult:
    """Guess P(x) from simulation, assuming an honest multiplier.

    The primary vector is ``A = x, B = x^(m-1)``; each confirming
    vector checks ``x^(1+k) · x^(m-1-k) = x^m`` for other splits k,
    which must all agree on the same reduced word.  The probe runs in
    a ``baseline.simprobe`` telemetry span so its (tiny) cost lands in
    the same latency distributions as the heavyweight flows.

    >>> from repro.gen.mastrovito import generate_mastrovito
    >>> probe_polynomial(generate_mastrovito(0b10011)).polynomial_str
    'x^4 + x + 1'
    """
    registry = _telemetry.resolve(telemetry)
    with _telemetry.use(registry), registry.span(
        "baseline.simprobe", gates=len(netlist), outputs=len(netlist.outputs)
    ) as span:
        started = time.perf_counter()
        m = len(netlist.outputs)
        if m < 2:
            span.annotate(vectors=0, consistent=False)
            return ProbeResult(
                modulus=None,
                consistent=False,
                irreducible=False,
                vectors_used=0,
                runtime_s=time.perf_counter() - started,
            )
        a_nets = [f"a{i}" for i in range(m)]
        b_nets = [f"b{i}" for i in range(m)]

        def product_word(a_value: int, b_value: int) -> int:
            assignment = dict(value_assignment(a_nets, a_value))
            assignment.update(value_assignment(b_nets, b_value))
            values = netlist.simulate(assignment)
            return sum(values[f"z{i}"] << i for i in range(m))

        # x^1 * x^(m-1) = x^m ≡ P'(x); the candidate P(x) = x^m + P'.
        low_part = product_word(1 << 1, 1 << (m - 1))
        candidate = (1 << m) | low_part
        vectors = 1

        consistent = True
        for k in range(1, min(confirm_vectors, m - 1)):
            vectors += 1
            if product_word(1 << (1 + k), 1 << (m - 1 - k)) != low_part:
                consistent = False
                break

        irreducible = is_irreducible(candidate)
        span.annotate(
            vectors=vectors, consistent=consistent, irreducible=irreducible
        )
        return ProbeResult(
            modulus=candidate,
            consistent=consistent,
            irreducible=irreducible,
            vectors_used=vectors,
            runtime_s=time.perf_counter() - started,
        )


def probe_then_extract(
    netlist: Netlist,
    telemetry: Optional[_telemetry.Telemetry] = None,
):
    """The pragmatic pipeline: probe for a candidate, then *prove* it.

    Returns ``(probe, extraction)`` where the extraction is the
    authoritative answer.  The probe gives an early, unverified
    answer; the extraction provides the canonical expressions and the
    proof obligations.  A mismatch between the two is itself a strong
    bug signal (the tests construct one).
    """
    from repro.extract.extractor import extract_irreducible_polynomial

    registry = _telemetry.resolve(telemetry)
    with _telemetry.use(registry):
        probe = probe_polynomial(netlist, telemetry=registry)
        extraction = extract_irreducible_polynomial(netlist)
    return probe, extraction
