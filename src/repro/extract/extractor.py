"""Algorithm 2 — extracting the irreducible polynomial P(x).

The flow (Section III, Example 2):

1. For each output bit ``z_i``, apply backward rewriting (Algorithm 1)
   to obtain its canonical GF(2) expression over the primary inputs.
2. Initialise ``P(x) = x^m`` (Theorem 3: x^m is always present).
3. For each bit i, add ``x^i`` to P(x) iff the entire out-field product
   set ``P_m`` occurs in the expression of ``z_i``.

The extractor is black-box over the implementation: Mastrovito,
Montgomery, schoolbook, synthesized/technology-mapped — anything that
computes ``A·B mod P(x)`` with the standard port naming.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.engine import DEFAULT_ENGINE, ConeExpression
from repro.extract.outfield import outfield_products
from repro.fieldmath.bitpoly import bitpoly_str
from repro.fieldmath.irreducible import is_irreducible
from repro.gf2.polynomial import Gf2Poly
from repro.netlist.netlist import Netlist
from repro.rewrite.parallel import ExtractionRun, extract_expressions


class ExtractionError(RuntimeError):
    """The netlist does not look like an m-bit GF(2^m) multiplier."""


@dataclass
class ExtractionResult:
    """Everything Algorithm 2 learned about the design."""

    #: The recovered irreducible polynomial as a bit mask.
    modulus: int
    #: Field size (number of output bits).
    m: int
    #: Whether the recovered P(x) passes the Rabin irreducibility test.
    irreducible: bool
    #: Which output bits contained the full out-field set P_m.
    member_bits: List[int]
    #: The per-bit extraction run (expressions + stats).
    run: ExtractionRun
    #: Wall-clock time of the whole extraction (rewriting + analysis).
    total_time_s: float = 0.0

    @property
    def polynomial_str(self) -> str:
        """P(x) in the paper's notation, e.g. ``x^4 + x + 1``."""
        return bitpoly_str(self.modulus)

    def expression_of(self, bit: int) -> Gf2Poly:
        """Canonical expression of output bit ``z_bit``."""
        return self.run.expressions[f"z{bit}"]


def multiplier_field_size(netlist: Netlist) -> int:
    """Validate the a/b/z multiplier port contract; return m."""
    m = len(netlist.outputs)
    if m < 1:
        raise ExtractionError("netlist has no outputs")
    expected_outputs = {f"z{i}" for i in range(m)}
    if set(netlist.outputs) != expected_outputs:
        raise ExtractionError(
            f"outputs must be named z0..z{m - 1}, got {netlist.outputs}"
        )
    expected_inputs = {f"a{i}" for i in range(m)} | {
        f"b{i}" for i in range(m)
    }
    if set(netlist.inputs) != expected_inputs:
        raise ExtractionError(
            f"inputs must be named a0..a{m - 1}, b0..b{m - 1}; "
            f"got {sorted(netlist.inputs)[:6]}..."
        )
    return m


def extract_from_expressions(
    expressions: Dict[str, Gf2Poly], m: int
) -> Tuple[int, List[int]]:
    """Algorithm 2 lines 2 and 6-9 given already-extracted expressions.

    Returns ``(modulus, member_bits)``.
    """
    from repro.engine import ReferenceExpression

    return extract_from_cones(
        {
            output: ReferenceExpression(poly)
            for output, poly in expressions.items()
        },
        m,
    )


def extract_from_cones(
    cones: Mapping[str, ConeExpression], m: int
) -> Tuple[int, List[int]]:
    """Algorithm 2 lines 2 and 6-9 on backend-native expressions.

    The membership test runs in each backend's own representation —
    for the ``bitpack`` engine directly on the packed ``set[int]``,
    with the out-field products packed through the cone's interner —
    so no expression is decoded just to ask whether ``P_m`` occurs.
    """
    products = outfield_products(m)
    modulus = 1 << m  # line 2: P(x) initialised to x^m
    member_bits: List[int] = []
    for bit in range(m):
        if cones[f"z{bit}"].contains_products(products):
            modulus |= 1 << bit  # line 7: P(x) += x^i
            member_bits.append(bit)
    return modulus, member_bits


def result_from_run(
    run: ExtractionRun, m: int, total_time_s: float = 0.0
) -> ExtractionResult:
    """Algorithm 2's analysis phase on an existing extraction run.

    Shared by the direct entry point below and the service layer's
    checkpointed jobs (:mod:`repro.service.jobs`), which assemble the
    run themselves from resumed + fresh shards.
    """
    if run.cones:
        modulus, member_bits = extract_from_cones(run.cones, m)
    else:  # runs built by hand may carry only decoded expressions
        modulus, member_bits = extract_from_expressions(run.expressions, m)
    return ExtractionResult(
        modulus=modulus,
        m=m,
        irreducible=is_irreducible(modulus),
        member_bits=member_bits,
        run=run,
        total_time_s=total_time_s,
    )


def extract_irreducible_polynomial(
    netlist: Netlist,
    term_limit: Optional[int] = None,
    measure_memory: bool = False,
    engine: str = DEFAULT_ENGINE,
    cache=None,
    on_result=None,
    telemetry=None,
) -> ExtractionResult:
    """Reverse engineer P(x) from a gate-level GF(2^m) multiplier.

    ``term_limit`` bounds intermediate expression size per bit (the
    paper's memory-out condition).  ``engine`` selects the rewriting
    backend (see :mod:`repro.engine`); every backend recovers the same
    P(x).

    ``cache`` (optionally, a :class:`repro.service.cache.ResultCache`)
    answers a structurally identical netlist without rewriting a gate
    and stores fresh results; on a miss it serves the per-cone tier of
    :func:`~repro.rewrite.parallel.extract_expressions`, so an edited
    netlist rewrites only its dirty cones (the ECO path).

    ``on_result`` fires once per completed bit with ``(output, cone,
    stats)`` — the progress feed of the HTTP API's job endpoints —
    and ``telemetry`` selects the :class:`repro.telemetry.Telemetry`
    registry the run's spans and counters land in (default: the
    active one).  A cache hit short-circuits both.

    >>> from repro.gen.mastrovito import generate_mastrovito
    >>> result = extract_irreducible_polynomial(generate_mastrovito(0b10011))
    >>> result.polynomial_str
    'x^4 + x + 1'
    >>> extract_irreducible_polynomial(
    ...     generate_mastrovito(0b10011), engine="bitpack"
    ... ).polynomial_str
    'x^4 + x + 1'
    """
    started = time.perf_counter()
    m = multiplier_field_size(netlist)
    key = None
    if cache is not None:
        key = cache.fingerprint(netlist)  # once: strash + hash is O(n)
        cached = cache.get_extraction(key)
        if cached is not None:
            return cached
    run = extract_expressions(
        netlist,
        outputs=[f"z{i}" for i in range(m)],
        term_limit=term_limit,
        measure_memory=measure_memory,
        engine=engine,
        on_result=on_result,
        cache=cache,
        telemetry=telemetry,
    )
    result = result_from_run(run, m)
    # Stamp after the Algorithm-2 analysis phase so the total covers
    # rewriting *and* membership/irreducibility, as it always has.
    result.total_time_s = time.perf_counter() - started
    if cache is not None:
        cache.put_extraction(key, result)
    return result
