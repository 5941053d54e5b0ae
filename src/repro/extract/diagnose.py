"""End-to-end netlist triage built on extraction + verification.

``extract_irreducible_polynomial`` answers one narrow question; users
auditing unknown netlists need the full decision tree:

* Is this even shaped like a GF(2^m) multiplier (ports, combinational
  cone completeness)?
* Did Algorithm 2 recover an *irreducible* P(x)?
* Does the implementation actually match ``A·B mod P(x)`` — the
  paper's golden-model check, which catches both buggy multipliers
  and correct multipliers in a different basis (normal-basis designs
  can fool the membership test alone; see the test suite)?

:func:`diagnose` runs that tree and returns a structured verdict with
evidence (failing bits, a concrete counterexample vector when one
exists).
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.engine import DEFAULT_ENGINE
from repro.extract.extractor import (
    ExtractionError,
    ExtractionResult,
    extract_irreducible_polynomial,
)
from repro.extract.verify import (
    VerificationReport,
    first_mismatch,
    verify_multiplier,
)
from repro.fieldmath.bitpoly import bitpoly_str
from repro.fieldmath.gf2m import GF2m
from repro.gen.naming import input_nets, value_assignment
from repro.netlist.netlist import Netlist
from repro.rewrite.backward import BackwardRewriteError, TermLimitExceeded


class Verdict(enum.Enum):
    """Outcome classes of a netlist diagnosis."""

    #: Extraction succeeded, P(x) irreducible, golden model matches.
    VERIFIED_MULTIPLIER = "verified-multiplier"
    #: Single-operand ports; the squarer extension recovered and
    #: verified P(x) against the full squaring matrix.
    VERIFIED_SQUARER = "verified-squarer"
    #: Single-operand ports but the squaring matrix matches no P(x).
    NOT_A_SQUARER = "not-a-squarer"
    #: Extraction produced a reducible mask — not a field multiplier
    #: in polynomial basis (wrong basis, heavy bug, or not a multiplier).
    REDUCIBLE_POLYNOMIAL = "reducible-polynomial"
    #: P(x) looked plausible but the implementation differs from
    #: ``A·B mod P(x)`` — buggy multiplier or non-polynomial basis.
    NOT_EQUIVALENT = "not-equivalent"
    #: Ports are not the standard a/b/z multiplier interface.
    MALFORMED_PORTS = "malformed-ports"
    #: Backward rewriting failed (incomplete cone, non-combinational).
    REWRITE_FAILED = "rewrite-failed"
    #: The intermediate expressions outgrew the configured term limit.
    MEMORY_OUT = "memory-out"


@dataclass
class Diagnosis:
    """Structured triage result for one netlist."""

    verdict: Verdict
    netlist_name: str
    #: Present whenever extraction ran to completion.
    extraction: Optional[ExtractionResult] = None
    #: Present whenever the golden-model check ran.
    verification: Optional[VerificationReport] = None
    #: An input assignment on which the implementation disagrees with
    #: the golden model (None when equivalent or not applicable).
    counterexample: Optional[Dict[str, int]] = None
    #: Human-readable explanation of the verdict.
    reason: str = ""
    runtime_s: float = 0.0

    @property
    def is_clean(self) -> bool:
        """True only for a verified multiplier or squarer."""
        return self.verdict in (
            Verdict.VERIFIED_MULTIPLIER,
            Verdict.VERIFIED_SQUARER,
        )

    def render(self) -> str:
        """Multi-line report for CLI / example output."""
        lines = [
            f"diagnosis of {self.netlist_name}",
            "=" * (13 + len(self.netlist_name)),
            f"verdict : {self.verdict.value}",
            f"reason  : {self.reason}",
        ]
        if self.extraction is not None:
            lines.append(
                f"P(x)    : {self.extraction.polynomial_str}"
                + ("" if self.extraction.irreducible else "  (reducible)")
            )
        if self.verification is not None:
            failing = self.verification.failing_bits
            if failing:
                shown = ", ".join(f"z{bit}" for bit in failing[:8])
                lines.append(f"bad bits: {shown}")
        if self.counterexample is not None:
            pairs = ", ".join(
                f"{name}={value}"
                for name, value in sorted(self.counterexample.items())
            )
            lines.append(f"counterexample: {pairs}")
        lines.append(f"runtime : {self.runtime_s:.3f} s")
        return "\n".join(lines)


def diagnose(
    netlist: Netlist,
    term_limit: Optional[int] = None,
    find_counterexample: bool = True,
    engine: str = DEFAULT_ENGINE,
    cache=None,
) -> Diagnosis:
    """Triage a netlist: verified multiplier, buggy, or out of scope.

    ``engine`` selects the rewriting backend (see :mod:`repro.engine`);
    the verdict is backend-independent.  ``cache`` (optionally, a
    :class:`repro.service.cache.ResultCache`) is threaded through to
    the extraction phases — the multiplier *and* squarer branches —
    with every tier they use: a structural duplicate never rewrites a
    gate, and an edited version of an extracted baseline rewrites only
    the cones the edit touched (the ECO path — see
    :mod:`repro.service.eco`).

    >>> from repro.gen.mastrovito import generate_mastrovito
    >>> diagnose(generate_mastrovito(0b10011)).verdict.value
    'verified-multiplier'
    """
    started = time.perf_counter()

    def finish(diagnosis: Diagnosis) -> Diagnosis:
        diagnosis.runtime_s = time.perf_counter() - started
        return diagnosis

    if _looks_like_squarer(netlist):
        return finish(
            _diagnose_squarer(netlist, cache=cache, engine=engine)
        )

    try:
        result = extract_irreducible_polynomial(
            netlist,
            term_limit=term_limit,
            engine=engine,
            cache=cache,
        )
    except (ExtractionError, BackwardRewriteError) as error:
        return finish(
            Diagnosis(
                verdict=_failure_verdict(error),
                netlist_name=netlist.name,
                reason=str(error),
            )
        )

    if not result.irreducible:
        return finish(
            Diagnosis(
                verdict=Verdict.REDUCIBLE_POLYNOMIAL,
                netlist_name=netlist.name,
                extraction=result,
                reason=(
                    f"recovered mask {result.polynomial_str} is reducible; "
                    "no polynomial-basis GF(2^m) multiplier produces it"
                ),
            )
        )

    verification = verify_multiplier(netlist, result, engine=engine)
    if verification.equivalent:
        return finish(
            Diagnosis(
                verdict=Verdict.VERIFIED_MULTIPLIER,
                netlist_name=netlist.name,
                extraction=result,
                verification=verification,
                reason=(
                    f"implementation matches A*B mod "
                    f"{bitpoly_str(result.modulus)}"
                ),
            )
        )

    counterexample = None
    if find_counterexample:
        counterexample = _find_counterexample(netlist, result)
    return finish(
        Diagnosis(
            verdict=Verdict.NOT_EQUIVALENT,
            netlist_name=netlist.name,
            extraction=result,
            verification=verification,
            counterexample=counterexample,
            reason=(
                "extracted P(x) is irreducible but the implementation "
                "does not compute A*B mod P(x) — buggy multiplier or "
                "non-polynomial-basis design"
            ),
        )
    )


def _failure_verdict(error: Exception) -> Verdict:
    """The verdict of an extraction that raised ``error``."""
    if isinstance(error, ExtractionError):
        return Verdict.MALFORMED_PORTS
    if isinstance(error, TermLimitExceeded):
        return Verdict.MEMORY_OUT
    return Verdict.REWRITE_FAILED


def _looks_like_squarer(netlist: Netlist) -> bool:
    """Single-operand multiplier ports: inputs a0.. only, outputs z0..

    Two-operand netlists (with b inputs) always take the multiplier
    path, including malformed ones — this routing only fires on the
    exact squarer port shape.
    """
    m = len(netlist.outputs)
    if m < 1:
        return False
    return set(netlist.inputs) == {f"a{i}" for i in range(m)} and set(
        netlist.outputs
    ) == {f"z{i}" for i in range(m)}


def _diagnose_squarer(
    netlist: Netlist,
    cache=None,
    engine: str = DEFAULT_ENGINE,
) -> Diagnosis:
    """The squarer branch of the decision tree."""
    from repro.extract.squarer import (
        SquarerExtractionError,
        extract_squarer_polynomial,
    )

    try:
        result = extract_squarer_polynomial(
            netlist, cache=cache, engine=engine
        )
    except (SquarerExtractionError, BackwardRewriteError) as error:
        return Diagnosis(
            verdict=(
                Verdict.NOT_A_SQUARER
                if isinstance(error, SquarerExtractionError)
                else Verdict.REWRITE_FAILED
            ),
            netlist_name=netlist.name,
            reason=str(error),
        )
    if result.verified and result.irreducible:
        return Diagnosis(
            verdict=Verdict.VERIFIED_SQUARER,
            netlist_name=netlist.name,
            reason=(
                f"implementation matches A^2 mod "
                f"{bitpoly_str(result.modulus)}"
            ),
        )
    return Diagnosis(
        verdict=Verdict.NOT_A_SQUARER,
        netlist_name=netlist.name,
        reason=(
            "linear circuit, but its matrix is not the squaring matrix "
            f"of any irreducible P(x) (closest candidate: "
            f"{result.polynomial_str})"
        ),
    )


def _find_counterexample(
    netlist: Netlist, result: ExtractionResult, max_values: int = 64
) -> Optional[Dict[str, int]]:
    """Search operand pairs for a disagreement with the golden model.

    Exhaustive for small m, bounded sweep otherwise; the algebraic
    verdict already proved a mismatch exists, the sweep just makes it
    concrete (it can miss one when the operand space is large).  The
    ``bound x bound`` window is simulated in one bit-parallel pass;
    the first disagreeing pair in row-major ``(a, b)`` order wins.
    """
    m = result.m
    field = GF2m(result.modulus, check_irreducible=False)
    bound = min(1 << m, max_values)
    pairs = [(a, b) for a in range(bound) for b in range(bound)]
    lane = first_mismatch(netlist, field, m, pairs)
    if lane is None:
        return None
    a_value, b_value = pairs[lane]
    assignment = dict(value_assignment(input_nets(m, "a"), a_value))
    assignment.update(value_assignment(input_nets(m, "b"), b_value))
    return assignment
