"""Human-readable extraction and verification reports.

These are the strings the CLI and the examples print; the benchmark
harnesses use :mod:`repro.analysis.tables` instead for the paper-style
rows.
"""

from __future__ import annotations

from typing import Optional

from repro.extract.extractor import ExtractionResult
from repro.extract.verify import VerificationReport
from repro.fieldmath.bitpoly import bitpoly_str


def format_extraction_report(
    result: ExtractionResult,
    verification: Optional[VerificationReport] = None,
    netlist_gates: Optional[int] = None,
) -> str:
    """Summarise one reverse-engineering run.

    >>> from repro.gen.mastrovito import generate_mastrovito
    >>> from repro.extract.extractor import extract_irreducible_polynomial
    >>> net = generate_mastrovito(0b111)
    >>> print(format_extraction_report(
    ...     extract_irreducible_polynomial(net),
    ...     netlist_gates=len(net)))       # doctest: +ELLIPSIS
    reverse engineering report
    ==========================
    field size            : GF(2^2)
    ...
    """
    lines = ["reverse engineering report", "=" * 26]
    lines.append(f"field size            : GF(2^{result.m})")
    if netlist_gates is not None:
        lines.append(f"# eqns (gates)        : {netlist_gates}")
    lines.append(f"extracted P(x)        : {result.polynomial_str}")
    lines.append(
        f"irreducible           : {'yes' if result.irreducible else 'NO'}"
    )
    lines.append(
        "P_m found in bits     : "
        + (", ".join(f"z{bit}" for bit in result.member_bits) or "(none)")
    )
    lines.append(f"engine                : {result.run.engine}")
    lines.append(f"extraction runtime    : {result.total_time_s:.3f} s")
    lines.append(f"peak expression terms : {result.run.peak_terms}")
    if result.run.peak_memory_bytes is not None:
        mem_mb = result.run.peak_memory_bytes / (1024 * 1024)
        lines.append(f"peak traced memory    : {mem_mb:.1f} MB")
    if verification is not None:
        lines.append(f"verification          : {verification}")
        if verification.simulation_ok is not None:
            lines.append(
                f"simulation vectors    : {verification.simulation_vectors}"
                f" ({'ok' if verification.simulation_ok else 'MISMATCH'})"
            )
    return "\n".join(lines)
