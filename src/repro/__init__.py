"""repro — Reverse engineering of irreducible polynomials in GF(2^m).

A full reproduction of Yu, Holcomb, Ciesielski, *"Reverse Engineering
of Irreducible Polynomials in GF(2^m) Arithmetic"* (DATE 2017): given a
flattened gate-level netlist of a GF(2^m) multiplier — any algorithm,
any synthesis — recover the irreducible polynomial P(x) the field was
constructed with, and verify the design against the golden ``A·B mod
P(x)`` specification.

Quickstart::

    from repro import (
        generate_mastrovito, extract_irreducible_polynomial,
        verify_multiplier, bitpoly_parse,
    )

    netlist = generate_mastrovito(bitpoly_parse("x^8 + x^4 + x^3 + x + 1"))
    result = extract_irreducible_polynomial(netlist, jobs=4, engine="bitpack")
    print(result.polynomial_str)            # x^8 + x^4 + x^3 + x + 1
    print(verify_multiplier(netlist, result).equivalent)   # True

See README.md at the repository root for the quickstart and the
architecture map (netlist model, the shared hash-consed AIG IR,
generators, rewriting engines, extraction/verification, synthesis,
the caching/batch/HTTP service layer, CLI, benchmarks).

A bare ``import repro`` stays light: every re-export resolves lazily
(PEP 562) and loads its subpackage on first use, so ``import repro``
imports no generator, no engine and no numpy.  ``__all__``,
``dir(repro)`` and ``from repro import *`` still list every name.
"""

from repro._lazy import lazy_exports

__version__ = "1.9.0"

#: Public name → the subpackage it is re-exported from.
_EXPORTS = {
    "Aig": "repro.aig",
    "GF2m": "repro.fieldmath",
    "bitpoly_parse": "repro.fieldmath",
    "bitpoly_str": "repro.fieldmath",
    "is_irreducible": "repro.fieldmath",
    "nist_polynomial": "repro.fieldmath",
    "decorate_with_redundancy": "repro.gen",
    "flip_gate": "repro.gen",
    "generate_digit_serial": "repro.gen",
    "generate_interleaved": "repro.gen",
    "generate_karatsuba": "repro.gen",
    "generate_massey_omura": "repro.gen",
    "generate_mastrovito": "repro.gen",
    "generate_montgomery": "repro.gen",
    "generate_montgomery_step": "repro.gen",
    "generate_schoolbook": "repro.gen",
    "random_fault": "repro.gen",
    "stuck_at": "repro.gen",
    "swap_input": "repro.gen",
    "Gf2Poly": "repro.gf2",
    "parse_poly": "repro.gf2",
    "Gate": "repro.netlist",
    "GateType": "repro.netlist",
    "Netlist": "repro.netlist",
    "NetlistBuilder": "repro.netlist",
    "read_blif": "repro.netlist",
    "read_eqn": "repro.netlist",
    "read_verilog": "repro.netlist",
    "write_blif": "repro.netlist",
    "write_eqn": "repro.netlist",
    "write_verilog": "repro.netlist",
    "balance_and_trees": "repro.aig",
    "balance_xor_trees": "repro.aig",
    "available_engines": "repro.engine",
    "get_engine": "repro.engine",
    "register_engine": "repro.engine",
    "backward_rewrite": "repro.rewrite",
    "backward_rewrite_multi": "repro.rewrite",
    "extract_expressions": "repro.rewrite",
    "Telemetry": "repro.telemetry",
    "Histogram": "repro.telemetry",
    "JsonlSink": "repro.telemetry",
    "MemorySink": "repro.telemetry",
    "get_telemetry": "repro.telemetry",
    "use_telemetry": "repro.telemetry:use",
    "ExtractionRun": "repro.rewrite.parallel",
    "RewriteStats": "repro.rewrite.backward",
    "ResultCache": "repro.service",
    "fingerprint_netlist": "repro.service",
    "run_campaign": "repro.service",
    "Diagnosis": "repro.extract",
    "ExtractionError": "repro.extract",
    "ExtractionResult": "repro.extract",
    "Verdict": "repro.extract",
    "VerificationReport": "repro.extract",
    "diagnose": "repro.extract",
    "extract_irreducible_polynomial": "repro.extract",
    "format_extraction_report": "repro.extract",
    "verify_multiplier": "repro.extract",
}

__all__ = [*_EXPORTS, "__version__"]
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
