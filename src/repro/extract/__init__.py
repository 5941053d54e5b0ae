"""Irreducible-polynomial extraction (Algorithm 2) and verification.

``outfield``
    the first out-field product set ``P_m = {a_i·b_j : i+j = m}``;
``extractor``
    Algorithm 2 — extract every output bit's expression, then decide
    ``x^i ∈ P(x)`` by testing whether ``P_m`` appears in bit i's
    expression (Theorem 3);
``verify``
    the closing step of the paper's flow — build the golden
    specification from the extracted P(x) and check per-bit algebraic
    equivalence, plus an independent simulation cross-check;
``report``
    human-readable extraction/verification reports;
``diagnose``
    full triage of unknown netlists (verified multiplier / buggy /
    wrong basis / malformed), with counterexamples.
"""

from repro._lazy import lazy_exports

# Eager: ``diagnose`` is also a submodule, and importing it would bind
# the package attribute to the module and shadow a lazy export.
from repro.extract.diagnose import Diagnosis, Verdict, diagnose

_EXPORTS = {
    "outfield_products": "repro.extract.outfield",
    "ExtractionError": "repro.extract.extractor",
    "ExtractionResult": "repro.extract.extractor",
    "extract_irreducible_polynomial": "repro.extract.extractor",
    "extract_from_cones": "repro.extract.extractor",
    "extract_from_expressions": "repro.extract.extractor",
    "VerificationReport": "repro.extract.verify",
    "verify_multiplier": "repro.extract.verify",
    "format_extraction_report": "repro.extract.report",
    "Diagnosis": "repro.extract.diagnose",
    "Verdict": "repro.extract.diagnose",
    "diagnose": "repro.extract.diagnose",
    "SquarerExtractionResult": "repro.extract.squarer",
    "extract_squarer_polynomial": "repro.extract.squarer",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
