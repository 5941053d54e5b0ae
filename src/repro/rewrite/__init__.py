"""Backward rewriting over GF(2^m) — the paper's core engine.

``gate_models``
    the algebraic models of Eq. (1), extended to the complex standard
    cells produced by technology mapping;
``backward``
    Algorithm 1 — per-output-bit backward rewriting with mod-2
    cancellation, statistics (iteration counts, peak term counts,
    per-step timing) and an optional Figure-3 style trace;
``parallel``
    the n-thread driver ("reverse engineer the irreducible polynomial
    of an n-bit GF multiplier in n threads") — a process pool in
    Python, with a sequential fallback;
``signature``
    output/input signatures ``Sig_out = Σ z_i x^i`` and the
    specification expressions of ``A·B mod P(x)`` per output bit.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "gate_model": "repro.rewrite.gate_models",
    "gate_model_poly": "repro.rewrite.gate_models",
    "BackwardRewriteError": "repro.rewrite.backward",
    "RewriteStats": "repro.rewrite.backward",
    "TermLimitExceeded": "repro.rewrite.backward",
    "backward_rewrite": "repro.rewrite.backward",
    "backward_rewrite_all": "repro.rewrite.backward",
    "extract_expressions": "repro.rewrite.parallel",
    "output_signature": "repro.rewrite.signature",
    "spec_expression": "repro.rewrite.signature",
    "spec_expressions": "repro.rewrite.signature",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
