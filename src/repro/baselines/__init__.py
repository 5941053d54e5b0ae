"""Baseline techniques the paper positions itself against.

Section I/II argue that (a) existing computer-algebra verification of
GF circuits needs the irreducible polynomial to be *known* [1], and
(b) BDD- and SAT-based techniques do not scale on Galois-field
arithmetic at all.  This package implements all three comparators so
the claims can be measured rather than cited:

``groebner``
    Gröbner-basis-style ideal-membership verification *with a known
    P(x)* — the [1]-style flow our extraction removes the precondition
    from;
``sat``
    Tseitin encoding + a DPLL SAT solver, used for miter-based
    equivalence checking;
``bdd``
    a hash-consed ROBDD engine, used to build output BDDs of GF
    multipliers and watch the node counts explode;
``simprobe``
    the one-vector simulation shortcut (``x · x^(m-1) = P'(x)``) —
    thousands of times faster than extraction and unsound on buggy
    designs, quantifying what the algebraic method actually buys.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "GroebnerReport": "repro.baselines.groebner",
    "verify_known_polynomial": "repro.baselines.groebner",
    "DpllSolver": "repro.baselines.sat",
    "SatResult": "repro.baselines.sat",
    "equivalence_check_sat": "repro.baselines.sat",
    "tseitin_encode": "repro.baselines.sat",
    "BddManager": "repro.baselines.bdd",
    "build_output_bdds": "repro.baselines.bdd",
    "ProbeResult": "repro.baselines.simprobe",
    "probe_polynomial": "repro.baselines.simprobe",
    "probe_then_extract": "repro.baselines.simprobe",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
