"""Logic synthesis and technology mapping (the ABC [17] stand-in).

Table III of the paper extracts P(x) from multipliers that were
"optimized and mapped using synthesis tool ABC".  This package provides
the equivalent transformation pipeline, entirely in-repo:

``strash``
    structural hashing (common-subexpression elimination), BUF
    aliasing and double-inverter removal;
``sweep``
    dead-gate removal;
``mapping``
    technology mapping onto an INV/NAND/NOR/XOR2/AOI/OAI cell library,
    with peephole AOI/OAI pattern extraction;
``pipeline``
    :func:`synthesize` — the full pass sequence: constant propagation,
    strash and XOR/AND rebalancing run on the hash-consed AIG
    (:mod:`repro.aig`), then technology mapping.

Every pass is function-preserving; the test suite checks simulation
equivalence on random vectors and that extraction still recovers the
same P(x) after any pass combination.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "structural_hash": "repro.synth.strash",
    "sweep_dead_gates": "repro.synth.sweep",
    "technology_map": "repro.synth.mapping",
    "synthesize": "repro.synth.pipeline",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
