"""Gate-level GF(2^m) multiplier generators.

The paper evaluates on multipliers produced by external generators
(Kalla's benchmarks [1]); this package is our from-scratch equivalent.
Every generator takes the irreducible polynomial P(x) as a bit mask and
emits a flattened combinational :class:`~repro.netlist.netlist.Netlist`
with inputs ``a0..a{m-1}``, ``b0..b{m-1}`` and outputs ``z0..z{m-1}``
computing ``Z = A·B mod P(x)``:

``mastrovito``
    the classic Mastrovito structure — per-output XOR trees over the
    shared partial products, with the reduction folded into the product
    matrix (Tables I, III, IV; Figure 4);
``schoolbook``
    the two-stage structure of Figure 1 — explicit ``s_k`` coefficient
    trees followed by a reduction network;
``montgomery``
    a *flattened* Montgomery multiplier — two unrolled bit-serial
    Montgomery steps (``MM(A,B)`` then the ``x^{2m} mod P`` domain
    correction) with no block boundaries in the emitted netlist
    (Tables II, III);
``karatsuba``
    recursive Karatsuba-Ofman product stage (sub-quadratic AND count)
    over the shared reduction network;
``interleaved``
    fully unrolled bit-serial shift-and-add datapath, MSB- or
    LSB-first, with the reduction interleaved into every row;
``normal_basis``
    Massey-Omura multiplier over a *normal* basis — a correct field
    multiplier that polynomial-basis extraction must reject (the
    negative case for Theorem 3);
``redundancy``
    function-preserving decoration emulating raw generator output
    (the pre-synthesis netlists of Tables I/II);
``faults``
    single-fault mutants (gate flip, input swap, stuck-at) for
    exercising the golden-model verification;
``paper_examples``
    the concrete 2-bit and 4-bit circuits of Figures 1-3.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "input_nets": "repro.gen.naming",
    "output_nets": "repro.gen.naming",
    "emit_partial_products": "repro.gen.partial_products",
    "generate_mastrovito": "repro.gen.mastrovito",
    "generate_schoolbook": "repro.gen.schoolbook",
    "generate_montgomery": "repro.gen.montgomery",
    "generate_montgomery_step": "repro.gen.montgomery",
    "generate_karatsuba": "repro.gen.karatsuba",
    "generate_interleaved": "repro.gen.interleaved",
    "generate_digit_serial": "repro.gen.digit_serial",
    "generate_massey_omura": "repro.gen.normal_basis",
    "generate_squarer": "repro.gen.squarer",
    "squaring_matrix": "repro.gen.squarer",
    "generate_tower": "repro.gen.tower",
    "tower_reference": "repro.gen.tower",
    "decorate_with_redundancy": "repro.gen.redundancy",
    "FaultDescription": "repro.gen.faults",
    "FaultError": "repro.gen.faults",
    "flip_gate": "repro.gen.faults",
    "random_fault": "repro.gen.faults",
    "stuck_at": "repro.gen.faults",
    "swap_input": "repro.gen.faults",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
