"""Differential tests for the ``vector`` engine name.

The engine contract (:mod:`repro.engine`) requires bit-identical
*results* from every backend; ``vector`` is another name for the
``bitpack`` engine, and this suite drives it across the generator zoo
(flat, synthesized, NAND-mapped) and checks error parity."""

import pytest

import repro.engine.bitpack as bitpack_module
from repro.engine import BitpackEngine, get_engine, registered_engines
from repro.extract.diagnose import diagnose
from repro.extract.extractor import extract_irreducible_polynomial
from repro.gen.digit_serial import generate_digit_serial
from repro.gen.faults import random_fault
from repro.gen.interleaved import generate_interleaved
from repro.gen.karatsuba import generate_karatsuba
from repro.gen.mastrovito import generate_mastrovito
from repro.gen.montgomery import generate_montgomery
from repro.gen.random_logic import generate_random_netlist
from repro.gen.schoolbook import generate_schoolbook
from repro.netlist.gate import Gate, GateType
from repro.netlist.netlist import Netlist
from repro.rewrite.backward import (
    BackwardRewriteError,
    TermLimitExceeded,
    backward_rewrite,
)
from repro.synth.pipeline import synthesize

GENERATORS = {
    "mastrovito": generate_mastrovito,
    "schoolbook": generate_schoolbook,
    "montgomery": generate_montgomery,
    "karatsuba": generate_karatsuba,
    "interleaved": generate_interleaved,
    "interleaved-lsb": lambda modulus: generate_interleaved(
        modulus, msb_first=False
    ),
    "digit-serial": generate_digit_serial,
}


def force_small_flat_bounds(monkeypatch):
    """Shrink both flattening bounds so live nodes stay unflattened
    and rewriting substitutes through models (fresh compiles only)."""
    monkeypatch.setattr(bitpack_module, "_FLAT_BOUND", 2)
    monkeypatch.setattr(bitpack_module, "_FLAT_SHARED_BOUND", 2)


def assert_extractions_identical(netlist):
    reference = extract_irreducible_polynomial(netlist, engine="reference")
    vector = extract_irreducible_polynomial(netlist, engine="vector")
    assert vector.modulus == reference.modulus
    assert vector.member_bits == reference.member_bits
    assert vector.irreducible == reference.irreducible
    for bit in range(reference.m):
        assert vector.expression_of(bit) == reference.expression_of(bit)


class TestGeneratorZoo:
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_flat(self, name):
        assert_extractions_identical(GENERATORS[name](0b1011011))

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_synthesized(self, name):
        assert_extractions_identical(synthesize(GENERATORS[name](0b100101)))

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_nand_mapped(self, name):
        assert_extractions_identical(
            synthesize(GENERATORS[name](0b100101), use_xor_cells=False)
        )

    def test_registered(self):
        assert "vector" in registered_engines()
        assert get_engine("vector") is get_engine("bitpack")


class TestRandomNetlists:
    @pytest.mark.parametrize("seed", range(40))
    def test_per_cone_identity_and_error_parity(self, seed):
        """Expression-identical where the oracle succeeds, the same
        structural failure where it raises."""
        netlist = generate_random_netlist(seed)
        for output in netlist.outputs:
            try:
                expected, _ = backward_rewrite(
                    netlist, output, engine="reference"
                )
            except BackwardRewriteError:
                with pytest.raises(BackwardRewriteError):
                    backward_rewrite(netlist, output, engine="vector")
                continue
            actual, _ = backward_rewrite(netlist, output, engine="vector")
            assert actual == expected


class TestFailureModes:
    def test_incomplete_cone_raises(self):
        netlist = Netlist("t", inputs=["a0"], outputs=["z0"])
        netlist.add_gate(Gate("z0", GateType.AND, ("a0", "floating")))
        with pytest.raises(BackwardRewriteError):
            backward_rewrite(netlist, "z0", engine="vector")

    def test_unknown_output_raises(self):
        netlist = generate_mastrovito(0b1011)
        with pytest.raises(BackwardRewriteError):
            backward_rewrite(netlist, "nonexistent", engine="vector")

    def test_term_limit_is_memory_out(self):
        with pytest.raises(TermLimitExceeded):
            extract_irreducible_polynomial(
                generate_mastrovito(0b100011011),
                engine="vector",
                term_limit=2,
            )

    def test_fault_verdicts_match(self):
        mutant, _ = random_fault(generate_mastrovito(0b10011), seed=1)
        assert (
            diagnose(mutant, engine="vector").verdict
            is diagnose(mutant, engine="reference").verdict
        )

    def test_trace_records_steps(self, monkeypatch):
        # Small multipliers flatten whole cones below the default
        # bounds (no substitution steps at all); shrink them so the
        # substitution loop actually runs and traces.
        force_small_flat_bounds(monkeypatch)
        netlist = synthesize(
            generate_mastrovito(0b10011), use_xor_cells=False
        )
        engine = BitpackEngine()
        _, stats = backward_rewrite(netlist, "z0", engine=engine, trace=True)
        program = engine._compiled_for(netlist)
        # The forced bound leaves z0 unflattened.
        assert program.net_literal["z0"] >> 1 not in program.flats
        assert stats.iterations > 0
        assert len(stats.trace) == stats.iterations
        reference, _ = backward_rewrite(netlist, "z0", engine="reference")
        assert stats.trace[-1].expression == str(reference)


class TestMatrixLoopStress:
    """Force per-bit ``vector`` substitution across the zoo.

    With the default flat bound, small multipliers collapse entirely
    into precomputed flat polynomials and the substitution loop never
    runs; shrinking the bound makes every cone rewrite step by step,
    which is what these tests pin against the oracle.
    """

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_forced_substitution_matches_reference(
        self, name, monkeypatch
    ):
        force_small_flat_bounds(monkeypatch)
        netlist = synthesize(GENERATORS[name](0b100101), use_xor_cells=False)
        reference = extract_irreducible_polynomial(
            netlist, engine="reference"
        )
        # Fresh instance: it must compile *under* the shrunken bound.
        engine = BitpackEngine()
        vector = extract_irreducible_polynomial(netlist, engine=engine)
        program = engine._compiled_for(netlist)
        assert any(  # the forced bound leaves an output unflattened
            program.net_literal[output] >> 1 not in program.flats
            for output in netlist.outputs
        )
        assert vector.modulus == reference.modulus
        assert vector.member_bits == reference.member_bits
        for bit in range(reference.m):
            assert vector.expression_of(bit) == reference.expression_of(bit)

    def test_m16_nand_mapped_exceeds_flat_bound(self):
        """The NAND-mapped m=16 Montgomery cones outgrow the default
        flat bounds, so the production configuration drives the loop
        too."""
        from repro.fieldmath.irreducible import default_irreducible

        netlist = synthesize(
            generate_montgomery(default_irreducible(16)),
            use_xor_cells=False,
        )
        reference = extract_irreducible_polynomial(
            netlist, engine="reference"
        )
        engine = BitpackEngine()
        vector = extract_irreducible_polynomial(netlist, engine=engine)
        program = engine._compiled_for(netlist)
        assert any(
            program.net_literal[output] >> 1 not in program.flats
            for output in netlist.outputs
        )
        assert vector.modulus == reference.modulus
        for bit in range(reference.m):
            assert vector.expression_of(bit) == reference.expression_of(bit)


class TestPerBitIsBitpack:
    """Per-bit ``vector`` is bitpack's loop over bitpack's program."""

    @pytest.mark.parametrize("trace", [False, True])
    def test_rewrite_cone_matches_bitpack_stats(self, trace, monkeypatch):
        import dataclasses

        force_small_flat_bounds(monkeypatch)
        netlist = synthesize(
            generate_montgomery(0b100101), use_xor_cells=False
        )
        vector, bitpack = type(get_engine("vector"))(), BitpackEngine()
        substituted = 0
        for output in netlist.outputs:
            expected, expected_stats = bitpack.rewrite_cone(
                netlist, output, trace=trace
            )
            actual, actual_stats = vector.rewrite_cone(
                netlist, output, trace=trace
            )
            assert actual.masks == expected.masks
            assert actual.decode() == expected.decode()
            fields = dataclasses.asdict(actual_stats)
            expected_fields = dataclasses.asdict(expected_stats)
            del fields["runtime_s"], expected_fields["runtime_s"]
            assert fields == expected_fields
            substituted += actual_stats.iterations
        assert substituted > 0  # the forced bounds reach the loop
