"""The packed engines' program is the netlist's live AIG.

``bitpack`` and ``vector`` compile the memoized strash that
the fingerprint already built; only ``reference`` walks raw gates.
These tests pin what follows from that: bitpack's program is complete
at compile time, so every cone reads it as built, and a broken
strash recognition shows up as a wrong answer instead of going
unnoticed.
"""

import pytest

import repro.engine.bitpack as bitpack_module
from repro.aig import Aig
from repro.engine import BitpackEngine
from repro.gen.karatsuba import generate_karatsuba
from repro.gen.mastrovito import generate_mastrovito
from repro.gen.montgomery import generate_montgomery
from repro.gen.schoolbook import generate_schoolbook
from repro.rewrite.parallel import extract_expressions
from repro.synth.pipeline import synthesize


class TestCompleteAtCompileTime:
    @pytest.mark.parametrize("forced", [False, True])
    def test_rewriting_adds_no_model(self, forced, monkeypatch):
        if forced:
            # Keep live nodes unflattened so the rewrite reads models.
            monkeypatch.setattr(bitpack_module, "_FLAT_BOUND", 2)
            monkeypatch.setattr(bitpack_module, "_FLAT_SHARED_BOUND", 2)
        netlist = synthesize(
            generate_mastrovito(0b100011011), use_xor_cells=False
        )
        engine = BitpackEngine()
        engine.prepare(netlist)
        program = engine._compiled_for(netlist)
        models = dict(program._models)
        if forced:
            assert any(
                node not in program.flats
                for node in program.aig.live_nodes()
            )
        for output in netlist.outputs:
            engine.rewrite_cone(netlist, output)
        assert engine._compiled_for(netlist) is program
        assert program._models == models


GENERATORS = (
    generate_mastrovito,
    generate_montgomery,
    generate_karatsuba,
    generate_schoolbook,
)


def zoo_netlists():
    """Flat and NAND-mapped generator-zoo netlists, m <= 8."""
    for modulus in (0b100101, 0b100011011):
        for make in GENERATORS:
            yield make(modulus)
            yield synthesize(make(modulus), use_xor_cells=False)


class TestStrashMutantsBite:
    """A wrong XOR/MUX recognition must change the packed answers."""

    @pytest.mark.parametrize("engine", ["bitpack", "vector"])
    def test_flipped_xor_polarity_disagrees_with_reference(
        self, engine, monkeypatch
    ):
        original = Aig._detect_xor_mux

        def flipped(self, a, b):
            literal = original(self, a, b)
            return None if literal is None else literal ^ 1

        monkeypatch.setattr(Aig, "_detect_xor_mux", flipped)
        disagreements = 0
        for netlist in zoo_netlists():
            # reference: raw gates
            expected = extract_expressions(netlist, engine="reference")
            run = extract_expressions(netlist, engine=engine)
            disagreements += dict(run.expressions.items()) != dict(
                expected.expressions.items()
            )
        assert disagreements > 0
