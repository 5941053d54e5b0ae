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
from repro.rewrite.backward import backward_rewrite
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
            # An output left unflattened is rewritten through models.
            assert any(
                program.net_literal[output] >> 1 not in program.flats
                for output in netlist.outputs
            )
        for output in netlist.outputs:
            engine.rewrite_cone(netlist, output)
        assert engine._compiled_for(netlist) is program
        assert program._models == models


class TestKeptFlats:
    """After compile the program keeps only the flats rewriting reads,
    the outputs' and the leaves'; every read past them matches the
    reference engine."""

    @staticmethod
    def _netlist():
        return synthesize(
            generate_mastrovito(0b100011011), use_xor_cells=False
        )

    @staticmethod
    def _output_nodes(program, outputs):
        return {program.net_literal[output] >> 1 for output in outputs}

    def test_only_output_and_leaf_flats_are_kept(self):
        netlist = self._netlist()
        engine = BitpackEngine()
        program = engine._compiled_for(netlist)
        roots = self._output_nodes(program, netlist.outputs)
        assert roots <= set(program.flats)  # m=8 cones all flatten
        assert set(program.flats) <= {0} | set(program.leaf_bits) | roots

    def test_a_live_net_that_is_no_output_matches_reference(self):
        netlist = self._netlist()
        engine = BitpackEngine()
        program = engine._compiled_for(netlist)
        # The compile-time flats: None marks one its reader consumed.
        flats = program._flatten()
        skip = {0} | set(program.leaf_bits)
        skip |= self._output_nodes(program, netlist.outputs)
        consumed, dropped = [], []
        for net, literal in sorted(program.net_literal.items()):
            node = literal >> 1
            if node in skip or node not in flats:
                continue
            (consumed if flats[node] is None else dropped).append(net)
        assert consumed and dropped
        for net in consumed[:25] + dropped[:25]:
            expected, _ = backward_rewrite(netlist, net, engine="reference")
            actual, _ = backward_rewrite(netlist, net, engine=engine)
            assert actual == expected, net
        assert engine._compiled_for(netlist) is program

    def test_traced_outputs_match_reference(self):
        netlist = self._netlist()
        engine = BitpackEngine()
        for output in netlist.outputs:
            actual, stats = backward_rewrite(
                netlist, output, engine=engine, trace=True
            )
            expected, _ = backward_rewrite(
                netlist, output, engine="reference"
            )
            assert actual == expected
            assert stats.trace[-1].expression == str(expected)
            # A flat output is substituted from its kept flat, in one
            # recorded step.
            assert stats.iterations == len(stats.trace) == 1

    def test_the_eco_scope_cut_matches_reference(self):
        netlist = self._netlist()
        scope = ("z1", "z6")
        engine = BitpackEngine()
        engine.prepare(netlist, scope)
        program = engine._compiled_for(netlist, scope)
        roots = self._output_nodes(program, scope)
        assert set(program.flats) <= {0} | set(program.leaf_bits) | roots
        for output in scope:
            expression, _ = engine.rewrite_cone(netlist, output, scope=scope)
            expected, _ = backward_rewrite(
                netlist, output, engine="reference"
            )
            assert expression.decode() == expected

    @pytest.mark.parametrize(
        "bound, shared", [(1, 1), (2, 2), (8, 2), (16, 16), (64, 8)]
    )
    def test_patched_bounds_match_reference(self, bound, shared, monkeypatch):
        # Small bounds make readers undo in-place sums past the bound
        # and leave outputs to the substitution loop.
        monkeypatch.setattr(bitpack_module, "_FLAT_BOUND", bound)
        monkeypatch.setattr(bitpack_module, "_FLAT_SHARED_BOUND", shared)
        for netlist in (self._netlist(), generate_montgomery(0b100011011)):
            run = extract_expressions(netlist, engine=BitpackEngine())
            expected = extract_expressions(netlist, engine="reference")
            assert dict(run.expressions.items()) == dict(
                expected.expressions.items()
            )


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
