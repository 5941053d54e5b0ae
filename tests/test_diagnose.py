"""Tests for the diagnosis decision tree."""

import pytest

from repro.extract.diagnose import Verdict, _find_counterexample, diagnose
from repro.extract.extractor import extract_irreducible_polynomial
from repro.fieldmath.gf2m import GF2m
from repro.gen.faults import random_fault, stuck_at
from repro.gen.interleaved import generate_interleaved
from repro.gen.karatsuba import generate_karatsuba
from repro.gen.mastrovito import generate_mastrovito
from repro.gen.montgomery import generate_montgomery
from repro.gen.normal_basis import generate_massey_omura
from repro.netlist.build import NetlistBuilder
from repro.gen.naming import value_assignment
from repro.netlist.netlist import Netlist
from tests.conftest import bit_assignment, exhaustive_pairs


class TestCleanMultipliers:
    @pytest.mark.parametrize(
        "generator",
        [
            generate_mastrovito,
            generate_montgomery,
            generate_karatsuba,
            generate_interleaved,
        ],
        ids=["mastrovito", "montgomery", "karatsuba", "interleaved"],
    )
    def test_verified(self, generator):
        diagnosis = diagnose(generator(0b10011))
        assert diagnosis.verdict is Verdict.VERIFIED_MULTIPLIER
        assert diagnosis.is_clean
        assert diagnosis.extraction.modulus == 0b10011
        assert diagnosis.counterexample is None

    def test_render_mentions_polynomial(self):
        report = diagnose(generate_mastrovito(0b1011)).render()
        assert "x^3 + x + 1" in report
        assert "verified-multiplier" in report


class TestMalformedNetlists:
    def test_wrong_ports(self):
        builder = NetlistBuilder("odd", inputs=["p", "q"])
        out = builder.and2("p", "q")
        builder.set_outputs([out])
        diagnosis = diagnose(builder.finish())
        assert diagnosis.verdict is Verdict.MALFORMED_PORTS
        assert not diagnosis.is_clean

    def test_memory_out(self):
        netlist = generate_montgomery(0b10011)
        diagnosis = diagnose(netlist, term_limit=3)
        assert diagnosis.verdict is Verdict.MEMORY_OUT
        assert "memory-out" in diagnosis.reason


class TestWrongBasis:
    def test_normal_basis_flagged(self):
        """A Massey-Omura multiplier is a correct field multiplier but
        not in polynomial basis; diagnosis must reject it either at
        the irreducibility gate or at golden-model verification."""
        diagnosis = diagnose(generate_massey_omura(0b10011))
        assert diagnosis.verdict in (
            Verdict.REDUCIBLE_POLYNOMIAL,
            Verdict.NOT_EQUIVALENT,
        )
        assert not diagnosis.is_clean


class TestBuggyMultipliers:
    def test_observable_faults_never_verify(self):
        lean = generate_mastrovito(0b10011)
        caught = 0
        observable = 0
        for seed in range(10):
            buggy, _ = random_fault(lean, seed=seed)
            changed = any(
                buggy.simulate(bit_assignment(4, a, b))
                != lean.simulate(bit_assignment(4, a, b))
                for a, b in exhaustive_pairs(4)
            )
            if not changed:
                continue  # structurally injected but functionally benign
            observable += 1
            if not diagnose(buggy).is_clean:
                caught += 1
        assert observable > 0
        assert caught == observable

    def test_counterexample_is_concrete(self):
        lean = generate_mastrovito(0b10011)
        # Tie a reduction XOR to zero: P_m membership often survives,
        # forcing the NOT_EQUIVALENT path with a counterexample.
        for gate in lean.gates:
            buggy, _ = stuck_at(lean, gate.output, 0)
            diagnosis = diagnose(buggy)
            if diagnosis.verdict is Verdict.NOT_EQUIVALENT:
                assert diagnosis.counterexample is not None
                # The counterexample must actually demonstrate the bug.
                assert (
                    buggy.simulate(diagnosis.counterexample)
                    != lean.simulate(diagnosis.counterexample)
                )
                return
        pytest.skip("no stuck-at fault hit the NOT_EQUIVALENT path")

    def test_counterexample_can_be_disabled(self):
        lean = generate_mastrovito(0b10011)
        for gate in lean.gates:
            buggy, _ = stuck_at(lean, gate.output, 0)
            diagnosis = diagnose(buggy, find_counterexample=False)
            if diagnosis.verdict is Verdict.NOT_EQUIVALENT:
                assert diagnosis.counterexample is None
                return
        pytest.skip("no stuck-at fault hit the NOT_EQUIVALENT path")


class TestRewriteFailure:
    def test_incomplete_cone(self):
        """An output fed by an undriven internal net cannot rewrite."""
        netlist = Netlist(
            "broken", inputs=["a0", "b0"], outputs=["z0"]
        )
        from repro.netlist.gate import Gate, GateType

        netlist.add_gate(
            Gate("z0", GateType.AND, ("a0", "dangling"))
        )
        diagnosis = diagnose(netlist)
        assert diagnosis.verdict is Verdict.REWRITE_FAILED


def scalar_counterexample(netlist, result, max_values=64):
    """The reference search: one scalar simulation per operand pair,
    row-major over the ``bound x bound`` window."""
    m = result.m
    field = GF2m(result.modulus, check_irreducible=False)
    a_nets = [f"a{i}" for i in range(m)]
    b_nets = [f"b{i}" for i in range(m)]
    bound = min(1 << m, max_values)
    for a_value in range(bound):
        for b_value in range(bound):
            assignment = dict(value_assignment(a_nets, a_value))
            assignment.update(value_assignment(b_nets, b_value))
            values = netlist.simulate(assignment)
            got = sum(values[f"z{i}"] << i for i in range(m))
            if got != field.mul(a_value, b_value):
                return assignment
    return None


class TestCounterexampleSearch:
    """The bit-parallel window search returns exactly what the scalar
    loop returns: the same first pair, in the same row-major order."""

    @pytest.mark.parametrize(
        "modulus, seeds", [(0b10011, 12), (0b100011011, 4)]
    )
    def test_caught_mutants_match_the_scalar_loop(self, modulus, seeds):
        clean = generate_mastrovito(modulus)
        result = extract_irreducible_polynomial(clean)
        caught = 0
        for seed in range(seeds):
            mutant, _ = random_fault(clean, seed=seed)
            expected = scalar_counterexample(mutant, result)
            assert _find_counterexample(mutant, result) == expected
            caught += expected is not None
        assert caught > 0

    def test_missed_mutant_matches_the_scalar_loop(self):
        """A fault visible only when a7 = b7 = 1 lies outside the 64 x 64
        window: both searches come back empty."""
        clean = generate_mastrovito(0b100011011)
        result = extract_irreducible_polynomial(clean)
        (product,) = [
            gate.output
            for gate in clean.gates
            if set(gate.inputs) == {"a7", "b7"}
        ]
        mutant, _ = stuck_at(clean, product, 0)
        assert mutant.simulate(bit_assignment(8, 0x80, 0x80)) != (
            clean.simulate(bit_assignment(8, 0x80, 0x80))
        )
        assert scalar_counterexample(mutant, result) is None
        assert _find_counterexample(mutant, result) is None

    def test_clean_multiplier_has_no_counterexample(self):
        clean = generate_mastrovito(0b100011011)
        result = extract_irreducible_polynomial(clean)
        assert _find_counterexample(clean, result) is None
