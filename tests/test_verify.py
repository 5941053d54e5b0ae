"""Tests for golden-model verification."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.extract.diagnose import Verdict, _find_counterexample, diagnose
from repro.extract.extractor import extract_irreducible_polynomial
from repro.extract.verify import (
    LANE_WIDTH,
    _simulation_check,
    golden_lanes,
    grid_lanes,
    pack_lanes,
    verify_multiplier,
)
from repro.fieldmath.gf2m import GF2m
from repro.fieldmath.irreducible import default_irreducible
from repro.gen.digit_serial import generate_digit_serial
from repro.gen.faults import FaultError, random_fault
from repro.gen.interleaved import generate_interleaved
from repro.gen.karatsuba import generate_karatsuba
from repro.gen.mastrovito import generate_mastrovito
from repro.gen.montgomery import generate_montgomery
from repro.gen.schoolbook import generate_schoolbook
from repro.synth.pipeline import synthesize
from repro.netlist.gate import Gate, GateType
from repro.netlist.netlist import Netlist


class TestHappyPath:
    @pytest.mark.parametrize("modulus", [0b111, 0b1011, 0b10011, 0x11B])
    def test_correct_multiplier_verifies(self, modulus):
        netlist = generate_mastrovito(modulus)
        result = extract_irreducible_polynomial(netlist)
        report = verify_multiplier(netlist, result)
        assert report.equivalent
        assert report.irreducible
        assert report.simulation_ok
        assert report.failing_bits == []
        assert "EQUIVALENT" in str(report)

    def test_montgomery_verifies(self):
        netlist = generate_montgomery(0b10011)
        result = extract_irreducible_polynomial(netlist)
        assert verify_multiplier(netlist, result).equivalent


class TestBugDetection:
    def _buggy_multiplier(self) -> Netlist:
        """A Mastrovito multiplier with one XOR swapped for OR."""
        netlist = generate_mastrovito(0b10011)
        buggy = Netlist(netlist.name, inputs=netlist.inputs)
        flipped = False
        for gate in netlist.topological_order():
            if not flipped and gate.gtype is GateType.XOR and (
                gate.output == "z2"
            ):
                buggy.add_gate(Gate(gate.output, GateType.OR, gate.inputs))
                flipped = True
            else:
                buggy.add_gate(gate)
        for net in netlist.outputs:
            buggy.add_output(net)
        assert flipped
        return buggy

    def test_gate_bug_caught(self):
        buggy = self._buggy_multiplier()
        result = extract_irreducible_polynomial(buggy)
        report = verify_multiplier(buggy, result)
        assert not report.equivalent
        assert 2 in report.failing_bits
        assert "NOT EQUIVALENT" in str(report)

    def test_simulation_cross_check_agrees_with_algebra(self):
        """On a buggy circuit both checks must fail (no false greens)."""
        buggy = self._buggy_multiplier()
        result = extract_irreducible_polynomial(buggy)
        report = verify_multiplier(buggy, result)
        algebra_says_bad = not all(report.algebraic.values())
        sim_says_bad = report.simulation_ok is False
        assert algebra_says_bad and sim_says_bad

    def test_skip_simulation(self):
        netlist = generate_mastrovito(0b111)
        result = extract_irreducible_polynomial(netlist)
        report = verify_multiplier(netlist, result, simulate=False)
        assert report.simulation_ok is None
        assert report.equivalent  # algebra alone suffices


class TestRandomisedLarge:
    def test_large_m_uses_random_vectors(self):
        from repro.fieldmath.irreducible import default_irreducible

        modulus = default_irreducible(10)
        netlist = generate_mastrovito(modulus)
        result = extract_irreducible_polynomial(netlist)
        report = verify_multiplier(
            netlist, result, max_exhaustive_m=6, random_vectors=64
        )
        assert report.equivalent
        # 64 random + 4 corner vectors
        assert report.simulation_vectors == 68


# ----------------------------------------------------------------------
# The bit-sliced golden model against a per-pair reference
# ----------------------------------------------------------------------


def per_pair_lanes(values, bits):
    """Operand or product lanes built one pair at a time."""
    lanes = [0] * bits
    for lane, value in enumerate(values):
        for bit in range(bits):
            lanes[bit] |= (value >> bit & 1) << lane
    return lanes


def per_pair_first_mismatch(netlist, field, m, pairs):
    """The lowest lane whose outputs differ from ``field.mul``, with
    the golden side computed pair by pair."""
    assignment = dict(zip(
        [f"a{i}" for i in range(m)], per_pair_lanes([a for a, _ in pairs], m)
    ))
    assignment.update(zip(
        [f"b{i}" for i in range(m)], per_pair_lanes([b for _, b in pairs], m)
    ))
    outputs = netlist.simulate(assignment, width=len(pairs))
    expected = per_pair_lanes([field.mul(a, b) for a, b in pairs], m)
    diff = 0
    for bit in range(m):
        diff |= outputs[f"z{bit}"] ^ expected[bit]
    return (diff & -diff).bit_length() - 1 if diff else None


def per_pair_simulation_check(
    netlist, modulus, m, max_exhaustive_m=6, random_vectors=512, seed=2017
):
    """``_simulation_check`` on an enumerated pair list and GF2m.mul."""
    field = GF2m(modulus, check_irreducible=False)
    if m <= max_exhaustive_m:
        pairs = [(a, b) for a in range(1 << m) for b in range(1 << m)]
    else:
        rng = random.Random(seed)
        top = (1 << m) - 1
        pairs = [
            (rng.randint(0, top), rng.randint(0, top))
            for _ in range(random_vectors)
        ]
        pairs.extend([(0, 0), (1, 1), (top, top), (1, top)])
    for start in range(0, len(pairs), LANE_WIDTH):
        chunk = pairs[start : start + LANE_WIDTH]
        lane = per_pair_first_mismatch(netlist, field, m, chunk)
        if lane is not None:
            return False, start + lane + 1
    return True, len(pairs)


def per_pair_counterexample(netlist, modulus, m, max_values=64):
    """The first pair of the row-major window that disagrees."""
    field = GF2m(modulus, check_irreducible=False)
    bound = min(1 << m, max_values)
    pairs = [(a, b) for a in range(bound) for b in range(bound)]
    lane = per_pair_first_mismatch(netlist, field, m, pairs)
    if lane is None:
        return None
    a_value, b_value = pairs[lane]
    assignment = {f"a{i}": a_value >> i & 1 for i in range(m)}
    assignment.update({f"b{i}": b_value >> i & 1 for i in range(m)})
    return assignment


WIDTHS = st.one_of(st.sampled_from([1, 516, 4096]), st.integers(1, 4100))


class TestGoldenLanes:
    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 96),
        low=st.integers(min_value=0),
        width=WIDTHS,
        seed=st.integers(0, 2**32),
    )
    def test_equals_gf2m_mul_lane_by_lane(self, m, low, width, seed):
        """Any degree-m modulus, reducible ones included."""
        modulus = 1 << m | low % (1 << m)
        rng = random.Random(seed)
        lhs = [rng.getrandbits(m) for _ in range(width)]
        rhs = [rng.getrandbits(m) for _ in range(width)]
        field = GF2m(modulus, check_irreducible=False)
        sliced = golden_lanes(modulus, pack_lanes(lhs, m), pack_lanes(rhs, m))
        expected = per_pair_lanes(
            [field.mul(a, b) for a, b in zip(lhs, rhs)], m
        )
        assert sliced == expected

    @pytest.mark.parametrize("m", range(1, 9))
    def test_grid_lanes_equal_packed_grid(self, m):
        for bound in sorted({1, 2, 3, 5, min(1 << m, 64), 1 << m}):
            if bound > 1 << m:
                continue
            pairs = [(a, b) for a in range(bound) for b in range(bound)]
            assert grid_lanes(m, bound) == (
                pack_lanes([a for a, _ in pairs], m),
                pack_lanes([b for _, b in pairs], m),
            ), bound

    def test_pack_lanes_equals_per_pair_packing(self):
        values = [random.Random(5).getrandbits(9) for _ in range(300)]
        assert pack_lanes(values, 9) == per_pair_lanes(values, 9)
        assert pack_lanes([], 3) == [0, 0, 0]


ZOO_GENERATORS = {
    "mastrovito": generate_mastrovito,
    "schoolbook": generate_schoolbook,
    "montgomery": generate_montgomery,
    "karatsuba": generate_karatsuba,
    "interleaved": generate_interleaved,
    "digit-serial": generate_digit_serial,
}

ZOO_FORMS = {
    "flat": lambda netlist: netlist,
    "synth": synthesize,
    "nand": lambda netlist: synthesize(netlist, use_xor_cells=False),
}


def zoo_and_mutants(name, form, m):
    netlist = ZOO_FORMS[form](ZOO_GENERATORS[name](default_irreducible(m)))
    yield netlist
    for seed in range(2):
        try:
            yield random_fault(netlist, seed=seed)[0]
        except FaultError:
            pass


class TestZooAgainstPerPairReference:
    """The sliced golden model changes no verdict, vector count or
    counterexample anywhere in the generator zoo or its mutants."""

    @pytest.mark.parametrize("m", [5, 8])
    @pytest.mark.parametrize("form", sorted(ZOO_FORMS))
    @pytest.mark.parametrize("name", sorted(ZOO_GENERATORS))
    def test_reports_and_counterexamples(self, name, form, m):
        for netlist in zoo_and_mutants(name, form, m):
            diagnosis = diagnose(netlist, engine="bitpack")
            result = diagnosis.extraction
            if result is None:
                continue
            modulus = result.modulus
            assert _simulation_check(
                netlist, modulus, m, 6, 512, 2017
            ) == per_pair_simulation_check(netlist, modulus, m)
            if diagnosis.verification is not None:
                report = diagnosis.verification
                assert (
                    report.simulation_ok, report.simulation_vectors
                ) == per_pair_simulation_check(netlist, modulus, m)
            expected = per_pair_counterexample(netlist, modulus, m)
            assert _find_counterexample(netlist, result) == expected
            if diagnosis.verdict is Verdict.NOT_EQUIVALENT:
                assert diagnosis.counterexample == expected

    @pytest.mark.parametrize("seed", range(3))
    def test_exhaustive_grid_over_many_windows(self, seed):
        """m = 8 exhaustive is 16 windows of the closed-form grid."""
        clean = generate_mastrovito(default_irreducible(8))
        mutant, _ = random_fault(clean, seed=seed)
        modulus = default_irreducible(8)
        assert _simulation_check(
            mutant, modulus, 8, 8, 0, 0
        ) == per_pair_simulation_check(mutant, modulus, 8, 8)
        assert _simulation_check(clean, modulus, 8, 8, 0, 0) == (True, 1 << 16)
