"""Cross-module integration tests: the complete paper flow.

These tests chain generation, file I/O, synthesis, extraction,
verification, and the baselines together — the scenarios a downstream
user of the library actually runs.
"""

import pytest

from repro.baselines.groebner import verify_known_polynomial
from repro.baselines.sat import equivalence_check_sat
from repro.extract.extractor import extract_irreducible_polynomial
from repro.extract.report import format_extraction_report
from repro.extract.verify import verify_multiplier
from repro.fieldmath.polynomial_db import PAPER_POLYNOMIALS, scaled_arch_suite
from repro.gen.mastrovito import generate_mastrovito
from repro.gen.montgomery import generate_montgomery
from repro.gen.redundancy import decorate_with_redundancy
from repro.netlist.eqn_io import read_eqn, write_eqn
from repro.synth.pipeline import synthesize


class TestFullFlow:
    def test_blind_reverse_engineering_scenario(self, tmp_path):
        """An analyst receives an anonymous netlist file and recovers
        both the field polynomial and a correctness verdict."""
        secret_p = 0x11B
        vendor_netlist = synthesize(
            decorate_with_redundancy(generate_montgomery(secret_p))
        )
        path = tmp_path / "anonymous.eqn"
        write_eqn(vendor_netlist, path)

        received = read_eqn(path)
        result = extract_irreducible_polynomial(received)
        assert result.modulus == secret_p
        report = verify_multiplier(received, result)
        assert report.equivalent
        text = format_extraction_report(
            result, report, netlist_gates=len(received)
        )
        assert "x^8 + x^4 + x^3 + x + 1" in text

    def test_extraction_enables_known_p_verification(self):
        """The paper's pitch: [1]-style Gröbner verification needs
        P(x); extraction supplies it."""
        modulus = 0b11001
        netlist = generate_mastrovito(modulus)
        recovered = extract_irreducible_polynomial(netlist).modulus
        assert verify_known_polynomial(netlist, recovered).verified

    def test_two_implementations_same_field_cross_check(self):
        """Extract P from one implementation, verify a second
        implementation against it, confirm with SAT."""
        modulus = 0b1011
        mast = generate_mastrovito(modulus)
        mont = generate_montgomery(modulus)
        p_from_mast = extract_irreducible_polynomial(mast).modulus
        p_from_mont = extract_irreducible_polynomial(mont).modulus
        assert p_from_mast == p_from_mont
        equivalent, _ = equivalence_check_sat(mast, mont)
        assert equivalent

    def test_paper_m64_pentanomial(self):
        """The Table I m=64 row end-to-end (paper's smallest size)."""
        modulus = PAPER_POLYNOMIALS[64]
        netlist = generate_mastrovito(modulus)
        result = extract_irreducible_polynomial(netlist)
        assert result.polynomial_str == "x^64 + x^21 + x^19 + x^4 + 1"
        assert result.irreducible
        # Verification on the canonical expressions (skip simulation to
        # keep the test fast; algebra is complete).
        report = verify_multiplier(netlist, result, simulate=False)
        assert report.equivalent

    def test_scaled_table4_suite_distinguishable(self):
        """Each suite polynomial produces a distinct multiplier, and
        extraction tells them apart."""
        suite = scaled_arch_suite(12)
        assert len(suite) >= 3
        recovered = set()
        for _, modulus in suite:
            netlist = generate_mastrovito(modulus)
            recovered.add(extract_irreducible_polynomial(netlist).modulus)
        assert recovered == {p for _, p in suite}


class TestRobustness:
    def test_extraction_deterministic(self):
        netlist = generate_montgomery(0b10011)
        first = extract_irreducible_polynomial(netlist)
        second = extract_irreducible_polynomial(netlist)
        assert first.modulus == second.modulus
        assert first.run.expressions == second.run.expressions

    def test_netlist_not_mutated_by_flow(self):
        netlist = generate_mastrovito(0b10011)
        gates_before = list(netlist.gates)
        extract_irreducible_polynomial(netlist)
        synthesize(netlist)
        assert netlist.gates == gates_before

    def test_report_for_non_multiplier_flags_failure(self):
        """A circuit that is not A*B mod P: extraction returns some
        P(x) but verification reports non-equivalence rather than
        silently passing."""
        from repro.gen.montgomery import generate_montgomery_step

        netlist = generate_montgomery_step(0b1011)
        result = extract_irreducible_polynomial(netlist)
        report = verify_multiplier(netlist, result)
        assert not report.equivalent
