"""Differential tests: the engines that compile the live AIG against
the reference oracle.

``bitpack`` compiles one program from the netlist's memoized live
AIG, and ``vector`` is another name for it.  The engine contract
(:mod:`repro.engine`) requires bit-identical *results* — canonical
expressions, extracted P(x), member bits, verdicts, and failure modes
— from every backend.  This suite drives both names across the full
generator zoo in flat, synthesized and technology-mapped forms, across
faulty mutants, random netlists over the full cell library, and the
structural failure modes, and pins that a request strashes each
netlist once."""

import pytest

from repro.aig import Aig, live_aig
from repro.extract.diagnose import diagnose
from repro.extract.extractor import extract_irreducible_polynomial
from repro.gen.digit_serial import generate_digit_serial
from repro.gen.faults import random_fault
from repro.gen.interleaved import generate_interleaved
from repro.gen.karatsuba import generate_karatsuba
from repro.gen.mastrovito import generate_mastrovito
from repro.gen.montgomery import generate_montgomery
from repro.gen.normal_basis import generate_massey_omura
from repro.gen.random_logic import generate_random_netlist
from repro.gen.schoolbook import generate_schoolbook
from repro.netlist.eqn_io import write_eqn
from repro.netlist.gate import Gate, GateType
from repro.netlist.netlist import Netlist
from repro.rewrite.backward import (
    BackwardRewriteError,
    TermLimitExceeded,
    backward_rewrite,
)
from repro.rewrite.parallel import extract_expressions
from repro.service.fingerprint import fingerprint_with_cones
from repro.service.runner import CampaignRunner
from repro.synth.pipeline import synthesize


def packed_engines():
    """The engine names that compile the live AIG."""
    return ("bitpack", "vector")


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


def assert_extractions_identical(netlist):
    """Every engine agrees with the oracle on every observable
    extraction result."""
    reference = extract_irreducible_polynomial(netlist, engine="reference")
    for engine in packed_engines():
        packed = extract_irreducible_polynomial(netlist, engine=engine)
        assert packed.modulus == reference.modulus
        assert packed.member_bits == reference.member_bits
        assert packed.irreducible == reference.irreducible
        for bit in range(reference.m):
            assert packed.expression_of(bit) == reference.expression_of(bit)


class TestGeneratorZoo:
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_flat(self, name):
        assert_extractions_identical(GENERATORS[name](0b1011011))

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_synthesized(self, name):
        assert_extractions_identical(synthesize(GENERATORS[name](0b100101)))

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_nand_mapped(self, name):
        """The harshest form: XORs survive only as NAND clusters that
        the strash must recognise."""
        assert_extractions_identical(
            synthesize(GENERATORS[name](0b100101), use_xor_cells=False)
        )

    def test_unmapped_pipeline_output(self):
        assert_extractions_identical(
            synthesize(generate_mastrovito(0b1011011), map_cells=False)
        )


class TestRandomNetlists:
    @pytest.mark.parametrize("seed", range(60))
    def test_per_cone_identity_and_error_parity(self, seed):
        """Expression-identical where the oracle succeeds, and the
        same structural failure where it raises."""
        netlist = generate_random_netlist(seed)
        for output in netlist.outputs:
            try:
                expected, _ = backward_rewrite(
                    netlist, output, engine="reference"
                )
            except BackwardRewriteError:
                for engine in packed_engines():
                    with pytest.raises(BackwardRewriteError):
                        backward_rewrite(netlist, output, engine=engine)
                continue
            for engine in packed_engines():
                actual, _ = backward_rewrite(netlist, output, engine=engine)
                assert actual == expected


class TestVerdictsAndFaults:
    def test_clean_multiplier(self):
        for engine in packed_engines():
            diagnosis = diagnose(generate_mastrovito(0b10011), engine=engine)
            assert diagnosis.verdict.value == "verified-multiplier"

    @pytest.mark.parametrize("seed", range(6))
    def test_fault_verdicts_match(self, seed):
        mutant, _ = random_fault(generate_mastrovito(0b10011), seed=seed)
        expected = diagnose(mutant, engine="reference").verdict
        for engine in packed_engines():
            assert diagnose(mutant, engine=engine).verdict is expected

    def test_normal_basis_rejected(self):
        """The Theorem-3 negative case is backend-independent."""
        netlist = generate_massey_omura(0b1011)
        expected = diagnose(netlist, engine="reference").verdict
        for engine in packed_engines():
            assert diagnose(netlist, engine=engine).verdict is expected


class TestFailureModes:
    def test_incomplete_cone_raises(self):
        netlist = Netlist("t", inputs=["a0"], outputs=["z0"])
        netlist.add_gate(Gate("z0", GateType.AND, ("a0", "floating")))
        for engine in packed_engines():
            with pytest.raises(BackwardRewriteError):
                backward_rewrite(netlist, "z0", engine=engine)

    def test_unknown_output_raises(self):
        netlist = generate_mastrovito(0b1011)
        for engine in packed_engines():
            with pytest.raises(BackwardRewriteError):
                backward_rewrite(netlist, "nonexistent", engine=engine)

    def test_term_limit_is_memory_out(self):
        for engine in packed_engines():
            with pytest.raises(TermLimitExceeded):
                extract_irreducible_polynomial(
                    generate_mastrovito(0b100011011),
                    engine=engine,
                    term_limit=2,
                )

    def test_rewriting_a_primary_input(self):
        netlist = generate_mastrovito(0b1011)
        for engine in packed_engines():
            poly, _ = backward_rewrite(netlist, "a0", engine=engine)
            assert str(poly) == "a0"


class TestCacheInvalidation:
    def test_compiled_netlist_tracks_mutation(self):
        """Appending gates after a rewrite must recompile: the
        compiled-program memo is keyed weakly by the netlist's state."""
        for engine in packed_engines():
            netlist = Netlist("t", inputs=["a0", "b0"], outputs=["z0"])
            netlist.add_gate(Gate("z0", GateType.AND, ("a0", "b0")))
            first, _ = backward_rewrite(netlist, "z0", engine=engine)
            netlist.add_gate(Gate("extra", GateType.XOR, ("a0", "b0")))
            netlist.add_output("extra")
            second, _ = backward_rewrite(netlist, "extra", engine=engine)
            reference, _ = backward_rewrite(
                netlist, "extra", engine="reference"
            )
            assert second == reference
            assert str(first) == "a0*b0"


def count_strashes(monkeypatch):
    """Record every netlist ``Aig.from_netlist`` lowers."""
    calls = []
    original = Aig.from_netlist.__func__

    def counting(cls, netlist):
        calls.append(netlist.name)
        return original(cls, netlist)

    monkeypatch.setattr(Aig, "from_netlist", classmethod(counting))
    return calls


FORMS = {
    "flat": lambda netlist: netlist,
    "synthesized": synthesize,
    "nand-mapped": lambda netlist: synthesize(netlist, use_xor_cells=False),
}


class TestLiveGraph:
    """The program compiles the netlist's memoized live graph: the
    strash the fingerprint already paid for, swept of dead nodes."""

    def test_compile_reuses_the_fingerprint_strash(self, monkeypatch):
        netlist = synthesize(generate_mastrovito(0b10011), use_xor_cells=False)
        calls = count_strashes(monkeypatch)
        fingerprint_with_cones(netlist)
        for engine in packed_engines():
            extract_irreducible_polynomial(netlist, engine=engine)
        assert calls == [netlist.name]

    def test_program_holds_only_live_nodes(self):
        netlist = synthesize(generate_mastrovito(0b100101), use_xor_cells=False)
        full = Aig.from_netlist(netlist)
        live = live_aig(netlist)
        assert len(live) < len(full)
        assert set(live.live_nodes()) | set(live.pi_name) | {0} == set(
            range(len(live))
        )

    @pytest.mark.parametrize("form", sorted(FORMS))
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_per_bit_and_fused_equal_reference(self, name, form):
        """Both names, ``vector`` included (it ran per-bit and fused
        before the fused sweep was retired), equal the oracle."""
        netlist = FORMS[form](GENERATORS[name](0b1011011))
        fingerprint_with_cones(netlist)  # the memo is shared from here on
        expected = extract_expressions(netlist, engine="reference")
        for engine in packed_engines():
            run = extract_expressions(netlist, engine=engine)
            assert dict(run.expressions.items()) == dict(
                expected.expressions.items()
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_fault_mutants_equal_reference(self, seed):
        base = synthesize(generate_mastrovito(0b100101), use_xor_cells=False)
        mutant, _ = random_fault(base, seed=seed)
        expected = extract_expressions(mutant, engine="reference")
        for engine in packed_engines():
            run = extract_expressions(mutant, engine=engine)
            assert dict(run.expressions.items()) == dict(
                expected.expressions.items()
            )

    @pytest.mark.parametrize("engine", ["bitpack", "vector"])
    def test_swept_internal_net_rewrites_over_its_cone(self, engine):
        """A net whose node the sweep dropped (an inner NAND of a
        recognised XOR cluster) is still rewritable."""
        netlist = synthesize(generate_mastrovito(0b10011), use_xor_cells=False)
        live = live_aig(netlist)
        swept = [
            gate.output
            for gate in netlist.gates
            if gate.output not in live.net_literal
        ]
        assert swept
        for net in swept[:5]:
            actual, _ = backward_rewrite(netlist, net, engine=engine)
            expected, _ = backward_rewrite(netlist, net, engine="reference")
            assert actual == expected


class TestOneStrashPerRequest:
    """A campaign audit strashes each netlist exactly once."""

    def _audit(self, tmp_path, netlist, **options):
        path = tmp_path / f"{netlist.name}.eqn"
        write_eqn(netlist, path)
        runner = CampaignRunner(
            mode="audit", workers=1, cache_dir=tmp_path / "cache", **options
        )
        record = runner.run([path]).records[0]
        assert record["status"] == "ok"
        assert record["equivalent"] is True
        return record

    def test_bitpack_audit(self, tmp_path, monkeypatch):
        netlist = synthesize(generate_mastrovito(0b100101), use_xor_cells=False)
        calls = count_strashes(monkeypatch)
        self._audit(tmp_path, netlist, engine="bitpack")
        assert len(calls) == 1
