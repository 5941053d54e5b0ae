"""Differential tests for the numpy ``vector`` engine and the no-numpy
degradation path.

The engine contract (:mod:`repro.engine`) requires bit-identical
*results* from every backend; this suite drives the vector engine's
per-bit entry point (the ``aig`` engine's loop, which it inherits)
across the generator zoo (flat, synthesized, NAND-mapped) and checks
error parity."""

import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.engine import AigEngine, VectorEngine, available_engines
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

numpy = pytest.importorskip("numpy")

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
        assert "vector" in available_engines()
        assert VectorEngine.available()


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
        import repro.engine.aig as aig_module

        # Small multipliers flatten whole cones below the default
        # bound (no substitution steps at all); shrink it so the
        # substitution loop actually runs and traces.
        monkeypatch.setattr(aig_module, "_FLAT_BOUND", 2)
        netlist = synthesize(
            generate_mastrovito(0b10011), use_xor_cells=False
        )
        engine = VectorEngine()
        _, stats = backward_rewrite(netlist, "z0", engine=engine, trace=True)
        program = engine._compiled_for(netlist)
        assert any(  # the forced bound leaves live nodes unflattened
            node not in program.flats for node in program.aig.live_nodes()
        )
        assert stats.iterations > 0
        assert len(stats.trace) == stats.iterations
        reference, _ = backward_rewrite(netlist, "z0", engine="reference")
        assert stats.trace[-1].expression == str(reference)


class TestMatrixLoopStress:
    """Force per-bit ``vector`` substitution across the zoo.

    With the default flat bound, small multipliers collapse entirely
    into precomputed flat polynomials and the substitution loop never
    runs; shrinking the bound makes every cone rewrite step by step,
    which is what these tests pin against the oracle.  The fused
    matrix sweep has its own forced-substitution tests in
    ``test_engine_fused.py``.
    """

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_forced_substitution_matches_reference(
        self, name, monkeypatch
    ):
        import repro.engine.aig as aig_module

        monkeypatch.setattr(aig_module, "_FLAT_BOUND", 2)
        netlist = synthesize(GENERATORS[name](0b100101), use_xor_cells=False)
        reference = extract_irreducible_polynomial(
            netlist, engine="reference"
        )
        # Fresh instance: it must compile *under* the shrunken bound.
        engine = VectorEngine()
        vector = extract_irreducible_polynomial(netlist, engine=engine)
        program = engine._compiled_for(netlist)
        assert any(  # the forced bound leaves live nodes unflattened
            node not in program.flats for node in program.aig.live_nodes()
        )
        assert vector.modulus == reference.modulus
        assert vector.member_bits == reference.member_bits
        for bit in range(reference.m):
            assert vector.expression_of(bit) == reference.expression_of(bit)

    def test_m16_nand_mapped_exceeds_flat_bound(self):
        """At m=16 the real expressions outgrow the default flat
        bound, so the production configuration drives the loop too."""
        from repro.fieldmath.irreducible import default_irreducible

        netlist = synthesize(
            generate_mastrovito(default_irreducible(16)),
            use_xor_cells=False,
        )
        reference = extract_irreducible_polynomial(
            netlist, engine="reference"
        )
        vector = extract_irreducible_polynomial(netlist, engine="vector")
        assert vector.modulus == reference.modulus
        for bit in range(reference.m):
            assert vector.expression_of(bit) == reference.expression_of(bit)


class TestWithoutNumpy:
    def test_skips_cleanly_when_numpy_missing(self):
        """A numpy-less interpreter imports the package, lists every
        other engine, and never registers ``vector``."""
        script = textwrap.dedent(
            """
            import sys

            class _Block:
                def find_spec(self, name, path=None, target=None):
                    if name == "numpy" or name.startswith("numpy."):
                        raise ImportError("numpy blocked for test")
                    return None

            sys.meta_path.insert(0, _Block())
            for cached in [m for m in sys.modules if m.startswith("numpy")]:
                del sys.modules[cached]

            import repro
            from repro.engine import available_engines, VectorEngine
            assert not VectorEngine.available()
            engines = available_engines()
            assert "vector" not in engines
            assert {"reference", "bitpack", "aig"} <= set(engines)

            from repro.extract.extractor import (
                extract_irreducible_polynomial,
            )
            from repro.gen.mastrovito import generate_mastrovito
            result = extract_irreducible_polynomial(
                generate_mastrovito(0b10011), engine="aig"
            )
            assert result.polynomial_str == "x^4 + x + 1"

            from repro.engine import EngineError, get_engine
            try:
                get_engine("vector")
            except EngineError as error:
                assert "vector" in str(error)
            else:
                raise AssertionError("unregistered engine resolved")
            print("OK")
            """
        )
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            src + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else src
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert completed.returncode == 0, completed.stderr
        assert "OK" in completed.stdout

    def test_direct_use_without_numpy_raises_engine_error(
        self, monkeypatch
    ):
        """An unregistered-but-constructed VectorEngine's fused sweep
        degrades with the engine error, not an AttributeError; its
        per-bit loop is aig's and needs no numpy."""
        import repro.engine.vector as vector_module

        monkeypatch.setattr(vector_module, "_np", None)
        from repro.engine.base import EngineError

        netlist = generate_mastrovito(0b1011)
        engine = VectorEngine()
        with pytest.raises(EngineError, match="numpy"):
            engine.rewrite_cones(netlist, ["z0"])
        expression, _ = engine.rewrite_cone(netlist, "z0")
        expected, _ = AigEngine().rewrite_cone(netlist, "z0")
        assert expression.decode() == expected.decode()
