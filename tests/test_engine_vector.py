"""Differential tests for the numpy ``vector`` engine, the compiled-
program cache, and the no-numpy degradation path.

The engine contract (:mod:`repro.engine`) requires bit-identical
*results* from every backend; this suite drives the vector engine's
per-bit entry point (the ``aig`` engine's loop, which it inherits)
across the generator zoo (flat, synthesized, NAND-mapped), checks
error parity, and covers the compiled-program cache: round-trips
through fresh engine instances, invalidation on a compile-schema
bump, exact-netlist token validation for same-fingerprint twins, and
the runner-level warm-compile flow."""

import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.engine import AigEngine, VectorEngine, available_engines
from repro.engine.base import netlist_token
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
from repro.service.cache import ResultCache
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
        _, stats = backward_rewrite(
            netlist, "z0", engine=VectorEngine(), trace=True
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
        vector = extract_irreducible_polynomial(
            netlist, engine=VectorEngine()
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


class TestCompiledProgramCache:
    """The fingerprint-keyed compiled-program store."""

    def _nand(self, modulus=0b1011011):
        return synthesize(
            generate_mastrovito(modulus), use_xor_cells=False
        )

    def test_round_trip_fresh_engine(self, tmp_path):
        """A fresh engine instance (a cold process) loads the stored
        program instead of recompiling."""
        cache = ResultCache(tmp_path)
        netlist = self._nand()
        first = VectorEngine()
        r1 = extract_irreducible_polynomial(
            netlist, engine=first, compile_cache=cache
        )
        assert cache.stats().entries["compiled"] == 1

        fresh = VectorEngine()
        compiles = []
        original = fresh._compile
        fresh._compile = lambda n: compiles.append(n) or original(n)
        r2 = extract_irreducible_polynomial(
            netlist, engine=fresh, compile_cache=cache
        )
        assert compiles == []  # served from the cache, not recompiled
        assert r2.modulus == r1.modulus
        for bit in range(r1.m):
            assert r2.expression_of(bit) == r1.expression_of(bit)

    def test_aig_and_vector_share_the_program(self, tmp_path):
        """Both backends compile a ``_CompiledAig`` and share the
        ``aig`` compile key, so one campaign never compiles a
        structure twice across them."""
        cache = ResultCache(tmp_path)
        netlist = self._nand()
        AigEngine().prepare(netlist, compile_cache=cache)
        assert cache.stats().entries["compiled"] == 1
        fresh = VectorEngine()
        fresh._compile = lambda n: pytest.fail("should load, not compile")
        fresh.prepare(netlist, compile_cache=cache)
        assert cache.compile_hits >= 1

    def test_schema_bump_invalidates(self, tmp_path, monkeypatch):
        """A compile-schema bump retires stored programs (different
        file name -> miss -> recompile + fresh store)."""
        cache = ResultCache(tmp_path)
        netlist = self._nand()
        engine = VectorEngine()
        engine.prepare(netlist, compile_cache=cache)
        path_v1 = cache.compiled_path_for(
            netlist, "aig", VectorEngine.compile_schema
        )
        assert path_v1.exists()

        monkeypatch.setattr(
            VectorEngine, "compile_schema", VectorEngine.compile_schema + 1
        )
        bumped = VectorEngine()
        compiles = []
        original = bumped._compile
        bumped._compile = lambda n: compiles.append(n) or original(n)
        bumped.prepare(netlist, compile_cache=cache)
        assert len(compiles) == 1  # old entry invisible under new schema
        assert cache.compiled_path_for(
            netlist, "aig", VectorEngine.compile_schema
        ).exists()
        assert path_v1.exists()  # retired, not clobbered

    def test_same_fingerprint_different_names_recompiles(self, tmp_path):
        """Fingerprints are strash-invariant; the exact-netlist token
        inside the payload stops a structural twin with different
        internal names from being mis-served."""
        cache = ResultCache(tmp_path)

        def twin(inner):
            netlist = Netlist("t", inputs=["a0", "b0"], outputs=["z0"])
            netlist.add_gate(Gate(inner, GateType.AND, ("a0", "b0")))
            netlist.add_gate(Gate("z0", GateType.BUF, (inner,)))
            return netlist

        lhs, rhs = twin("mid"), twin("other")
        assert cache.fingerprint(lhs) == cache.fingerprint(rhs)
        assert netlist_token(lhs) != netlist_token(rhs)

        VectorEngine().prepare(lhs, compile_cache=cache)
        poly, _ = backward_rewrite(
            rhs, "other", engine="vector", compile_cache=cache
        )
        assert str(poly) == "a0*b0"  # rhs's own naming, not lhs's

    def test_finalize_stores_accreted_models(self, tmp_path, monkeypatch):
        """Rewriting grows the program (lazy cut models); the run
        re-stores it so the next cold process inherits them."""
        import repro.engine.aig as aig_module

        # Shrink the flat bound so the rewrite must build cut models
        # (a small multiplier otherwise flattens entirely).
        monkeypatch.setattr(aig_module, "_FLAT_BOUND", 2)
        cache = ResultCache(tmp_path)
        netlist = self._nand(0b100011011)
        engine = VectorEngine()
        engine.prepare(netlist, compile_cache=cache)
        stored_before = cache.compiled_path_for(
            netlist, "aig", VectorEngine.compile_schema
        ).read_bytes()
        extract_irreducible_polynomial(
            netlist, engine=engine, compile_cache=cache
        )
        stored_after = cache.compiled_path_for(
            netlist, "aig", VectorEngine.compile_schema
        ).read_bytes()
        assert stored_after != stored_before  # models travelled along

        fresh = VectorEngine()
        program = fresh._compiled_for(netlist, compile_cache=cache)
        assert len(program._models) > 0

    def test_program_compiled_before_cache_is_persisted_later(
        self, tmp_path
    ):
        """A program compiled while no cache was in play is stored as
        soon as one appears — "once ever", not "once per process"."""
        cache = ResultCache(tmp_path)
        netlist = self._nand()
        engine = VectorEngine()
        extract_irreducible_polynomial(netlist, engine=engine)  # no cache
        assert cache.stats().entries["compiled"] == 0
        extract_irreducible_polynomial(
            netlist, engine=engine, compile_cache=cache
        )
        assert cache.stats().entries["compiled"] == 1

    def test_rejected_payload_counts_as_miss(self, tmp_path):
        """A token-mismatched load forces a recompile; the stats must
        call that a miss, not a hit."""

        def twin(inner):
            netlist = Netlist("t", inputs=["a0", "b0"], outputs=["z0"])
            netlist.add_gate(Gate(inner, GateType.AND, ("a0", "b0")))
            netlist.add_gate(Gate("z0", GateType.BUF, (inner,)))
            return netlist

        cache = ResultCache(tmp_path)
        VectorEngine().prepare(twin("mid"), compile_cache=cache)
        VectorEngine().prepare(twin("other"), compile_cache=cache)
        assert cache.compile_hits == 0
        assert cache.compile_misses == 2

    def test_corrupt_payload_recompiles(self, tmp_path):
        cache = ResultCache(tmp_path)
        netlist = self._nand()
        engine = VectorEngine()
        engine.prepare(netlist, compile_cache=cache)
        path = cache.compiled_path_for(
            netlist, "aig", VectorEngine.compile_schema
        )
        path.write_bytes(b"not a pickle")
        fresh = VectorEngine()
        result = extract_irreducible_polynomial(
            netlist, engine=fresh, compile_cache=cache
        )
        reference = extract_irreducible_polynomial(
            netlist, engine="reference"
        )
        assert result.modulus == reference.modulus


class TestRunnerWarmCompile:
    """Runner-level: a campaign threads the compiled-program cache, so
    a rerun whose *results* were evicted still skips the compile."""

    def test_campaign_reuses_compiled_programs(self, tmp_path, monkeypatch):
        from repro.netlist.eqn_io import write_eqn
        from repro.service.runner import run_campaign

        designs = tmp_path / "designs"
        designs.mkdir()
        write_eqn(
            synthesize(
                generate_mastrovito(0b1011011), use_xor_cells=False
            ),
            designs / "nand6.eqn",
        )
        cache_dir = tmp_path / "cache"

        first = run_campaign(
            designs,
            mode="extract",
            engine="vector",
            cache_dir=cache_dir,
        )
        assert first.ok == 1
        cache = ResultCache(cache_dir)
        assert cache.stats().entries["compiled"] == 1

        # Evict only the extraction result; keep the compiled program.
        for kind, path in cache._artifact_files():
            if kind == "extraction":
                path.unlink()

        # The rerun must re-extract (result evicted) but *load* the
        # compiled program instead of compiling — any compile fails
        # the test outright.
        monkeypatch.setattr(
            VectorEngine,
            "_compile",
            lambda self, netlist: pytest.fail(
                "warm campaign recompiled instead of loading"
            ),
        )
        second = run_campaign(
            designs,
            mode="extract",
            engine="vector",
            cache_dir=cache_dir,
        )
        assert second.ok == 1
        assert second.records[0]["cache"] == "miss"  # result was evicted
        assert (
            second.records[0]["polynomial"]
            == first.records[0]["polynomial"]
        )


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
