"""The fused multi-output substitution sweep.

Covers the engine-level contract (``rewrite_cones``: one output-tagged
bit-matrix for the vector engine, a clean per-bit loop everywhere
else), bit-identity against the reference oracle across the generator
zoo — flat, synthesized, NAND-mapped, and fault-injected, so the
error path stays mode-independent too — and the end-to-end ``fused=True`` threading through
extraction, diagnosis, the squarer extension, the campaign runner and
the CLI.  The no-numpy subprocess test pins the degradation story:
without numpy, ``fused=True`` still works through the per-bit
fallback of every other backend.
"""

import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import repro.engine.bitpack as bitpack_module
from repro.engine import VectorEngine, available_engines, get_engine
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
from repro.gen.squarer import generate_squarer
from repro.rewrite.backward import (
    BackwardRewriteError,
    TermLimitExceeded,
    backward_rewrite_multi,
)
from repro.rewrite.parallel import extract_expressions
from repro.synth.pipeline import synthesize

numpy = pytest.importorskip("numpy")

GENERATORS = {
    "mastrovito": generate_mastrovito,
    "schoolbook": generate_schoolbook,
    "montgomery": generate_montgomery,
    "karatsuba": generate_karatsuba,
    "interleaved": generate_interleaved,
    "digit-serial": generate_digit_serial,
}


def force_small_flat_bounds(monkeypatch):
    """Shrink both flattening bounds so live nodes stay unflattened
    and the sweep substitutes through models (fresh compiles only)."""
    monkeypatch.setattr(bitpack_module, "_FLAT_BOUND", 2)
    monkeypatch.setattr(bitpack_module, "_FLAT_SHARED_BOUND", 2)


def sweep_input():
    """NAND-mapped m=16 Montgomery: no output flattens under the
    default bounds, so every cone goes through the fused sweep."""
    from repro.fieldmath.irreducible import default_irreducible

    return synthesize(
        generate_montgomery(default_irreducible(16)), use_xor_cells=False
    )


def assert_fused_identical(netlist):
    reference = extract_irreducible_polynomial(netlist, engine="reference")
    fused = extract_irreducible_polynomial(
        netlist, engine="vector", fused=True
    )
    assert fused.modulus == reference.modulus
    assert fused.member_bits == reference.member_bits
    assert fused.irreducible == reference.irreducible
    for bit in range(reference.m):
        assert fused.expression_of(bit) == reference.expression_of(bit)


class TestGeneratorZoo:
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_flat(self, name):
        assert_fused_identical(GENERATORS[name](0b1011011))

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_synthesized(self, name):
        assert_fused_identical(synthesize(GENERATORS[name](0b100101)))

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_nand_mapped(self, name):
        assert_fused_identical(
            synthesize(GENERATORS[name](0b100101), use_xor_cells=False)
        )

    def test_m24_nand_mapped_drives_the_fused_matrix(self):
        """At m=24 some NAND-mapped Karatsuba cones outgrow the flat
        bounds (smaller sizes flatten entirely), so the production
        configuration exercises the tagged matrix sweep beside the
        flat fast path."""
        from repro.fieldmath.irreducible import default_irreducible

        netlist = synthesize(
            generate_karatsuba(default_irreducible(24)),
            use_xor_cells=False,
        )
        program = get_engine("vector")._compiled_for(netlist)
        flat = [
            program.net_literal[output] >> 1 in program.flats
            for output in netlist.outputs
        ]
        assert any(flat) and not all(flat)
        assert_fused_identical(netlist)


class TestFaultInjected:
    """Error-path parity: fused and per-bit agree on broken designs."""

    @pytest.mark.parametrize("seed", range(6))
    def test_fault_verdicts_match(self, seed):
        mutant, _ = random_fault(
            synthesize(generate_mastrovito(0b10011), use_xor_cells=False),
            seed=seed,
        )
        fused = diagnose(mutant, engine="vector", fused=True)
        perbit = diagnose(mutant, engine="reference")
        assert fused.verdict is perbit.verdict

    @pytest.mark.parametrize("seed", range(20))
    def test_random_netlists_error_parity(self, seed):
        """Same expressions where the oracle succeeds, the same
        structural failure type where it raises."""
        netlist = generate_random_netlist(seed)
        try:
            expected = backward_rewrite_multi(
                netlist, list(netlist.outputs), engine="reference"
            )
        except BackwardRewriteError:
            with pytest.raises(BackwardRewriteError):
                backward_rewrite_multi(
                    netlist, list(netlist.outputs), engine="vector"
                )
            return
        actual = backward_rewrite_multi(
            netlist, list(netlist.outputs), engine="vector"
        )
        for output, (poly, _stats) in expected.items():
            assert actual[output][0] == poly

    def test_term_limit_is_memory_out(self):
        with pytest.raises(TermLimitExceeded):
            extract_irreducible_polynomial(
                generate_mastrovito(0b100011011),
                engine="vector",
                fused=True,
                term_limit=2,
            )

    def test_term_limit_in_the_matrix_loop(self, monkeypatch):
        """Force the fused matrix loop (no flat shortcut) and make an
        intermediate expression outgrow the budget there."""
        force_small_flat_bounds(monkeypatch)
        netlist = synthesize(
            generate_mastrovito(0b100011011), use_xor_cells=False
        )
        engine = VectorEngine()
        with pytest.raises(TermLimitExceeded):
            engine.rewrite_cones(
                netlist, list(netlist.outputs), term_limit=8
            )
        program = engine._compiled_for(netlist)
        assert any(  # the forced bound leaves live nodes unflattened
            node not in program.flats for node in program.aig.live_nodes()
        )


class TestMatrixLoopStress:
    """Force multi-round fused sweeps (interning growth, width growth,
    full-lexsort cancellation) and pin them against the oracle."""

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_forced_substitution_matches_reference(self, name, monkeypatch):
        force_small_flat_bounds(monkeypatch)
        netlist = synthesize(
            GENERATORS[name](0b100101), use_xor_cells=False
        )
        reference = extract_irreducible_polynomial(
            netlist, engine="reference"
        )
        engine = VectorEngine()
        fused = extract_irreducible_polynomial(
            netlist, engine=engine, fused=True
        )
        assert fused.modulus == reference.modulus
        for bit in range(reference.m):
            assert fused.expression_of(bit) == reference.expression_of(bit)
        program = engine._compiled_for(netlist)
        assert any(  # the forced bound leaves live nodes unflattened
            node not in program.flats for node in program.aig.live_nodes()
        )

    def test_steady_state_reuses_fused_tables(self):
        """Later sweeps — including different output subsets, the
        shape a chunked campaign produces — serve packed models from
        the per-program state instead of repacking them."""
        netlist = sweep_input()
        engine = VectorEngine()
        outputs = list(netlist.outputs)
        half = len(outputs) // 2
        first = engine.rewrite_cones(netlist, outputs[:half])
        first.update(engine.rewrite_cones(netlist, outputs[half:]))
        compiled = engine._compiled_for(netlist)
        state = engine._fused_state[compiled]
        packed_before = len(state["packed_models"])
        assert packed_before > 0
        again = engine.rewrite_cones(netlist, outputs)  # full sweep
        assert len(state["packed_models"]) == packed_before  # no repack
        for output in outputs:
            assert first[output][0].decode() == again[output][0].decode()


class TestMultiRootEntryPoints:
    def test_base_fallback_matches_per_bit(self):
        """Engines without a fused sweep serve rewrite_cones through
        their per-bit loop — same cones, same stats shape."""
        netlist = generate_mastrovito(0b10011)
        backend = get_engine("bitpack")
        multi = backend.rewrite_cones(netlist, list(netlist.outputs))
        for output in netlist.outputs:
            single, _stats = backend.rewrite_cone(netlist, output)
            assert multi[output][0].decode() == single.decode()

    def test_extract_expressions_fused_run_shape(self):
        netlist = synthesize(
            generate_mastrovito(0b1011011), use_xor_cells=False
        )
        seen = []
        run = extract_expressions(
            netlist,
            engine="vector",
            fused=True,
            jobs=8,  # ignored in fused mode
            on_result=lambda output, cone, stats: seen.append(output),
        )
        assert run.jobs == 1
        assert seen == [f"z{i}" for i in range(6)]
        assert list(run.stats) == seen
        perbit = extract_expressions(netlist, engine="vector")
        assert dict(run.expressions.items()) == dict(
            perbit.expressions.items()
        )

    def test_fused_stats_cover_the_sweep(self):
        """Per-cone stats are round-based but present: runtimes sum to
        the sweep and matrix cones report final term counts."""
        from repro import telemetry

        registry = telemetry.Telemetry()
        sink = registry.add_sink(telemetry.MemorySink())
        run = extract_expressions(
            sweep_input(), engine="vector", fused=True, telemetry=registry
        )
        spans = {e["name"] for e in sink.events if e.get("type") == "span"}
        assert {"sweep", "sweep.round"} <= spans
        for output, stats in run.stats.items():
            assert stats.final_terms == run.cones[output].term_count()
            assert stats.runtime_s >= 0.0
        assert all(stats.iterations for stats in run.stats.values())

    def test_unknown_output_raises(self):
        with pytest.raises(BackwardRewriteError):
            VectorEngine().rewrite_cones(
                generate_mastrovito(0b1011), ["z0", "nonexistent"]
            )


class TestSquarerFused:
    def test_squarer_fused_with_result_cache(self, tmp_path):
        from repro.extract.squarer import extract_squarer_polynomial
        from repro.service.cache import ResultCache

        cache = ResultCache(tmp_path)
        squarer = generate_squarer(0b10011)
        baseline = extract_squarer_polynomial(squarer)
        fused = extract_squarer_polynomial(
            squarer, engine="vector", cache=cache, fused=True
        )
        assert fused.modulus == baseline.modulus
        assert fused.verified and fused.irreducible
        assert cache.stats().entries["squarer"] == 1

        # a repeat is answered by the squarer entry, without rewriting
        fresh = VectorEngine()
        fresh._compile = lambda n: pytest.fail("should hit, not compile")
        again = extract_squarer_polynomial(
            squarer, engine=fresh, cache=cache, fused=True
        )
        assert again.modulus == baseline.modulus
        assert cache.hits == 1

    def test_diagnose_squarer_branch_threads_fused(self, tmp_path):
        verdict = diagnose(
            generate_squarer(0b10011), engine="vector", fused=True
        ).verdict
        assert verdict is diagnose(generate_squarer(0b10011)).verdict


class TestCampaignFused:
    def test_campaign_fused_records_and_matches(self, tmp_path):
        from repro.netlist.eqn_io import write_eqn
        from repro.service.runner import run_campaign

        designs = tmp_path / "designs"
        designs.mkdir()
        write_eqn(
            synthesize(generate_mastrovito(0b1011011), use_xor_cells=False),
            designs / "nand6.eqn",
        )
        fused = run_campaign(
            designs,
            mode="extract",
            engine="vector",
            fused=True,
            cache_dir=tmp_path / "cache_fused",
        )
        perbit = run_campaign(
            designs,
            mode="extract",
            engine="vector",
            cache_dir=tmp_path / "cache_perbit",
        )
        assert fused.ok == perbit.ok == 1
        assert fused.records[0]["fused"] is True
        assert perbit.records[0]["fused"] is False
        assert (
            fused.records[0]["polynomial"] == perbit.records[0]["polynomial"]
        )


class TestCliFused:
    def test_extract_and_diagnose_accept_fused(self, tmp_path, capsys):
        from repro.cli import main
        from repro.netlist.eqn_io import write_eqn

        path = tmp_path / "m5.eqn"
        write_eqn(
            synthesize(generate_mastrovito(0b100101), use_xor_cells=False),
            path,
        )
        assert main(["extract", str(path), "--engine", "vector", "--fused"]) == 0
        out = capsys.readouterr().out
        assert "P(x) = x^5 + x^2 + 1" in out
        assert main(["diagnose", str(path), "--fused"]) == 0


class TestWithoutNumpy:
    def test_fused_degrades_to_per_bit_without_numpy(self):
        """A numpy-less interpreter still honours fused=True: the
        engines' default multi-root loop answers, bit-identically."""
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

            from repro.engine import available_engines
            assert "vector" not in available_engines()

            from repro.extract.extractor import (
                extract_irreducible_polynomial,
            )
            from repro.gen.mastrovito import generate_mastrovito
            net = generate_mastrovito(0b10011)
            fused = extract_irreducible_polynomial(
                net, engine="bitpack", fused=True
            )
            assert fused.polynomial_str == "x^4 + x + 1"
            perbit = extract_irreducible_polynomial(net, engine="bitpack")
            assert fused.modulus == perbit.modulus
            for bit in range(4):
                assert fused.expression_of(bit) == perbit.expression_of(bit)

            from repro.extract.diagnose import diagnose
            assert diagnose(net, fused=True).is_clean
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

    def test_direct_fused_use_without_numpy_raises_engine_error(
        self, monkeypatch
    ):
        import repro.engine.vector as vector_module
        from repro.engine.base import EngineError

        monkeypatch.setattr(vector_module, "_np", None)
        with pytest.raises(EngineError, match="numpy"):
            VectorEngine().rewrite_cones(
                generate_mastrovito(0b1011), ["z0"]
            )
