"""What used to run the fused multi-output sweep.

``engine="vector"`` with ``fused=True`` rewrote every output cone in
one numpy bit-matrix.  The sweep is gone: ``vector`` is another name
for the bitpack engine and runs its per-bit loop.  This suite pins
that configuration to the reference oracle across the generator zoo
(flat, synthesized, NAND-mapped and fault-injected, so the error path
stays engine-independent too), and checks the two entry points that
still accept ``fused=True`` (``CampaignRunner`` and ``eco_reverify``,
which perfbench calls with it) ignore it: same P(x), verdicts, member
bits and blame as ``engine="bitpack"``.  The CLI no longer has a
``--fused`` option, and nothing needs numpy.
"""

import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import repro.engine.bitpack as bitpack_module
from repro.engine import BitpackEngine
from repro.extract.diagnose import diagnose
from repro.extract.extractor import extract_irreducible_polynomial
from repro.gen.digit_serial import generate_digit_serial
from repro.gen.faults import flip_gate, random_fault
from repro.gen.interleaved import generate_interleaved
from repro.gen.karatsuba import generate_karatsuba
from repro.gen.mastrovito import generate_mastrovito
from repro.gen.montgomery import generate_montgomery
from repro.gen.random_logic import generate_random_netlist
from repro.gen.schoolbook import generate_schoolbook
from repro.gen.squarer import generate_squarer
from repro.netlist.eqn_io import write_eqn
from repro.rewrite.backward import (
    BackwardRewriteError,
    TermLimitExceeded,
    backward_rewrite_all,
)
from repro.rewrite.parallel import extract_expressions
from repro.synth.pipeline import synthesize

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
    and rewriting substitutes through models (fresh compiles only)."""
    monkeypatch.setattr(bitpack_module, "_FLAT_BOUND", 2)
    monkeypatch.setattr(bitpack_module, "_FLAT_SHARED_BOUND", 2)


def assert_vector_identical(netlist):
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
        assert_vector_identical(GENERATORS[name](0b1011011))

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_synthesized(self, name):
        assert_vector_identical(synthesize(GENERATORS[name](0b100101)))

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_nand_mapped(self, name):
        assert_vector_identical(
            synthesize(GENERATORS[name](0b100101), use_xor_cells=False)
        )


class TestFaultInjected:
    """Error-path parity: ``vector`` and the oracle agree on broken
    designs."""

    @pytest.mark.parametrize("seed", range(6))
    def test_fault_verdicts_match(self, seed):
        mutant, _ = random_fault(
            synthesize(generate_mastrovito(0b10011), use_xor_cells=False),
            seed=seed,
        )
        vector = diagnose(mutant, engine="vector")
        reference = diagnose(mutant, engine="reference")
        assert vector.verdict is reference.verdict

    @pytest.mark.parametrize("seed", range(20))
    def test_random_netlists_error_parity(self, seed):
        """Same expressions where the oracle succeeds, the same
        structural failure type where it raises."""
        netlist = generate_random_netlist(seed)
        try:
            expected = backward_rewrite_all(netlist, engine="reference")
        except BackwardRewriteError:
            with pytest.raises(BackwardRewriteError):
                backward_rewrite_all(netlist, engine="vector")
            return
        actual = backward_rewrite_all(netlist, engine="vector")
        for output, (poly, _stats) in expected.items():
            assert actual[output][0] == poly

    def test_term_limit_is_memory_out(self):
        with pytest.raises(TermLimitExceeded):
            extract_irreducible_polynomial(
                generate_mastrovito(0b100011011),
                engine="vector",
                term_limit=2,
            )


class TestMatrixLoopStress:
    """Force model substitution (no flat shortcut) across the zoo and
    pin it against the oracle."""

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_forced_substitution_matches_reference(self, name, monkeypatch):
        force_small_flat_bounds(monkeypatch)
        netlist = synthesize(
            GENERATORS[name](0b100101), use_xor_cells=False
        )
        reference = extract_irreducible_polynomial(
            netlist, engine="reference"
        )
        # Fresh instance: it must compile *under* the shrunken bound.
        engine = BitpackEngine()
        vector = extract_irreducible_polynomial(netlist, engine=engine)
        assert vector.modulus == reference.modulus
        for bit in range(reference.m):
            assert vector.expression_of(bit) == reference.expression_of(bit)
        program = engine._compiled_for(netlist)
        assert any(  # the forced bound leaves live nodes unflattened
            node not in program.flats for node in program.aig.live_nodes()
        )


class TestMultiRootEntryPoints:
    def test_unknown_output_raises(self):
        with pytest.raises(BackwardRewriteError):
            extract_expressions(
                generate_mastrovito(0b1011),
                outputs=["z0", "nonexistent"],
                engine="vector",
            )


class TestSquarerFused:
    def test_squarer_fused_with_result_cache(self, tmp_path):
        """The squarer through ``vector``, stored and then answered
        from the squarer entry without compiling."""
        from repro.extract.squarer import extract_squarer_polynomial
        from repro.service.cache import ResultCache

        cache = ResultCache(tmp_path)
        squarer = generate_squarer(0b10011)
        baseline = extract_squarer_polynomial(squarer)
        vector = extract_squarer_polynomial(
            squarer, engine="vector", cache=cache
        )
        assert vector.modulus == baseline.modulus
        assert vector.verified and vector.irreducible
        assert cache.stats().entries["squarer"] == 1

        # a repeat is answered by the squarer entry, without rewriting
        fresh = BitpackEngine()
        fresh._compile = lambda n: pytest.fail("should hit, not compile")
        again = extract_squarer_polynomial(
            squarer, engine=fresh, cache=cache
        )
        assert again.modulus == baseline.modulus
        assert cache.hits == 1

    def test_diagnose_squarer_branch_threads_fused(self, tmp_path):
        """A diagnose campaign's ``fused=True`` reaches the squarer
        branch as a no-op: the verdict is the per-bit one."""
        from repro.service.runner import CampaignRunner

        write_eqn(generate_squarer(0b10011), tmp_path / "sq4.eqn")
        record = CampaignRunner(
            mode="diagnose",
            engine="vector",
            fused=True,
            cache_dir=tmp_path / "cache",
        ).run([tmp_path / "sq4.eqn"]).records[0]
        expected = diagnose(generate_squarer(0b10011)).verdict
        assert record["verdict"] == expected.value == "verified-squarer"


def _records(tmp_path, paths, mode, **options):
    from repro.service.runner import CampaignRunner

    cache_dir = tmp_path / f"cache-{mode}-{options['engine']}"
    report = CampaignRunner(mode=mode, cache_dir=cache_dir, **options).run(
        paths
    )
    return [
        {
            key: value
            for key, value in record.items()
            if key not in ("engine", "engine_used", "wall_time_s")
        }
        for record in report.records
    ]


class TestCampaignFused:
    def test_campaign_fused_records_and_matches(self, tmp_path):
        """``CampaignRunner(engine="vector", fused=True)`` — what
        perfbench's cold-fused workload runs — gives every record of
        ``engine="bitpack"``: P(x), verdicts, member bits and blame."""
        mapped = synthesize(
            generate_mastrovito(0b1011011), use_xor_cells=False
        )
        mutant, _ = flip_gate(mapped, mapped.gates[len(mapped) // 2].output)
        paths = [tmp_path / "nand6.eqn", tmp_path / "nand6_bad.eqn"]
        write_eqn(mapped, paths[0])
        write_eqn(mutant, paths[1])
        for mode in ("extract", "audit", "diagnose"):
            fused = _records(
                tmp_path, paths, mode, engine="vector", fused=True
            )
            bitpack = _records(tmp_path, paths, mode, engine="bitpack")
            assert fused == bitpack, mode
            assert all(record["status"] == "ok" for record in fused)
            assert all("fused" not in record for record in fused)
        assert [r["verdict"] for r in fused] == [
            "verified-multiplier",
            "not-equivalent",
        ]

    def test_eco_reverify_ignores_fused(self, tmp_path):
        """``eco_reverify(..., fused=True)`` reports exactly what
        ``engine="bitpack"`` does, blame included."""
        from repro.service.cache import ResultCache
        from repro.service.eco import eco_reverify

        base = synthesize(generate_montgomery(0b100101), use_xor_cells=False)
        mutant, _ = flip_gate(base, base.gates[len(base) // 2].output)
        write_eqn(base, tmp_path / "base.eqn")
        write_eqn(mutant, tmp_path / "edit.eqn")

        def report(engine, **options):
            return eco_reverify(
                tmp_path / "base.eqn",
                tmp_path / "edit.eqn",
                ResultCache(tmp_path / f"cache-{engine}"),
                engine=engine,
                **options,
            )

        fused = report("vector", fused=True)
        bitpack = report("bitpack")
        assert not fused.ok
        assert fused.diff == bitpack.diff
        assert (fused.polynomial, fused.irreducible, fused.equivalent) == (
            bitpack.polynomial,
            bitpack.irreducible,
            bitpack.equivalent,
        )
        assert fused.result.member_bits == bitpack.result.member_bits
        assert (fused.cones_reused, fused.cones_warmed) == (
            bitpack.cones_reused,
            bitpack.cones_warmed,
        )
        blame, expected = fused.diagnosis, bitpack.diagnosis
        assert blame.verdict is expected.verdict
        assert blame.reason == expected.reason
        assert blame.counterexample == expected.counterexample
        assert (
            blame.verification.algebraic == expected.verification.algebraic
        )


class TestCliFused:
    def test_extract_rejects_fused(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "m5.eqn"
        write_eqn(generate_mastrovito(0b100101), path)
        with pytest.raises(SystemExit) as caught:
            main(["extract", str(path), "--engine", "vector", "--fused"])
        assert caught.value.code == 2
        assert "unrecognized arguments: --fused" in capsys.readouterr().err


class TestWithoutNumpy:
    def test_fused_degrades_to_per_bit_without_numpy(self):
        """A numpy-less interpreter lists every engine, ``vector``
        included, and a ``fused=True`` campaign runs the per-bit loop
        and agrees with bitpack."""
        script = textwrap.dedent(
            """
            import pathlib, sys, tempfile

            class _Block:
                def find_spec(self, name, path=None, target=None):
                    if name == "numpy" or name.startswith("numpy."):
                        raise ImportError("numpy blocked for test")
                    return None

            sys.meta_path.insert(0, _Block())
            for cached in [m for m in sys.modules if m.startswith("numpy")]:
                del sys.modules[cached]

            from repro.engine import registered_engines
            assert set(registered_engines()) == {
                "bitpack", "reference", "vector"
            }

            from repro.gen.mastrovito import generate_mastrovito
            from repro.netlist.eqn_io import write_eqn
            from repro.service.runner import CampaignRunner

            work = pathlib.Path(tempfile.mkdtemp())
            write_eqn(generate_mastrovito(0b10011), work / "m4.eqn")
            records = [
                CampaignRunner(
                    mode="diagnose", cache_dir=work / engine, **options
                ).run([work / "m4.eqn"]).records[0]
                for engine, options in (
                    ("vector", {"engine": "vector", "fused": True}),
                    ("bitpack", {"engine": "bitpack"}),
                )
            ]
            for record in records:
                assert record["status"] == "ok", record
                assert record["polynomial"] == "x^4 + x + 1"
                assert record["verdict"] == "verified-multiplier"
            assert "numpy" not in sys.modules
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
