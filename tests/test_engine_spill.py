"""Out-of-core fused sweeps: budgets, spill files, streamed merges.

The memory wall is the paper's hard failure mode, and in fused mode
the whole intermediate state is one tagged bit-matrix — so the spill
tier's contract is sharp: under any positive ``max_bytes`` budget the
sweep must produce *bit-identical* results while the live matrix stays
bounded, spill directories must vanish on success and on error alike,
and a killed spilled run must resume through the same mode-neutral
checkpoints as an in-core one.

The cut-ANF compiler flattens small cones entirely (one round, exit
before any spill check fires), so every sweep-level test here forces
the gate-granular matrix loop with ``_FLAT_BOUND = 2`` — the same
lever ``test_engine_fused.py`` uses to stress multi-round sweeps.
"""

import os
import subprocess
import sys

import pytest

from repro.engine import VectorEngine
from repro.engine import spill as spill_module
from repro.engine.spill import (
    SPILL_DIR_ENV,
    SWEEP_BUDGET_ENV,
    SpillDir,
    RowFile,
    merge_parity,
    parse_byte_size,
    reap_stale_spills,
    resolve_sweep_budget,
    write_rows,
)
from repro.extract.extractor import extract_irreducible_polynomial
from repro.gen.digit_serial import generate_digit_serial
from repro.gen.interleaved import generate_interleaved
from repro.gen.karatsuba import generate_karatsuba
from repro.gen.mastrovito import generate_mastrovito
from repro.gen.montgomery import generate_montgomery
from repro.gen.schoolbook import generate_schoolbook
from repro.rewrite.backward import TermLimitExceeded
from repro.rewrite.parallel import extract_expressions
from repro.synth.pipeline import synthesize
from repro.telemetry import MemorySink, Telemetry, use

numpy = pytest.importorskip("numpy")

import repro.engine.vector as V  # noqa: E402  (needs numpy)

GENERATORS = {
    "mastrovito": generate_mastrovito,
    "schoolbook": generate_schoolbook,
    "montgomery": generate_montgomery,
    "karatsuba": generate_karatsuba,
    "interleaved": generate_interleaved,
    "digit-serial": generate_digit_serial,
}


def force_matrix_loop(monkeypatch):
    """Disable flat-cone short-circuiting so sweeps run multi-round."""
    import repro.engine.aig as aig_module

    monkeypatch.setattr(aig_module, "_FLAT_BOUND", 2)
    # The forced state must hold: a program compiled now keeps live
    # nodes unflattened.
    probe = synthesize(generate_mastrovito(0b100101), use_xor_cells=False)
    program = VectorEngine()._compiled_for(probe)
    assert any(
        node not in program.flats for node in program.aig.live_nodes()
    )


def spans_named(sink, name):
    return [
        e
        for e in sink.events
        if e.get("type") == "span" and e.get("name") == name
    ]


class TestParseByteSize:
    @pytest.mark.parametrize(
        ("text", "expected"),
        [
            ("65536", 65536),
            ("1K", 1 << 10),
            ("1k", 1 << 10),
            ("256M", 256 << 20),
            ("1g", 1 << 30),
            ("2T", 2 << 40),
            ("2GiB", 2 << 30),
            ("16KB", 16 << 10),
            ("1.5k", 1536),
            (" 512m ", 512 << 20),
        ],
    )
    def test_valid(self, text, expected):
        assert parse_byte_size(text) == expected

    @pytest.mark.parametrize(
        "text", ["banana", "", "-3", "0", "12X", "K", "1.2.3M"]
    )
    def test_invalid(self, text):
        with pytest.raises(ValueError):
            parse_byte_size(text)


class TestBudgetResolution:
    def test_kwarg_wins_over_environment(self, monkeypatch):
        monkeypatch.setenv(SWEEP_BUDGET_ENV, "1G")
        assert resolve_sweep_budget(4096) == 4096

    def test_environment_fallback(self, monkeypatch):
        monkeypatch.setenv(SWEEP_BUDGET_ENV, "2K")
        assert resolve_sweep_budget() == 2048

    def test_unset_means_unbounded(self, monkeypatch):
        monkeypatch.delenv(SWEEP_BUDGET_ENV, raising=False)
        assert resolve_sweep_budget() is None


class TestRowFiles:
    def test_round_trip_is_exact(self, tmp_path):
        rng = numpy.random.default_rng(7)
        rows = rng.integers(0, 1 << 63, size=(100, 3)).astype(numpy.uint64)
        spilled = write_rows(tmp_path / "chunk.u64", rows)
        assert spilled.rows == 100
        assert spilled.nbytes == 100 * 3 * 8
        back = spilled.open()
        assert (numpy.asarray(back) == rows).all()
        spilled.delete()
        assert not spilled.path.exists()

    def test_appended_blocks_concatenate(self, tmp_path):
        spilled = RowFile(tmp_path / "runs.u64", 2)
        a = numpy.arange(8, dtype=numpy.uint64).reshape(4, 2)
        b = numpy.arange(8, 16, dtype=numpy.uint64).reshape(4, 2)
        spilled.append(a)
        spilled.append(b)
        spilled.close()
        merged = numpy.asarray(spilled.open())
        assert (merged == numpy.concatenate([a, b])).all()

    def test_width_mismatch_rejected(self, tmp_path):
        spilled = RowFile(tmp_path / "bad.u64", 2)
        with pytest.raises(ValueError):
            spilled.append(numpy.zeros((1, 3), dtype=numpy.uint64))
        spilled.close()


class TestMergeParity:
    """merge_parity == ground-truth run-parity cancellation."""

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_full_cancellation(self, seed):
        rng = numpy.random.default_rng(seed)
        words = int(rng.integers(1, 4))
        runs = [
            V._cancel_mod2(
                rng.integers(
                    0, 6, size=(int(rng.integers(1, 60)), words)
                ).astype(numpy.uint64)
            )
            for _ in range(int(rng.integers(2, 6)))
        ]
        runs = [run for run in runs if run.shape[0]] or [
            numpy.zeros((0, words), dtype=numpy.uint64)
        ]
        blocks = list(
            merge_parity(runs, V._row_keys, V._cancel_mod2, block_rows=4)
        )
        merged = (
            numpy.concatenate(blocks)
            if blocks
            else numpy.zeros((0, words), dtype=numpy.uint64)
        )
        truth = V._cancel_mod2(numpy.concatenate(runs))
        assert merged.shape == truth.shape
        assert (merged == truth).all()
        # blocks stream out in global sort order
        keys = V._row_keys(merged)
        assert (keys[:-1] <= keys[1:]).all()

    def test_everything_cancels_to_nothing(self):
        run = V._cancel_mod2(
            numpy.arange(12, dtype=numpy.uint64).reshape(6, 2)
        )
        merged = list(
            merge_parity(
                [run, run], V._row_keys, V._cancel_mod2, block_rows=2
            )
        )
        assert merged == []  # even multiplicity everywhere


class TestStaleReaping:
    def test_dead_pid_reaped_foreign_prefix_left(self, tmp_path):
        # A pid that is certainly dead: a reaped child of ours.
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        dead = tmp_path / f"repro-sweep-{child.pid}-deadbeef"
        dead.mkdir()
        ours = tmp_path / f"repro-sweep-{os.getpid()}-aliveabc"
        ours.mkdir()
        foreign = tmp_path / "somebody-else"
        foreign.mkdir()
        removed = reap_stale_spills(tmp_path)
        assert removed == 1
        assert not dead.exists()
        assert ours.exists()  # our own pid is never reaped
        assert foreign.exists()  # non-spill names untouched

    def test_spilldir_embeds_pid_and_cleans_up(self, tmp_path):
        spill = SpillDir(tmp_path)
        assert spill.path.name.startswith(f"repro-sweep-{os.getpid()}-")
        first = spill.next_file("run")
        second = spill.next_file("shard")
        assert first != second
        spill.cleanup()
        spill.cleanup()  # idempotent
        assert not spill.path.exists()


def assert_spilled_run_identical(netlist, budget, spill_root):
    """Budgeted fused run == reference, with spill spans observed."""
    reference = extract_irreducible_polynomial(netlist, engine="reference")
    telemetry = Telemetry()
    sink = telemetry.add_sink(MemorySink())
    with use(telemetry):
        budgeted = extract_irreducible_polynomial(
            netlist, engine="vector", fused=True, max_bytes=budget
        )
    assert budgeted.modulus == reference.modulus
    assert budgeted.member_bits == reference.member_bits
    for bit in range(reference.m):
        assert budgeted.expression_of(bit) == reference.expression_of(bit)
    assert spans_named(sink, "sweep.spill"), "budget never tripped"
    assert spans_named(sink, "sweep.merge"), "no streamed merges ran"
    assert telemetry.counters().get("sweep.spilled_bytes", 0) > 0
    assert "sweep.resident_bytes" in telemetry.gauges()
    # success path leaves no spill directories behind
    leftovers = [
        entry
        for entry in spill_root.iterdir()
        if entry.name.startswith("repro-sweep-")
    ]
    assert leftovers == []


class TestSpilledZoo:
    """Differential identity of the out-of-core path, all generators."""

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_nand_mapped_under_tiny_budget(
        self, name, monkeypatch, tmp_path
    ):
        force_matrix_loop(monkeypatch)
        monkeypatch.setenv(SPILL_DIR_ENV, str(tmp_path))
        netlist = synthesize(
            GENERATORS[name](0b100101), use_xor_cells=False
        )
        assert_spilled_run_identical(netlist, 1024, tmp_path)

    def test_m24_nand_mapped_under_budget(self, monkeypatch, tmp_path):
        from repro.fieldmath.irreducible import default_irreducible

        force_matrix_loop(monkeypatch)
        monkeypatch.setenv(SPILL_DIR_ENV, str(tmp_path))
        netlist = synthesize(
            generate_mastrovito(default_irreducible(24)),
            use_xor_cells=False,
        )
        assert_spilled_run_identical(netlist, 16384, tmp_path)

    def test_environment_budget_engages_spill(
        self, monkeypatch, tmp_path
    ):
        """REPRO_SWEEP_MAX_BYTES alone (no kwarg) trips the spill."""
        force_matrix_loop(monkeypatch)
        monkeypatch.setenv(SPILL_DIR_ENV, str(tmp_path))
        monkeypatch.setenv(SWEEP_BUDGET_ENV, "1K")
        netlist = synthesize(
            generate_mastrovito(0b100101), use_xor_cells=False
        )
        telemetry = Telemetry()
        sink = telemetry.add_sink(MemorySink())
        with use(telemetry):
            result = extract_irreducible_polynomial(
                netlist, engine="vector", fused=True
            )
        assert result.polynomial_str == "x^5 + x^2 + 1"
        assert spans_named(sink, "sweep.spill")

    def test_unbudgeted_run_never_spills(self, monkeypatch, tmp_path):
        force_matrix_loop(monkeypatch)
        monkeypatch.setenv(SPILL_DIR_ENV, str(tmp_path))
        monkeypatch.delenv(SWEEP_BUDGET_ENV, raising=False)
        netlist = synthesize(
            generate_mastrovito(0b100101), use_xor_cells=False
        )
        telemetry = Telemetry()
        sink = telemetry.add_sink(MemorySink())
        with use(telemetry):
            extract_irreducible_polynomial(
                netlist, engine="vector", fused=True
            )
        assert not spans_named(sink, "sweep.spill")


class TestSpillCleanupOnError:
    def test_term_limit_abort_removes_spill_dir(
        self, monkeypatch, tmp_path
    ):
        """The paper's memory-out raised *mid-spill* still unwinds the
        directory — the finally path, not just success."""
        force_matrix_loop(monkeypatch)
        monkeypatch.setenv(SPILL_DIR_ENV, str(tmp_path))
        netlist = synthesize(
            generate_mastrovito(0b1000011011), use_xor_cells=False
        )
        telemetry = Telemetry()
        sink = telemetry.add_sink(MemorySink())
        with use(telemetry):
            with pytest.raises(TermLimitExceeded):
                VectorEngine().rewrite_cones(
                    netlist,
                    list(netlist.outputs),
                    term_limit=20,
                    max_bytes=1024,
                )
        assert spans_named(sink, "sweep.spill"), (
            "the abort must happen after the spill for this test to "
            "exercise the error-path cleanup"
        )
        leftovers = [
            entry
            for entry in tmp_path.iterdir()
            if entry.name.startswith("repro-sweep-")
        ]
        assert leftovers == []


class TestSpilledKillAndResume:
    def test_spilled_chunks_resume_bit_identical(
        self, monkeypatch, tmp_path
    ):
        """Killed between sweep chunks of an out-of-core run: the
        checkpoint is mode-neutral, so the budgeted resume recomputes
        only the missing chunks and matches the cold reference."""
        from repro.service.fingerprint import fingerprint_netlist
        from repro.service.jobs import (
            ExtractionCheckpoint,
            checkpoint_path_for,
            checkpointed_extract,
        )

        force_matrix_loop(monkeypatch)
        monkeypatch.setenv(SPILL_DIR_ENV, str(tmp_path / "spills"))
        netlist = synthesize(
            generate_mastrovito(0b100101), use_xor_cells=False
        )
        cold = extract_expressions(netlist, engine="reference")
        fingerprint = fingerprint_netlist(netlist)
        path = checkpoint_path_for(tmp_path, fingerprint, None)
        checkpoint = ExtractionCheckpoint.load(
            path, fingerprint, "vector", None
        )

        # First fused_chunk=3 sweep (spilled) completes and persists
        # its bits; the process "dies" before the second chunk.
        extract_expressions(
            netlist,
            outputs=["z0", "z1", "z2"],
            engine="vector",
            fused=True,
            max_bytes=1024,
            on_result=lambda o, c, s: checkpoint.record(o, c.decode(), s),
        )
        reloaded = ExtractionCheckpoint.load(
            path, fingerprint, "vector", None
        )
        assert len(reloaded.completed()) == 3

        resumed = checkpointed_extract(
            netlist,
            engine="vector",
            fused=True,
            fused_chunk=3,
            max_bytes=1024,
            checkpoint_path=path,
        )
        assert len(resumed.resumed_bits) == 3
        assert len(resumed.computed_bits) == 2
        assert dict(resumed.run.expressions.items()) == dict(
            cold.expressions.items()
        )
        assert not path.exists()  # consumed on completion
        spills = tmp_path / "spills"
        assert not spills.exists() or not [
            entry
            for entry in spills.iterdir()
            if entry.name.startswith("repro-sweep-")
        ]
