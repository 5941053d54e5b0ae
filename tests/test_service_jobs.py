"""Checkpointed shard scheduling: kill-and-resume must be lossless."""

import json

import pytest

from repro.extract.extractor import result_from_run
from repro.gen.mastrovito import generate_mastrovito
from repro.gen.montgomery import generate_montgomery
from repro.rewrite.parallel import extract_expressions
from repro.service.fingerprint import fingerprint_netlist
from repro.service.jobs import (
    ExtractionCheckpoint,
    checkpoint_path_for,
    checkpointed_extract,
)


class Killed(RuntimeError):
    """Stand-in for SIGKILL: aborts the driver between two shards."""


def kill_after(n):
    """An on_result hook that dies once n bits have completed."""
    seen = []

    def hook(output, cone, stats):
        seen.append(output)
        if len(seen) >= n:
            raise Killed(f"killed after {n} bits")

    return hook


@pytest.mark.parametrize("engine", ["reference", "bitpack"])
class TestKillAndResume:
    def test_resume_is_bit_identical_to_cold_run(self, tmp_path, engine):
        """The acceptance scenario: kill mid-extraction, resume, compare."""
        net = generate_mastrovito(0b100011011)  # GF(2^8)
        cold = extract_expressions(net, engine=engine)

        path = tmp_path / "job.json"
        fingerprint = fingerprint_netlist(net)
        checkpoint = ExtractionCheckpoint.load(path, fingerprint, engine, None)

        def persist_then_die(output, cone, stats, _count=[0]):
            checkpoint.record(output, cone.to_json(), stats)
            _count[0] += 1
            if _count[0] >= 3:
                raise Killed("simulated kill")

        with pytest.raises(Killed):
            extract_expressions(net, engine=engine, on_result=persist_then_die)

        # The checkpoint file survived the kill with exactly 3 bits.
        reloaded = ExtractionCheckpoint.load(path, fingerprint, engine, None)
        assert len(reloaded.completed()) == 3

        resumed = checkpointed_extract(
            net, engine=engine, checkpoint_path=path
        )
        assert sorted(resumed.resumed_bits) == reloaded.completed()
        assert len(resumed.computed_bits) == 8 - 3

        # Same per-bit expressions ...
        assert dict(resumed.run.expressions.items()) == dict(
            cold.expressions.items()
        )
        # ... and the same P(x) through Algorithm 2.
        cold_result = result_from_run(cold, 8)
        warm_result = result_from_run(resumed.run, 8)
        assert warm_result.modulus == cold_result.modulus
        assert warm_result.member_bits == cold_result.member_bits
        assert warm_result.polynomial_str == "x^8 + x^4 + x^3 + x + 1"

        # Completion discards the checkpoint.
        assert not path.exists()

    def test_cross_engine_resume(self, tmp_path, engine):
        """Bits checkpointed by one backend resume under the other —
        through the same directory-derived path the campaign runner
        uses (checkpoint names are engine-neutral on purpose)."""
        other = "bitpack" if engine == "reference" else "reference"
        net = generate_montgomery(0b1000011)  # GF(2^6)
        fingerprint = fingerprint_netlist(net)
        path = checkpoint_path_for(tmp_path, fingerprint, None)
        checkpoint = ExtractionCheckpoint.load(path, fingerprint, engine, None)

        killer = kill_after(2)

        def persist(output, cone, stats):
            checkpoint.record(output, cone.to_json(), stats)
            killer(output, cone, stats)

        with pytest.raises(Killed):
            extract_expressions(net, engine=engine, on_result=persist)

        resumed = checkpointed_extract(
            net, engine=other, checkpoint_dir=tmp_path
        )
        assert len(resumed.resumed_bits) == 2
        cold = extract_expressions(net, engine=other)
        assert dict(resumed.run.expressions.items()) == dict(
            cold.expressions.items()
        )


class TestCheckpointStore:
    def test_file_is_valid_jsonl_after_every_record(self, tmp_path):
        """Header + one appended line per bit — every line parses, and
        recording bit k does not rewrite bits 0..k-1 (O(bits) I/O)."""
        net = generate_mastrovito(0b1011)
        path = tmp_path / "job.jsonl"
        fingerprint = fingerprint_netlist(net)
        checkpoint = ExtractionCheckpoint.load(
            path, fingerprint, "reference", None
        )

        def check_file(output, cone, stats):
            checkpoint.record(output, cone.to_json(), stats)
            lines = path.read_text().splitlines()
            header = json.loads(lines[0])
            assert header["fingerprint"] == fingerprint
            assert output in {
                json.loads(line)["output"] for line in lines[1:]
            }

        extract_expressions(net, on_result=check_file)
        assert len(path.read_text().splitlines()) == 1 + 3

    def test_torn_trailing_line_loses_only_that_bit(self, tmp_path):
        net = generate_mastrovito(0b1011)
        path = tmp_path / "job.jsonl"
        fingerprint = fingerprint_netlist(net)
        checkpoint = ExtractionCheckpoint.load(
            path, fingerprint, "reference", None
        )
        extract_expressions(
            net,
            on_result=lambda o, c, s: checkpoint.record(o, c.to_json(), s),
        )
        # Simulate a kill mid-append: truncate the final record.
        torn = path.read_text()[:-20]
        path.write_text(torn)
        reloaded = ExtractionCheckpoint.load(
            path, fingerprint, "reference", None
        )
        assert len(reloaded.completed()) == 2  # third bit re-runs

    def test_fingerprint_mismatch_discards_state(self, tmp_path):
        net = generate_mastrovito(0b1011)
        path = tmp_path / "job.json"
        checkpoint = ExtractionCheckpoint.load(
            path, fingerprint_netlist(net), "reference", None
        )
        extract_expressions(
            net,
            on_result=lambda o, c, s: checkpoint.record(o, c.to_json(), s),
        )
        stale = ExtractionCheckpoint.load(
            path, "v1-" + "0" * 64, "reference", None
        )
        assert stale.completed() == []

    def test_term_limit_mismatch_discards_state(self, tmp_path):
        net = generate_mastrovito(0b1011)
        path = tmp_path / "job.json"
        fingerprint = fingerprint_netlist(net)
        checkpoint = ExtractionCheckpoint.load(path, fingerprint, "reference", None)
        extract_expressions(
            net,
            on_result=lambda o, c, s: checkpoint.record(o, c.to_json(), s),
        )
        stale = ExtractionCheckpoint.load(path, fingerprint, "reference", 10)
        assert stale.completed() == []

    def test_canonical_path_is_engine_neutral(self, tmp_path):
        path = checkpoint_path_for(tmp_path, "v1-abc", None)
        assert path.name == "v1-abc.jsonl"  # no engine: cross-engine resume
        limited = checkpoint_path_for(tmp_path, "v1-abc", 500)
        assert limited.name == "v1-abc.t500.jsonl"

    def test_subset_run_preserves_other_bits_progress(self, tmp_path):
        """Extracting a subset must not discard checkpointed bits the
        call never asked for."""
        net = generate_mastrovito(0b10011)
        fingerprint = fingerprint_netlist(net)
        path = checkpoint_path_for(tmp_path, fingerprint, None)
        checkpoint = ExtractionCheckpoint.load(
            path, fingerprint, "reference", None
        )
        extract_expressions(
            net,
            outputs=["z2", "z3"],
            on_result=lambda o, c, s: checkpoint.record(o, c.to_json(), s),
        )

        subset = checkpointed_extract(
            net, outputs=["z0"], checkpoint_dir=tmp_path
        )
        assert subset.computed_bits == ["z0"]
        assert path.exists()  # z2/z3 progress survives
        reloaded = ExtractionCheckpoint.load(
            path, fingerprint, "reference", None
        )
        # z2/z3 survive; the subset run's own z0 is recorded as well.
        assert reloaded.completed() == ["z0", "z2", "z3"]

        full = checkpointed_extract(net, checkpoint_dir=tmp_path)
        assert sorted(full.resumed_bits) == ["z0", "z2", "z3"]
        assert not path.exists()  # fully consumed now

    def test_requires_a_location(self):
        with pytest.raises(ValueError, match="checkpoint_path or"):
            checkpointed_extract(generate_mastrovito(0b111))


class TestCheckpointFsync:
    """REPRO_CHECKPOINT_FSYNC=1 upgrades appends to power-loss durable."""

    def _record_all(self, tmp_path, monkeypatch, env):
        import os as os_mod

        from repro.service import jobs as jobs_mod

        if env is None:
            monkeypatch.delenv(jobs_mod.CHECKPOINT_FSYNC_ENV, raising=False)
        else:
            monkeypatch.setenv(jobs_mod.CHECKPOINT_FSYNC_ENV, env)
        synced = []
        real_fsync = os_mod.fsync
        monkeypatch.setattr(
            "repro.ioutil.os.fsync",
            lambda fd: (synced.append(fd), real_fsync(fd))[1],
        )
        net = generate_mastrovito(0b1011)
        path = tmp_path / "job.jsonl"
        checkpoint = ExtractionCheckpoint.load(
            path, fingerprint_netlist(net), "reference", None
        )
        extract_expressions(
            net,
            on_result=lambda o, c, s: checkpoint.record(o, c.to_json(), s),
        )
        assert len(checkpoint.completed()) == 3
        return synced

    def test_default_appends_do_not_fsync(self, tmp_path, monkeypatch):
        # atomic_write_text (the header) always syncs its temp file;
        # the three appended bit records must add none by default.
        synced = self._record_all(tmp_path, monkeypatch, None)
        assert len(synced) == 1  # the header's atomic write only

    def test_env_opts_into_durable_appends(self, tmp_path, monkeypatch):
        synced = self._record_all(tmp_path, monkeypatch, "1")
        assert len(synced) == 1 + 3  # header + one flush per record

    def test_env_spellings(self, monkeypatch):
        from repro.service import jobs as jobs_mod

        for value, expected in (
            ("1", True), ("true", True), ("YES", True), ("on", True),
            ("0", False), ("", False), ("no", False),
        ):
            monkeypatch.setenv(jobs_mod.CHECKPOINT_FSYNC_ENV, value)
            assert jobs_mod._fsync_appends() is expected
        monkeypatch.delenv(jobs_mod.CHECKPOINT_FSYNC_ENV)
        assert jobs_mod._fsync_appends() is False
