"""CLI coverage for the service verbs (batch / cache) and --version."""

import json

import pytest

from repro import __version__
from repro.cli import main


@pytest.fixture
def designs(tmp_path):
    from repro.gen.mastrovito import generate_mastrovito
    from repro.gen.montgomery import generate_montgomery
    from repro.netlist.eqn_io import write_eqn

    directory = tmp_path / "designs"
    directory.mkdir()
    write_eqn(generate_mastrovito(0b10011), directory / "mast4.eqn")
    write_eqn(generate_montgomery(0b1011), directory / "mont3.eqn")
    return directory


class TestVersionFlag:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out


class TestBatch:
    def test_batch_writes_jsonl_and_summary(self, designs, tmp_path, capsys):
        report = tmp_path / "report.jsonl"
        code = main(
            [
                "batch",
                str(designs),
                "-o",
                str(report),
                "--cache-dir",
                str(tmp_path / "cache"),
                "--engine",
                "bitpack",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2/2 ok" in out
        lines = [json.loads(l) for l in report.read_text().splitlines()]
        assert {l["netlist"] for l in lines} == {"mast4", "mont3"}
        assert all(l["cache"] == "miss" for l in lines)

    def test_repeat_batch_hits_cache(self, designs, tmp_path, capsys):
        report = tmp_path / "report.jsonl"
        args = [
            "batch", str(designs), "-o", str(report),
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "2 cache hits" in capsys.readouterr().out
        lines = [json.loads(l) for l in report.read_text().splitlines()]
        assert all(l["cache"] == "hit" for l in lines)

    def test_batch_exit_code_flags_failures(self, designs, tmp_path, capsys):
        from repro.gen.faults import stuck_at
        from repro.gen.mastrovito import generate_mastrovito
        from repro.netlist.eqn_io import write_eqn

        net = generate_mastrovito(0b10011)
        mutant, _ = stuck_at(net, "z0", 1)
        write_eqn(mutant, designs / "buggy.eqn")
        code = main(
            [
                "batch", str(designs),
                "-o", str(tmp_path / "report.jsonl"),
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        assert code == 1
        assert "FAILING: buggy" in capsys.readouterr().err

    def test_batch_empty_target_fails_cleanly(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(SystemExit, match="no netlists"):
            main(["batch", str(empty)])

    def test_the_retired_checkpoint_flag_is_rejected(self, designs, capsys):
        """The cone tier is the only resume state; the flag that
        switched the separate checkpoint off is gone."""
        with pytest.raises(SystemExit) as excinfo:
            main(["batch", str(designs), "--no-checkpoint"])
        assert excinfo.value.code == 2
        assert "--no-checkpoint" in capsys.readouterr().err

    def test_clear_removes_leftover_checkpoint_files(
        self, designs, tmp_path, capsys
    ):
        """Checkpoint files of earlier versions are ignored, and
        ``cache clear`` removes them with everything else."""
        cache_dir = tmp_path / "cache"
        leftover = cache_dir / "v1" / "jobs" / "v3-abc.jsonl"
        leftover.parent.mkdir(parents=True)
        leftover.write_text('{"schema": 1}\n')
        report = tmp_path / "report.jsonl"
        argv = ["batch", str(designs), "-o", str(report)]
        assert main(argv + ["--cache-dir", str(cache_dir)]) == 0
        lines = report.read_text().splitlines()
        assert [json.loads(l)["status"] for l in lines] == ["ok", "ok"]
        assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
        assert not leftover.exists()


class TestCacheVerb:
    def test_stats_and_clear(self, designs, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        main(
            [
                "batch", str(designs),
                "-o", str(tmp_path / "report.jsonl"),
                "--cache-dir", str(cache_dir),
            ]
        )
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "extraction:2" in out
        assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
        # 2 extractions + 2 verdict sidecars + 2 verifications +
        # 2 file-fingerprint memos + 7 output cones (m=4 + m=3).
        assert "cleared 13 cached entries" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_prune_verb(self, designs, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        main(
            [
                "batch", str(designs),
                "-o", str(tmp_path / "report.jsonl"),
                "--cache-dir", str(cache_dir),
            ]
        )
        capsys.readouterr()
        # 2 extractions + 2 verifications + 7 output cones (m=4 +
        # m=3) on disk; prune down to 1.
        assert main(
            [
                "cache", "prune",
                "--cache-dir", str(cache_dir),
                "--max-entries", "1",
            ]
        ) == 0
        assert "pruned 10 cached entries" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        assert "1 entries" in capsys.readouterr().out

    def test_prune_without_budget_fails_cleanly(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["cache", "prune", "--cache-dir", str(tmp_path / "c")])
