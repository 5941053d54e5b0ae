"""The engine registry's contract.

Every registered engine is listed and resolves: there are no startup
availability probes.  An engine that breaks does so at run time, with
its own error (the ``unusable_engine`` fixture of ``conftest.py``
registers one), and only a name nobody registered is "unknown".
"""

import pytest

from repro.engine import (
    EngineError,
    engine_availability,
    get_engine,
    registered_engines,
)
from repro.gen.mastrovito import generate_mastrovito
from tests.conftest import UNUSABLE_REASON as REASON


class TestRegistryDiagnostics:
    def test_builtin_engines(self):
        assert registered_engines() == ("bitpack", "reference", "vector")

    def test_unusable_engine_is_registered(self, unusable_engine):
        assert unusable_engine in registered_engines()
        # Kept for perfbench/ready.py: every registered name maps to None.
        assert engine_availability() == {
            name: None for name in registered_engines()
        }

    def test_resolving_unusable_engine_names_the_reason(self, unusable_engine):
        """Resolution succeeds; the engine's own error surfaces when it
        runs, never "unknown engine"."""
        engine = get_engine(unusable_engine)
        with pytest.raises(EngineError) as caught:
            engine.rewrite_cone(generate_mastrovito(0b10011), "z0")
        message = str(caught.value)
        assert message == REASON
        assert "unknown engine" not in message

    def test_unknown_name_still_says_unknown(self):
        with pytest.raises(EngineError, match="unknown engine"):
            get_engine("tpu")

    def test_vector_is_the_bitpack_engine(self):
        """``vector`` needs nothing installed: it is another name for
        the bitpack instance."""
        assert engine_availability()["vector"] is None
        assert get_engine("vector") is get_engine("bitpack")

    def test_cli_unusable_engine_fails_with_reason(
        self, tmp_path, capsys, unusable_engine
    ):
        """An engine that fails at run time is one stderr line and
        exit code 2, not a traceback with exit 1 (which means reducible
        / not equivalent); no other engine is tried."""
        from repro.cli import main
        from repro.netlist.eqn_io import write_eqn

        path = str(tmp_path / "m4.eqn")
        write_eqn(generate_mastrovito(0b10011), path)
        cache = ["--cache-dir", str(tmp_path / "cache")]
        for argv in (
            ["extract", path],
            ["audit", path],
            ["diagnose", path],
            ["eco", path, path] + cache,
        ):
            code = main(argv + ["--engine", unusable_engine])
            captured = capsys.readouterr()
            assert code == 2, argv
            assert captured.err == f"error: EngineError: {REASON}\n"
            assert captured.out == ""


class TestRetiredAigName:
    """``aig`` is no engine: it fails like any unregistered name."""

    def test_cli_rejects_it_as_an_invalid_choice(self, tmp_path):
        import os
        import pathlib
        import subprocess
        import sys

        from repro.netlist.eqn_io import write_eqn

        path = tmp_path / "m4.eqn"
        write_eqn(generate_mastrovito(0b10011), path)
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        completed = subprocess.run(
            [sys.executable, "-m", "repro.cli", "extract", str(path),
             "--engine", "aig"],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert completed.returncode == 2
        assert "argument --engine: invalid choice: 'aig'" in completed.stderr
        assert "Traceback" not in completed.stderr

    def test_campaign_runner_raises_unknown_engine(self, tmp_path):
        from repro.service.runner import CampaignRunner

        with pytest.raises(EngineError, match="unknown engine 'aig'"):
            CampaignRunner(engine="aig", cache_dir=tmp_path / "cache")
