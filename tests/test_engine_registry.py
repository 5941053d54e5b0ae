"""The availability-probed engine registry's diagnostics contract.

An engine with an optional dependency is always *registered*, listed
as unavailable with a concrete reason when the dependency is missing,
and resolving it then fails with that reason — never with "unknown
engine".  The tests register their own unusable engine (the
``unusable_engine`` fixture of ``conftest.py``) so the contract is
checked on every host, whatever it has installed.
"""

import pytest

from repro.engine import (
    EngineError,
    available_engines,
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
        assert unusable_engine in engine_availability()

    def test_availability_reason_is_listed(self, unusable_engine):
        assert engine_availability()[unusable_engine] == REASON
        assert unusable_engine not in available_engines()

    def test_resolving_unusable_engine_names_the_reason(self, unusable_engine):
        with pytest.raises(EngineError) as caught:
            get_engine(unusable_engine)
        message = str(caught.value)
        assert message == f"engine {unusable_engine!r} is unavailable: {REASON}"
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
        self, tmp_path, unusable_engine
    ):
        from repro.cli import main
        from repro.netlist.eqn_io import write_eqn

        path = tmp_path / "m4.eqn"
        write_eqn(generate_mastrovito(0b10011), path)
        with pytest.raises(SystemExit) as caught:
            main(["extract", str(path), "--engine", unusable_engine])
        assert str(caught.value) == (
            f"engine {unusable_engine!r} is unavailable: {REASON}"
        )


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
