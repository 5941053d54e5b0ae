"""The availability-probed engine registry's diagnostics contract.

An engine with an optional dependency is always *registered*, listed
as unavailable with a concrete reason when the dependency is missing,
and resolving it then fails with that reason — never with "unknown
engine".  The tests register their own unusable engine (and, for the
CLI, patch the ``vector`` probe) so the contract is checked on every
host, whatever it has installed.
"""

import importlib.util

import pytest

from repro.engine import (
    EngineError,
    ReferenceEngine,
    available_engines,
    engine_availability,
    get_engine,
    register_engine,
    registered_engines,
)
from repro.engine import registry
from repro.gen.mastrovito import generate_mastrovito

UNUSABLE = "unusable-test"
REASON = "the flux capacitor is not installed"


@pytest.fixture
def unusable_engine():
    register_engine(UNUSABLE, ReferenceEngine, probe=lambda: REASON)
    yield UNUSABLE
    for table in (registry._FACTORIES, registry._PROBES, registry._INSTANCES):
        table.pop(UNUSABLE, None)


class TestRegistryDiagnostics:
    def test_builtin_engines(self):
        assert registered_engines() == ("aig", "bitpack", "reference", "vector")

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

    def test_vector_probe_matches_numpy_presence(self):
        has_numpy = importlib.util.find_spec("numpy") is not None
        assert (engine_availability()["vector"] is None) == has_numpy
        assert ("vector" in available_engines()) == has_numpy

    def test_cli_unusable_engine_fails_with_reason(
        self, tmp_path, vector_unavailable
    ):
        from repro.cli import main
        from repro.netlist.eqn_io import write_eqn

        path = tmp_path / "m4.eqn"
        write_eqn(generate_mastrovito(0b10011), path)
        with pytest.raises(SystemExit) as caught:
            main(["extract", str(path), "--engine", "vector", "--fused"])
        assert str(caught.value) == (
            f"engine 'vector' is unavailable: {vector_unavailable}"
        )
