"""Supervision tier: retry policy, deadlines, engine fallback ladder."""

import time

import pytest

from repro import telemetry as _telemetry
from repro.engine import EngineError, FALLBACK_LADDER, fallback_chain
from repro.engine import registry
from repro.gen.mastrovito import generate_mastrovito
from repro.netlist.eqn_io import write_eqn
from repro.service.resilience import (
    Deadline,
    DeadlineExceeded,
    Quarantined,
    RetryPolicy,
    engine_ladder,
    run_supervised,
    select_engine,
)
from repro.service.runner import run_campaign
from tests.conftest import VECTOR_BLOCKED


class TestRetryPolicy:
    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(
            base_delay_s=0.1, max_delay_s=0.3, jitter=0.0
        )
        assert [policy.delay_s(n) for n in (1, 2, 3, 4)] == [
            0.1, 0.2, 0.3, 0.3,
        ]

    def test_jitter_is_seeded_and_bounded(self):
        policy = RetryPolicy(base_delay_s=1.0, jitter=0.5, seed=3)
        delays = [policy.delay_s(1, token="m4") for _ in range(3)]
        assert delays[0] == delays[1] == delays[2]
        assert 0.5 <= delays[0] <= 1.0
        assert delays[0] != RetryPolicy(
            base_delay_s=1.0, jitter=0.5, seed=4
        ).delay_s(1, token="m4")

    def test_classification(self):
        policy = RetryPolicy()
        assert policy.retryable(OSError("transient"))
        assert policy.retryable(TimeoutError("slow disk"))
        # Deterministic filesystem facts: a retry cannot help, and the
        # existing "missing netlist -> error record" path must survive.
        assert not policy.retryable(FileNotFoundError("gone"))
        assert not policy.retryable(PermissionError("denied"))
        assert not policy.retryable(ValueError("parse error"))
        assert not policy.retryable(EngineError("engine blew up"))


class TestDeadline:
    def test_wall_budget(self):
        deadline = Deadline(wall_s=0.01)
        with deadline:
            time.sleep(0.02)
            with pytest.raises(DeadlineExceeded, match="wall time"):
                deadline.check()

    def test_rss_budget_fires(self):
        deadline = Deadline(max_rss_bytes=1, interval_s=0.005)
        with deadline:
            time.sleep(0.05)  # give the watchdog a sampling tick
            with pytest.raises(DeadlineExceeded, match="rss"):
                deadline.check()

    def test_unarmed_is_noop(self):
        deadline = Deadline()
        assert not deadline.armed
        with deadline:
            deadline.check()
        assert deadline.remaining_s() is None


class TestRunSupervised:
    def test_retries_then_succeeds(self):
        calls = []

        def flaky(engine):
            calls.append(engine)
            if len(calls) < 3:
                raise OSError("transient")
            return "value"

        telemetry = _telemetry.Telemetry()
        outcome = run_supervised(
            flaky,
            policy=RetryPolicy(max_attempts=3, base_delay_s=0.0),
            telemetry=telemetry,
            sleep=lambda s: None,
        )
        assert outcome.value == "value"
        assert outcome.attempts == 3
        assert outcome.retries == 2
        counters = telemetry.metrics()["counters"]
        assert counters["resilience.retry"] == 2

    def test_exhausted_budget_quarantines(self):
        def broken(engine):
            raise OSError("still broken")

        telemetry = _telemetry.Telemetry()
        with pytest.raises(Quarantined) as info:
            run_supervised(
                broken,
                policy=RetryPolicy(max_attempts=2, base_delay_s=0.0),
                telemetry=telemetry,
                sleep=lambda s: None,
            )
        assert info.value.reason["kind"] == "retry_exhausted"
        assert info.value.reason["attempts"] == 2
        assert telemetry.metrics()["counters"]["resilience.quarantined"] == 1

    def test_deterministic_error_propagates_unchanged(self):
        def bad(engine):
            raise ValueError("malformed netlist")

        with pytest.raises(ValueError, match="malformed netlist"):
            run_supervised(bad, policy=RetryPolicy(max_attempts=3))

    def test_engine_failure_walks_ladder(self):
        def work(engine):
            if engine == "vector":
                raise EngineError("simulated backend death")
            return f"ran on {engine}"

        telemetry = _telemetry.Telemetry()
        outcome = run_supervised(
            work,
            engines=("vector", "reference"),
            policy=RetryPolicy(max_attempts=1),
            telemetry=telemetry,
        )
        assert outcome.value == "ran on reference"
        assert outcome.engine_used == "reference"
        assert "vector" in outcome.fallback_reason
        assert outcome.fallbacks == 1
        assert telemetry.metrics()["counters"]["resilience.fallback"] == 1

    def test_last_rung_failure_propagates(self):
        # The bottom of the ladder has nowhere to degrade to; its
        # failure surfaces unchanged (exactly what a single-rung,
        # fallback-off run would do), after one recorded fallback.
        def work(engine):
            raise EngineError(f"{engine} died")

        telemetry = _telemetry.Telemetry()
        with pytest.raises(EngineError, match="reference died"):
            run_supervised(
                work,
                engines=("vector", "reference"),
                policy=RetryPolicy(max_attempts=1),
                telemetry=telemetry,
            )
        assert telemetry.metrics()["counters"]["resilience.fallback"] == 1

    def test_blown_deadline_quarantines(self):
        deadline = Deadline(wall_s=0.01)

        def slow(engine):
            time.sleep(0.02)
            deadline.check()

        with deadline, pytest.raises(Quarantined) as info:
            run_supervised(
                slow, deadline=deadline, telemetry=_telemetry.Telemetry()
            )
        assert info.value.reason["kind"] == "deadline"

    def test_attempt_spans_emitted(self):
        telemetry = _telemetry.Telemetry()
        sink = _telemetry.MemorySink()
        telemetry.add_sink(sink)
        run_supervised(
            lambda engine: "ok", telemetry=telemetry, label="m4"
        )
        attempts = [
            event for event in sink.events
            if event.get("name") == "job.attempt"
        ]
        assert len(attempts) == 1
        assert attempts[0]["attrs"]["label"] == "m4"


class TestFallbackLadder:
    def test_ladder_shape(self):
        assert FALLBACK_LADDER[-1] == "reference"
        assert fallback_chain("vector") == FALLBACK_LADDER
        assert fallback_chain("reference") == ("reference",)
        # Unknown engines degrade through the whole ladder.
        assert fallback_chain("warp9")[0] == "warp9"
        assert fallback_chain("warp9")[1:] == FALLBACK_LADDER

    def test_select_engine_passthrough(self):
        assert select_engine("reference") == ("reference", None)
        assert select_engine(None)[1] is None

    def test_select_engine_unknown_error_unchanged(self):
        with pytest.raises(EngineError, match="unknown engine"):
            select_engine("warp9", fallback=True)
        with pytest.raises(EngineError, match="unknown engine"):
            select_engine("warp9", fallback=False)

    def test_unavailable_engine_degrades_only_with_fallback(
        self, vector_unavailable
    ):
        # 'vector' registered but unusable: the no-numpy scenario.
        with pytest.raises(EngineError, match="unavailable"):
            select_engine("vector", fallback=False)
        engine_used, why = select_engine("vector", fallback=True)
        assert engine_used == "bitpack"
        assert "vector" in why and vector_unavailable in why

    def test_engine_ladder(self, vector_unavailable):
        assert engine_ladder("vector") == ("vector",)
        ladder = engine_ladder("vector", fallback=True)
        assert ladder[0] == "vector"
        assert ladder[-1] == "reference"
        # Unusable rungs are filtered; the head survives regardless.
        assert "vector" not in engine_ladder("warp9", fallback=True)[1:]


class TestCampaignFallback:
    def test_degraded_campaign_bit_identical_with_reason(
        self, tmp_path, monkeypatch
    ):
        designs = tmp_path / "designs"
        designs.mkdir()
        write_eqn(generate_mastrovito(0b10011), designs / "m4.eqn")

        baseline = run_campaign(
            designs,
            cache_dir=tmp_path / "cache_vec",
            engine="vector",
            mode="extract",
        )
        monkeypatch.setitem(
            registry._PROBES, "vector", lambda: VECTOR_BLOCKED
        )
        degraded = run_campaign(
            designs,
            cache_dir=tmp_path / "cache_degraded",
            engine="vector",
            fallback=True,
            mode="extract",
        )
        assert degraded.ok == 1
        record = degraded.records[0]
        assert record["engine_used"] == "bitpack"
        assert "vector" in record["fallback_reason"]
        assert VECTOR_BLOCKED in record["fallback_reason"]
        assert record["polynomial"] == baseline.records[0]["polynomial"]
        assert record["member_bits"] == baseline.records[0]["member_bits"]

    def test_unavailable_engine_campaign_errors_without_fallback(
        self, tmp_path, vector_unavailable
    ):
        designs = tmp_path / "designs"
        designs.mkdir()
        write_eqn(generate_mastrovito(0b1011), designs / "m3.eqn")
        report = run_campaign(
            designs,
            cache_dir=tmp_path / "cache",
            engine="vector",
            mode="extract",
        )
        record = report.records[0]
        assert record["status"] == "error"
        assert "unavailable" in record["error"]
        assert "engine_used" not in record
