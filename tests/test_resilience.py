"""Supervision tier: retry policy, deadlines, quarantine, and the error
record of an engine that fails at run time."""

import time

import pytest

from repro import telemetry as _telemetry
from repro.engine import EngineError
from repro.gen.mastrovito import generate_mastrovito
from repro.netlist.eqn_io import write_eqn
from repro.service.resilience import (
    Deadline,
    DeadlineExceeded,
    Quarantined,
    RetryPolicy,
    run_supervised,
)
from repro.service.runner import run_campaign
from tests.conftest import UNUSABLE_REASON


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

        def flaky():
            calls.append(None)
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
        def broken():
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
        def bad():
            raise ValueError("malformed netlist")

        with pytest.raises(ValueError, match="malformed netlist"):
            run_supervised(bad, policy=RetryPolicy(max_attempts=3))

    def test_blown_deadline_quarantines(self):
        deadline = Deadline(wall_s=0.01)

        def slow():
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
            lambda: "ok", telemetry=telemetry, label="m4"
        )
        attempts = [
            event for event in sink.events
            if event.get("name") == "job.attempt"
        ]
        assert len(attempts) == 1
        assert attempts[0]["attrs"]["label"] == "m4"


class TestCampaignEngineFailure:
    def test_failing_engine_is_an_error_record(
        self, tmp_path, unusable_engine
    ):
        designs = tmp_path / "designs"
        designs.mkdir()
        write_eqn(generate_mastrovito(0b1011), designs / "m3.eqn")
        report = run_campaign(
            designs,
            cache_dir=tmp_path / "cache",
            engine=unusable_engine,
            mode="extract",
        )
        record = report.records[0]
        assert record["status"] == "error"
        assert record["error"] == f"EngineError: {UNUSABLE_REASON}"
