"""Chaos harness: seeded schedules, injection sites, campaign acceptance."""

import json
import subprocess
import sys

import pytest

from repro import chaos as chaos_mod
from repro import telemetry as _telemetry
from repro.chaos import CRASH_EXIT_CODE, Chaos, ChaosIOError, ChaosSpec
from repro.gen.digit_serial import generate_digit_serial
from repro.gen.interleaved import generate_interleaved
from repro.gen.karatsuba import generate_karatsuba
from repro.gen.mastrovito import generate_mastrovito
from repro.gen.montgomery import generate_montgomery
from repro.gen.schoolbook import generate_schoolbook
from repro.netlist.eqn_io import write_eqn
from repro.service.cache import ResultCache
from repro.service.runner import run_campaign


@pytest.fixture(autouse=True)
def _isolated_chaos():
    """Never leak an installed chaos spec into other tests."""
    yield
    chaos_mod.configure(None)


class TestSpecParsing:
    def test_sites_delays_seed(self):
        spec = ChaosSpec.parse(
            "crash_worker=0.1,io_error=0.05,delay.sweep=0.2@seed=7"
        )
        assert spec.rates == {"crash_worker": 0.1, "io_error": 0.05}
        assert dict(spec.delays) == {"sweep": 0.2}
        assert spec.seed == 7

    def test_default_seed_is_zero(self):
        assert ChaosSpec.parse("io_error=1").seed == 0

    def test_rates_clamped(self):
        spec = ChaosSpec.parse("a=7,b=-3")
        assert spec.rates == {"a": 1.0, "b": 0.0}

    def test_blank_and_none(self):
        assert ChaosSpec.parse(None) is None
        assert ChaosSpec.parse("   ") is None

    def test_junk_entries_skipped(self):
        spec = ChaosSpec.parse("io_error=0.5,junk,=1,x=notanumber")
        assert spec.rates == {"io_error": 0.5}

    def test_all_junk_is_disabled(self):
        assert ChaosSpec.parse("junk,@seed=oops") is None

    def test_env_singleton(self, monkeypatch):
        monkeypatch.setenv(chaos_mod.CHAOS_ENV, "io_error=0.5@seed=3")
        chaos_mod._ACTIVE = None
        chaos = chaos_mod.get_chaos()
        assert chaos.enabled
        assert chaos.spec.seed == 3


class TestSchedule:
    def _schedule(self, raw, scope, visits=64):
        chaos = Chaos(ChaosSpec.parse(raw))
        chaos.enter_scope(scope)
        for _ in range(visits):
            chaos.fires("io_error")
        return list(chaos.events)

    def test_same_seed_identical_schedule(self):
        raw = "io_error=0.3@seed=42"
        assert self._schedule(raw, "w1") == self._schedule(raw, "w1")
        assert any(fired for _, _, fired in self._schedule(raw, "w1"))

    def test_different_seed_differs(self):
        a = self._schedule("io_error=0.3@seed=1", "w1")
        b = self._schedule("io_error=0.3@seed=2", "w1")
        assert a != b

    def test_scope_changes_schedule(self):
        raw = "io_error=0.3@seed=5"
        assert self._schedule(raw, "m4.eqn:1") != self._schedule(
            raw, "m4.eqn:2"
        )

    def test_enter_scope_resets_counters(self):
        chaos = Chaos(ChaosSpec.parse("io_error=0.5@seed=9"))
        chaos.enter_scope("w")
        first = [chaos.fires("io_error") for _ in range(16)]
        chaos.enter_scope("w")  # same scope, fresh counters
        assert [chaos.fires("io_error") for _ in range(16)] == first

    def test_keyed_decision_ignores_visit_order(self):
        chaos = Chaos(ChaosSpec.parse("corrupt_cache=0.5@seed=4"))
        decisions = {
            key: chaos.fires("corrupt_cache", key=key)
            for key in ("k1", "k2", "k3")
        }
        again = Chaos(ChaosSpec.parse("corrupt_cache=0.5@seed=4"))
        for key in ("k3", "k1", "k2"):
            assert again.fires("corrupt_cache", key=key) == decisions[key]

    def test_zero_rate_never_fires(self):
        chaos = Chaos(ChaosSpec.parse("io_error=0@seed=1,crash_worker=1"))
        assert not any(chaos.fires("io_error") for _ in range(64))

    def test_disabled_instance_is_inert(self):
        chaos = Chaos(None)
        assert not chaos.enabled
        assert not chaos.fires("io_error")
        chaos.io_error()  # must not raise
        assert chaos.corrupt(b"payload") == b"payload"


class TestInjectionSites:
    def test_io_error_raises_retryable_oserror(self):
        chaos = Chaos(ChaosSpec.parse("io_error=1@seed=0"))
        with pytest.raises(ChaosIOError, match="checkpoint append"):
            chaos.io_error(where="checkpoint append job.jsonl")
        assert issubclass(ChaosIOError, OSError)

    def test_corrupt_breaks_json_deterministically(self):
        payload = json.dumps({"polynomial": "x^8+x^4+x^3+x+1"}).encode()
        chaos = Chaos(ChaosSpec.parse("corrupt_cache=1@seed=0"))
        mangled = chaos.corrupt(payload, key="extraction:abc")
        assert mangled != payload
        with pytest.raises(json.JSONDecodeError):
            json.loads(mangled.decode("utf-8", "replace"))
        again = Chaos(ChaosSpec.parse("corrupt_cache=1@seed=0"))
        assert again.corrupt(payload, key="extraction:abc") == mangled

    def test_crash_needs_scope(self):
        chaos = Chaos(ChaosSpec.parse("crash_worker=1@seed=0"))
        chaos.crash()  # unscoped (coordinator): must be a no-op

    def test_crash_kills_scoped_process(self):
        code = (
            "from repro.chaos import Chaos, ChaosSpec\n"
            "chaos = Chaos(ChaosSpec.parse('crash_worker=1@seed=0'))\n"
            "chaos.enter_scope('worker:1')\n"
            "chaos.crash()\n"
            "raise SystemExit(0)  # unreachable\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True
        )
        assert proc.returncode == CRASH_EXIT_CODE

    def test_injected_faults_counted(self):
        telemetry = _telemetry.Telemetry()
        chaos = Chaos(ChaosSpec.parse("io_error=1@seed=0"))
        with _telemetry.use(telemetry):
            with pytest.raises(ChaosIOError):
                chaos.io_error()
        counters = telemetry.metrics()["counters"]
        assert counters.get("chaos.injected.io_error") == 1


class TestTelemetryDelays:
    def test_delay_entries_parsed_from_chaos_env(self):
        delays = _telemetry._chaos_span_delays("delay.sweep=0.25@seed=7")
        assert delays == {"sweep": 0.25}
        assert _telemetry._chaos_span_delays(None) == {}
        assert _telemetry._chaos_span_delays("io_error=0.5") == {}

    def test_configure_installs_delays(self):
        span = "zz_chaos_test_span"
        chaos_mod.configure(f"delay.{span}=0.125")
        try:
            assert _telemetry._SPAN_DELAYS.get(span) == 0.125
        finally:
            _telemetry._SPAN_DELAYS.pop(span, None)


# ----------------------------------------------------------------------
# Acceptance: a campaign under chaos finishes identical to a calm one
# ----------------------------------------------------------------------

#: Fields that legitimately differ between a calm and a chaotic run
#: (timing, retry bookkeeping, cache temperature) — everything else,
#: polynomials above all, must match bit for bit.
_VOLATILE_FIELDS = ("wall_time_s", "attempts", "cache", "cones_reused")


def _normalized(records):
    return [
        {k: v for k, v in record.items() if k not in _VOLATILE_FIELDS}
        for record in records
    ]


@pytest.fixture
def six_designs(tmp_path):
    designs = tmp_path / "designs"
    designs.mkdir()
    write_eqn(generate_mastrovito(0b1011), designs / "mast3.eqn")
    write_eqn(generate_montgomery(0b10011), designs / "mont4.eqn")
    write_eqn(generate_schoolbook(0b100101), designs / "school5.eqn")
    write_eqn(generate_karatsuba(0b101001), designs / "kara5.eqn")
    write_eqn(generate_interleaved(0b1000011), designs / "inter6.eqn")
    write_eqn(generate_digit_serial(0b1000011), designs / "digit6.eqn")
    return designs


def _chaotic_campaign(designs, tmp_path, name, spec):
    """Audit ``designs`` under the chaos ``spec`` with 5 attempts."""
    chaos_mod.configure(spec)
    telemetry = _telemetry.Telemetry()
    try:
        report = run_campaign(
            designs,
            report_path=tmp_path / f"{name}.jsonl",
            cache_dir=tmp_path / f"cache_{name}",
            workers=2,
            retries=5,
            telemetry=telemetry,
            mode="audit",
        )
    finally:
        chaos_mod.configure(None)
    # The streamed JSONL report agrees with the in-memory records.
    lines = (tmp_path / f"{name}.jsonl").read_text().splitlines()
    assert _normalized([json.loads(l) for l in lines]) == _normalized(
        report.records
    )
    # The cone tier is the only resume state: no checkpoint directory.
    cache = ResultCache(tmp_path / f"cache_{name}")
    assert not (cache.version_dir / "jobs").exists()
    return report, telemetry.metrics()["counters"], cache


@pytest.fixture
def calm(six_designs, tmp_path):
    report = run_campaign(
        six_designs,
        report_path=tmp_path / "calm.jsonl",
        cache_dir=tmp_path / "cache_calm",
        workers=2,
        mode="audit",
    )
    assert report.ok == 6
    return report


class TestCampaignUnderChaos:
    def test_chaotic_campaign_matches_calm_run(
        self, six_designs, tmp_path, calm
    ):
        # Seeded so the schedules are reproducible: crashes, IO errors
        # and cache corruption all fire (see the counter asserts), yet
        # every netlist completes within the retry budget.
        crashing, counters, _ = _chaotic_campaign(
            six_designs, tmp_path, "crash",
            "crash_worker=0.25,io_error=0.15@seed=13",
        )
        assert crashing.ok == 6
        assert crashing.quarantined == 0
        assert _normalized(crashing.records) == _normalized(calm.records)
        # The supervisor really did resubmit dead workers, and the
        # resubmissions resumed finished bits from the cone tier.
        assert counters.get("resilience.retry", 0) >= 1
        assert sum(r.get("cones_reused", 0) for r in crashing.records) > 0

        corrupting, _, cache = _chaotic_campaign(
            six_designs, tmp_path, "corrupt",
            "io_error=0.15,corrupt_cache=1.0@seed=13",
        )
        assert corrupting.ok == 6
        assert _normalized(corrupting.records) == _normalized(calm.records)
        # corrupt_cache=1.0 mangled every written entry; with chaos
        # off, reading one quarantines it instead of crashing.
        fingerprint = corrupting.records[0]["fingerprint"]
        assert cache.get_extraction(fingerprint) is None
        assert cache.corrupt >= 1
        assert list(cache.quarantine_dir().glob("*"))

    def test_crashes_over_a_corrupting_cache_never_answer_wrong(
        self, six_designs, tmp_path, calm
    ):
        """With every cone write mangled, a crashed worker's finished
        bits cannot be resumed, so a netlist may exhaust its
        resubmissions: it then ends ``worker_died``, never with a
        wrong answer."""
        chaotic, _, _ = _chaotic_campaign(
            six_designs, tmp_path, "both",
            "crash_worker=0.25,io_error=0.15,corrupt_cache=1.0@seed=13",
        )
        expected = _normalized(calm.records)
        for record, want in zip(_normalized(chaotic.records), expected):
            if record["status"] == "ok":
                assert record == want
            else:
                assert record["status"] == "worker_died"
                assert record["path"] == want["path"]
                assert "polynomial" not in record
        assert chaotic.ok + chaotic.quarantined == 6

    def test_every_submission_crashing_yields_worker_died(
        self, tmp_path
    ):
        designs = tmp_path / "designs"
        designs.mkdir()
        write_eqn(generate_mastrovito(0b1011), designs / "m3.eqn")
        chaos_mod.configure("crash_worker=1.0@seed=0")
        telemetry = _telemetry.Telemetry()
        report = run_campaign(
            [designs / "m3.eqn", designs / "m3.eqn"],
            cache_dir=tmp_path / "cache",
            workers=2,
            retries=2,
            telemetry=telemetry,
            mode="extract",
        )
        chaos_mod.configure(None)
        assert [r["status"] for r in report.records] == [
            "worker_died", "worker_died",
        ]
        record = report.records[0]
        assert record["reason"]["kind"] == "worker_died"
        assert record["reason"]["exitcode"] == CRASH_EXIT_CODE
        assert record["reason"]["submissions"] == 2
        assert report.quarantined == 2
        assert report.ok == 0
        counters = telemetry.metrics()["counters"]
        assert counters.get("resilience.quarantined") == 2
        assert counters.get("resilience.retry") == 2
