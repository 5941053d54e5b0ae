"""Trace analytics: profiles, critical path, diffing, the CI guard.

Exercises :mod:`repro.telemetry.analyze` on synthetic traces with
known timings (so self-time and percentiles are checked against exact
expectations), the calibration-normalized regression detector — both
on identical traces (no regression) and on a deliberately slowed one
(the injected span, and only it, must flag) — the ``repro trace``
CLI surface, the fault-injection env hook, the perf ledger, the
atexit metrics flush, and bit-identity of traced vs untraced runs
including the instrumented baselines.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro import telemetry
from repro.cli import main
from repro.gen.mastrovito import generate_mastrovito
from repro.telemetry import analyze

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


# ----------------------------------------------------------------------
# Synthetic traces
# ----------------------------------------------------------------------


def _span(
    name,
    span_id,
    parent_id=None,
    wall_s=1.0,
    pid=1,
    start=0.0,
    status="ok",
    attrs=None,
):
    return {
        "type": "span",
        "schema": telemetry.TRACE_SCHEMA,
        "name": name,
        "span_id": span_id,
        "parent_id": parent_id,
        "pid": pid,
        "thread": "MainThread",
        "start_unix": start,
        "wall_s": wall_s,
        "cpu_s": wall_s * 0.9,
        "peak_bytes": None,
        "status": status,
        "attrs": attrs or {},
    }


def _calibrate(pass_s, pid=1, span_id=99):
    return _span(
        "calibrate",
        span_id,
        wall_s=pass_s * 3,
        pid=pid,
        attrs={"pass_s": pass_s, "passes": 3},
    )


def _workload(scale=1.0, pid=1, pass_s=0.01):
    """root(10s) -> sweep(8s) -> substitute(3s)+cancel(2s); scaled."""
    return [
        _calibrate(pass_s * scale, pid=pid),
        _span("extract", 1, wall_s=10.0 * scale, pid=pid, start=1.0),
        _span(
            "sweep", 2, parent_id=1, wall_s=8.0 * scale, pid=pid, start=1.1
        ),
        _span(
            "substitute",
            3,
            parent_id=2,
            wall_s=3.0 * scale,
            pid=pid,
            start=1.2,
        ),
        _span(
            "cancel", 4, parent_id=2, wall_s=2.0 * scale, pid=pid, start=4.3
        ),
    ]


def test_profile_counts_and_self_time():
    profile = analyze.profile_trace(_workload())
    spans = profile["spans"]
    assert profile["spans_total"] == 5
    assert profile["processes"] == 1
    # extract: 10s wall, 8s in its only child -> 2s self.
    assert spans["extract"]["wall_self_s"] == pytest.approx(2.0)
    # sweep: 8s wall, 3+2 in children -> 3s self.
    assert spans["sweep"]["wall_self_s"] == pytest.approx(3.0)
    # Leaves keep their full wall as self time.
    assert spans["cancel"]["wall_self_s"] == pytest.approx(2.0)
    assert profile["calibration_s"] == pytest.approx(0.01)


def test_profile_percentiles_are_exact():
    events = [
        _span("cone", i, wall_s=float(i), start=float(i))
        for i in range(1, 11)  # walls 1..10
    ]
    entry = analyze.profile_trace(events)["spans"]["cone"]
    assert entry["count"] == 10
    assert entry["wall_p50_s"] == pytest.approx(5.5)
    assert entry["wall_p90_s"] == pytest.approx(9.1)
    assert entry["wall_max_s"] == pytest.approx(10.0)


def test_critical_path_descends_heaviest_child():
    path = analyze.critical_path(_workload())
    names = [step["name"] for step in path]
    # extract (longest root) -> sweep -> substitute (3s beats 2s).
    assert names == ["extract", "sweep", "substitute"]
    assert [step["depth"] for step in path] == [0, 1, 2]
    assert path[1]["self_s"] == pytest.approx(3.0)


def test_check_trace_structural_failures():
    events = _workload()
    assert analyze.check_trace(events) == []
    failures = analyze.check_trace(
        events, {"require_spans": ["sweep", "decode"]}
    )
    assert len(failures) == 1 and "decode" in failures[0]
    failures = analyze.check_trace(
        events, {"require_counters": ["cache.hit"]}
    )
    assert len(failures) == 1 and "cache.hit" in failures[0]
    assert analyze.check_trace([]) == ["trace contains no span events"]


def test_check_trace_error_spans():
    events = _workload() + [
        _span("cone", 50, wall_s=0.1, status="error", start=9.0)
    ]
    events[-1]["error"] = "ValueError: boom"
    failures = analyze.check_trace(events)
    assert len(failures) == 1 and "status=error" in failures[0]
    assert analyze.check_trace(events, {"allow_errors": True}) == []


def test_diff_identical_traces_is_ok():
    report = analyze.diff_traces(_workload(), _workload())
    assert report["ok"]
    assert report["regressions"] == []
    assert report["calibration"]["factor"] == pytest.approx(1.0)
    assert all(
        row["status"] == "ok" for row in report["spans"].values()
    )


def test_diff_flags_only_the_slowed_span():
    current = _workload()
    for event in current:
        if event["name"] == "sweep":
            event["wall_s"] = 40.0  # 5x the baseline's 8s
    report = analyze.diff_traces(_workload(), current)
    assert not report["ok"]
    assert report["regressions"] == ["sweep"]
    assert report["spans"]["sweep"]["status"] == "regression"
    assert report["spans"]["substitute"]["status"] == "ok"


def test_diff_calibration_normalizes_host_speed():
    """A uniformly 3x-slower host (calibration included) is no
    regression; without the calibrate spans it would flag."""
    base = _workload()
    slower_host = _workload(scale=3.0)
    report = analyze.diff_traces(base, slower_host)
    assert report["calibration"]["factor"] == pytest.approx(3.0)
    assert report["ok"], report["regressions"]
    # Same traces, calibration disabled: everything looks 3x slower.
    raw = analyze.diff_traces(base, slower_host, {"calibrate": False})
    assert not raw["ok"]
    assert "sweep" in raw["regressions"]


def test_diff_new_and_gone_spans():
    current = _workload() + [
        _span("decode", 60, wall_s=0.5, start=11.0)
    ]
    base = _workload() + [_span("legacy", 61, wall_s=0.5, start=11.0)]
    report = analyze.diff_traces(base, current)
    assert report["spans"]["decode"]["status"] == "new"
    assert report["spans"]["legacy"]["status"] == "gone"
    assert report["ok"]  # new/gone are informational, not failures


def test_diff_per_span_policy_override():
    current = _workload()
    for event in current:
        if event["name"] == "cancel":
            event["wall_s"] = 3.5  # 1.75x
    strict = analyze.diff_traces(
        _workload(),
        current,
        {"per_span": {"cancel": {"max_ratio": 1.5}}},
    )
    assert strict["regressions"] == ["cancel"]
    default = analyze.diff_traces(_workload(), current)
    assert default["ok"]


def test_diff_min_wall_filters_micro_spans():
    current = _workload() + [
        _span("tiny", 70, wall_s=0.009, start=12.0)
    ]
    base = _workload() + [_span("tiny", 70, wall_s=0.001, start=12.0)]
    report = analyze.diff_traces(base, current)  # 9x on a 1ms span
    assert report["ok"]


def test_diff_min_wall_checks_a_span_that_grew_past_the_floor():
    """The floor applies to the larger side: a span that was below it
    in the baseline and is far above it now is a regression, while a
    span below it on both sides stays unchecked."""
    base = _workload() + [
        _span("cone", 70, wall_s=0.0046, start=12.0),
        _span("tiny", 71, wall_s=0.001, start=12.5),
    ]
    current = _workload() + [
        _span("cone", 70, wall_s=0.8, start=12.0),
        _span("tiny", 71, wall_s=0.0015, start=12.5),
    ]
    report = analyze.diff_traces(base, current)
    assert report["regressions"] == ["cone"]
    assert report["spans"]["tiny"]["status"] == "ok"


def test_run_calibration_emits_span():
    registry = telemetry.Telemetry()
    sink = registry.add_sink(telemetry.MemorySink())
    pass_s = analyze.run_calibration(registry, passes=1)
    assert pass_s > 0
    spans = [e for e in sink.events if e.get("type") == "span"]
    assert spans and spans[0]["name"] == "calibrate"
    assert spans[0]["attrs"]["pass_s"] == pytest.approx(pass_s)


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------


def _write_trace(path, events):
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event) + "\n")


class TestTraceCli:
    def test_trace_profile(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        _write_trace(trace, _workload())
        assert main(["trace", str(trace), "--profile"]) == 0
        out = capsys.readouterr().out
        assert "profile: 5 spans" in out
        assert "critical path:" in out
        assert "extract" in out

    def test_trace_json(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        _write_trace(trace, _workload())
        assert main(["trace", str(trace), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["profile"]["spans"]["sweep"]["count"] == 1
        assert payload["critical_path"][0]["name"] == "extract"

    def test_trace_check_policy(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        _write_trace(trace, _workload())
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({"require_spans": ["nope"]}))
        assert (
            main(["trace", str(trace), "--check", "--policy", str(policy)])
            == 1
        )
        assert "nope" in capsys.readouterr().err
        assert main(["trace", str(trace), "--check"]) == 0

    def test_trace_diff_ok_and_regressed(self, tmp_path, capsys):
        base = tmp_path / "base.jsonl"
        same = tmp_path / "same.jsonl"
        slow = tmp_path / "slow.jsonl"
        _write_trace(base, _workload())
        _write_trace(same, _workload())
        slowed = _workload()
        for event in slowed:
            if event["name"] == "sweep":
                event["wall_s"] = 40.0
        _write_trace(slow, slowed)

        assert main(["trace", "diff", str(base), str(same), "--check"]) == 0
        assert "trace diff: OK" in capsys.readouterr().out

        # Without --check the diff reports but exits 0.
        assert main(["trace", "diff", str(base), str(slow)]) == 0
        assert "REGRESSED" in capsys.readouterr().out
        assert main(["trace", "diff", str(base), str(slow), "--check"]) == 1
        assert "'sweep' regressed" in capsys.readouterr().out

    def test_trace_diff_json_names_regressed_span(self, tmp_path, capsys):
        base = tmp_path / "base.jsonl"
        slow = tmp_path / "slow.jsonl"
        _write_trace(base, _workload())
        slowed = _workload()
        for event in slowed:
            if event["name"] == "sweep":
                event["wall_s"] = 40.0
        _write_trace(slow, slowed)
        assert main(["trace", "diff", str(base), str(slow), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["regressions"] == ["sweep"]
        assert report["ok"] is False

    def test_traced_cli_run_emits_calibration(self, tmp_path, capsys):
        design = tmp_path / "m4.eqn"
        trace = tmp_path / "run.jsonl"
        assert main(["gen", "--p", "x^4+x+1", "-o", str(design)]) == 0
        assert main(
            ["extract", str(design), "--trace", str(trace)]
        ) == 0
        capsys.readouterr()
        events = telemetry.load_trace(trace)
        names = {e.get("name") for e in events if e.get("type") == "span"}
        assert "calibrate" in names and "extract" in names
        assert analyze.profile_trace(events)["calibration_s"] > 0


# ----------------------------------------------------------------------
# Fault injection (the CI guard's self-test hook)
# ----------------------------------------------------------------------


def test_delay_injection_slows_named_span(tmp_path):
    """REPRO_TELEMETRY_DELAY stretches the named span's wall clock in
    a child process; the diff flags exactly that span."""
    script = textwrap.dedent(
        """
        import sys, time
        from repro import telemetry
        from repro.telemetry.analyze import run_calibration
        registry = telemetry.Telemetry()
        registry.add_sink(telemetry.JsonlSink(sys.argv[1]))
        run_calibration(registry, passes=1)
        with telemetry.use(registry):
            with registry.span("sweep"):
                time.sleep(0.05)
            with registry.span("decode"):
                time.sleep(0.05)
        registry.flush_metrics()
        """
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    fast = tmp_path / "fast.jsonl"
    slow = tmp_path / "slow.jsonl"
    subprocess.run(
        [sys.executable, "-c", script, str(fast)], env=env, check=True
    )
    env["REPRO_TELEMETRY_DELAY"] = "sweep=0.3"
    subprocess.run(
        [sys.executable, "-c", script, str(slow)], env=env, check=True
    )

    fast_events = telemetry.load_trace(fast)
    slow_events = telemetry.load_trace(slow)
    walls = {
        e["name"]: e["wall_s"]
        for e in slow_events
        if e.get("type") == "span"
    }
    assert walls["sweep"] >= 0.3
    assert walls["decode"] < 0.3
    report = analyze.diff_traces(fast_events, slow_events)
    assert "sweep" in report["regressions"]
    assert "decode" not in report["regressions"]


def test_atexit_flushes_metrics_without_explicit_flush(tmp_path):
    """A process that adds a sink and exits still writes its final
    metrics event (the forked-worker safety net)."""
    script = textwrap.dedent(
        """
        import sys
        from repro import telemetry
        registry = telemetry.Telemetry()
        registry.add_sink(telemetry.JsonlSink(sys.argv[1]))
        registry.counter("work.done", 7)
        registry.observe("cache.lookup", 0.002)
        # no flush_metrics(), no close() - atexit must cover it
        """
    )
    trace = tmp_path / "exit.jsonl"
    subprocess.run(
        [sys.executable, "-c", script, str(trace)],
        env=dict(os.environ, PYTHONPATH=SRC),
        check=True,
    )
    events = telemetry.load_trace(trace)
    metrics = [e for e in events if e.get("type") == "metrics"]
    assert metrics, "atexit flush never fired"
    assert metrics[-1]["counters"]["work.done"] == 7
    assert metrics[-1]["histograms"]["cache.lookup"]["count"] == 1


# ----------------------------------------------------------------------
# Perf ledger
# ----------------------------------------------------------------------


def _import_ledger():
    import importlib.util

    path = os.path.join(
        os.path.dirname(__file__), os.pardir, "benchmarks", "ledger.py"
    )
    spec = importlib.util.spec_from_file_location("bench_ledger", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ledger_appends_schema_versioned_rows(tmp_path):
    ledger = _import_ledger()
    trace = tmp_path / "t.jsonl"
    _write_trace(trace, _workload())
    path = tmp_path / "BENCH_history.jsonl"
    row = ledger.append_row(
        "unit", summary={"rows": 1}, trace_path=str(trace), path=path
    )
    ledger.append_row("unit2", path=path)

    lines = path.read_text().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first == json.loads(json.dumps(row))
    assert first["schema"] == ledger.LEDGER_SCHEMA
    assert first["bench"] == "unit"
    assert first["calibration_s"] == pytest.approx(0.01)  # from trace
    assert "sweep" in first["profile"]
    assert first["host"]["python"]
    second = json.loads(lines[1])
    assert second["bench"] == "unit2"
    assert second["calibration_s"] > 0  # measured fresh
    assert "profile" not in second


# ----------------------------------------------------------------------
# Traced == untraced bit identity (incl. baselines)
# ----------------------------------------------------------------------


def test_tracing_never_changes_results(tmp_path):
    from repro.baselines.bdd import build_output_bdds
    from repro.baselines.groebner import verify_known_polynomial
    from repro.baselines.simprobe import probe_polynomial
    from repro.extract.extractor import extract_irreducible_polynomial

    netlist = generate_mastrovito(0b10011)

    plain_extract = extract_irreducible_polynomial(netlist)
    plain_groebner = verify_known_polynomial(netlist, 0b10011)
    plain_probe = probe_polynomial(netlist)
    _, plain_roots = build_output_bdds(netlist)

    registry = telemetry.Telemetry()
    registry.add_sink(telemetry.MemorySink())
    traced_extract = extract_irreducible_polynomial(
        netlist, telemetry=registry
    )
    traced_groebner = verify_known_polynomial(
        netlist, 0b10011, telemetry=registry
    )
    traced_probe = probe_polynomial(netlist, telemetry=registry)
    _, traced_roots = build_output_bdds(netlist, telemetry=registry)

    assert traced_extract.modulus == plain_extract.modulus
    assert traced_extract.member_bits == plain_extract.member_bits
    assert traced_groebner.member == plain_groebner.member
    assert traced_probe.modulus == plain_probe.modulus
    assert traced_probe.consistent == plain_probe.consistent
    assert traced_roots == plain_roots


def test_baseline_sat_traced_identity():
    from repro.baselines.sat import equivalence_check_sat

    golden = generate_mastrovito(0b10011)
    candidate = generate_mastrovito(0b10011)
    plain_equivalent, _ = equivalence_check_sat(golden, candidate)
    registry = telemetry.Telemetry()
    sink = registry.add_sink(telemetry.MemorySink())
    traced_equivalent, _ = equivalence_check_sat(
        golden, candidate, telemetry=registry
    )
    assert traced_equivalent == plain_equivalent
    names = {
        e.get("name") for e in sink.events if e.get("type") == "span"
    }
    assert "baseline.sat" in names


def test_baseline_spans_feed_histograms():
    from repro.baselines.groebner import verify_known_polynomial
    from repro.baselines.simprobe import probe_polynomial

    registry = telemetry.Telemetry()
    netlist = generate_mastrovito(0b10011)
    verify_known_polynomial(netlist, 0b10011, telemetry=registry)
    probe_polynomial(netlist, telemetry=registry)
    histograms = registry.histograms()
    assert histograms["span.baseline.groebner"]["count"] == 1
    assert histograms["span.baseline.groebner.bit"]["count"] == 4
    assert histograms["span.baseline.simprobe"]["count"] == 1
