"""HTTP API end-to-end tests on an ephemeral port."""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.gen.faults import stuck_at
from repro.gen.mastrovito import generate_mastrovito
from repro.netlist.blif_io import format_blif
from repro.netlist.eqn_io import format_eqn
from repro.service.api import serve
from tests.conftest import UNUSABLE_REASON


@pytest.fixture
def server(tmp_path):
    api = serve(
        host="127.0.0.1",
        port=0,  # ephemeral
        cache_dir=str(tmp_path / "cache"),
        engine="bitpack",
    )
    api.start()
    yield api
    api.shutdown()


@pytest.fixture
def base(server):
    host, port = server.address
    return f"http://{host}:{port}"


def get(url, expect=200):
    try:
        with urllib.request.urlopen(url) as response:
            assert response.status == expect
            return json.load(response)
    except urllib.error.HTTPError as error:
        assert error.code == expect, error.read()
        return json.load(error)


def post(url, payload, expect=(200, 202)):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request) as response:
            assert response.status in expect
            return json.load(response)
    except urllib.error.HTTPError as error:
        assert error.code in expect, error.read()
        return json.load(error)


def wait_done(base_url, job_id, timeout_s=20.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        view = get(f"{base_url}/v1/jobs/{job_id}")
        if view["status"] in ("done", "error"):
            return view
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never finished")


class TestEndpoints:
    def test_health(self, base, server):
        view = get(f"{base}/v1/health")
        assert view["status"] == "ok"
        assert view["engine"] == "bitpack"

    def test_submit_poll_fetch(self, base):
        text = format_eqn(generate_mastrovito(0b10011))
        job = post(f"{base}/v1/jobs", {"netlist": text, "mode": "audit"})
        assert job["status"] in ("queued", "running", "done")
        view = wait_done(base, job["job_id"])
        assert view["status"] == "done"
        assert view["result"]["polynomial"] == "x^4 + x + 1"
        assert view["result"]["equivalent"] is True

        # The artifact is now addressable by fingerprint.
        summary = get(
            f"{base}/v1/results/{job['fingerprint']}?kind=extraction"
        )
        assert summary["polynomial"] == "x^4 + x + 1"
        full = get(
            f"{base}/v1/results/{job['fingerprint']}"
            "?kind=verification&full=1"
        )
        assert full["kind"] == "verification"
        assert full["payload"]["simulation_ok"] is True

    def test_resubmission_is_a_cache_hit(self, base):
        text = format_eqn(generate_mastrovito(0b1011))
        first = post(f"{base}/v1/jobs", {"netlist": text, "mode": "extract"})
        wait_done(base, first["job_id"])
        second = post(
            f"{base}/v1/jobs", {"netlist": text, "mode": "extract"}
        )
        assert second["status"] == "done"
        assert second["cache"] == "hit"
        assert second["result"]["polynomial"] == "x^3 + x + 1"

    def test_eco_resubmission_reports_cone_reuse(self, base):
        from repro.gen.faults import flip_gate
        from repro.service.fingerprint import fingerprint_netlist

        net = generate_mastrovito(0b100101)
        mutant, _ = flip_gate(net, net.gates[10].output)
        first = post(
            f"{base}/v1/jobs",
            {"netlist": format_eqn(net), "mode": "extract"},
        )
        wait_done(base, first["job_id"])
        # Submit the single-gate edit with the baseline's fingerprint:
        # the clean cones come from the per-cone cache and the view
        # reports how many were reused.
        job = post(
            f"{base}/v1/jobs",
            {
                "netlist": format_eqn(mutant),
                "mode": "extract",
                "baseline_fingerprint": fingerprint_netlist(net),
            },
        )
        view = wait_done(base, job["job_id"])
        assert view["status"] == "done"
        assert view["baseline_fingerprint"] == fingerprint_netlist(net)
        assert view["cones_reused"] > 0

    def test_bad_baseline_fingerprint_type_rejected(self, base):
        text = format_eqn(generate_mastrovito(0b1011))
        view = post(
            f"{base}/v1/jobs",
            {"netlist": text, "baseline_fingerprint": 7},
            expect=(400,),
        )
        assert "baseline_fingerprint" in view["error"]

    def test_blif_submission_and_diagnose(self, base):
        net = generate_mastrovito(0b10011)
        mutant, _ = stuck_at(net, "z0", 1)
        job = post(
            f"{base}/v1/jobs",
            {
                "netlist": format_blif(mutant),
                "format": "blif",
                "mode": "diagnose",
            },
        )
        view = wait_done(base, job["job_id"])
        assert view["status"] == "done"
        assert view["result"]["clean"] is False

    def test_stats(self, base):
        text = format_eqn(generate_mastrovito(0b1011))
        job = post(f"{base}/v1/jobs", {"netlist": text, "mode": "extract"})
        wait_done(base, job["job_id"])
        stats = get(f"{base}/v1/stats")
        assert stats["jobs"].get("done", 0) >= 1
        assert stats["cache"]["entries"]["extraction"] >= 1
        assert stats["engines_available"] == [
            "bitpack", "reference", "vector"
        ]
        assert "engines_unavailable" not in stats


class TestRejections:
    def test_unknown_job(self, base):
        assert "error" in get(f"{base}/v1/jobs/job-999", expect=404)

    def test_unknown_endpoint(self, base):
        assert "error" in get(f"{base}/v1/frobnicate", expect=404)

    def test_uncached_result_404(self, base):
        assert "error" in get(
            f"{base}/v1/results/v1-{'0' * 64}?kind=extraction", expect=404
        )

    def test_bad_kind(self, base):
        assert "error" in get(
            f"{base}/v1/results/v1-{'0' * 64}?kind=frob", expect=400
        )

    def test_squarer_is_not_a_result_kind(self, base):
        """Squarers are cached as diagnoses only: ``kind=squarer`` is an
        unknown kind, not another name for the diagnosis."""
        text = format_eqn(generate_mastrovito(0b10011))
        job = post(f"{base}/v1/jobs", {"netlist": text, "mode": "diagnose"})
        assert wait_done(base, job["job_id"])["status"] == "done"
        url = f"{base}/v1/results/{job['fingerprint']}"
        assert get(f"{url}?kind=diagnosis")["kind"] == "diagnosis"
        assert "squarer" in get(f"{url}?kind=squarer", expect=400)["error"]

    def test_missing_netlist_field(self, base):
        assert "error" in post(f"{base}/v1/jobs", {}, expect=(400,))

    def test_bad_json(self, base):
        request = urllib.request.Request(
            f"{base}/v1/jobs",
            data=b"not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    @pytest.mark.parametrize(
        "body", [b"[1, 2]", b'"text"', b"42", b"\xff"],
        ids=["list", "string", "number", "not-utf8"],
    )
    def test_a_body_that_is_no_json_object_is_a_400(self, base, body):
        request = urllib.request.Request(
            f"{base}/v1/jobs",
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        assert set(json.load(excinfo.value)) == {"error"}

    def test_negative_content_length_rejected_not_hung(self, base, server):
        import http.client

        host, port = server.address
        connection = http.client.HTTPConnection(host, port, timeout=5)
        connection.putrequest("POST", "/v1/jobs", skip_host=False)
        connection.putheader("Content-Length", "-1")
        connection.endheaders()
        response = connection.getresponse()  # must answer, not block
        assert response.status == 400
        connection.close()

    def test_unparseable_netlist(self, base):
        view = post(
            f"{base}/v1/jobs",
            {"netlist": "INPUT a\nz = FROB(a)\n"},
            expect=(400,),
        )
        assert "parse failed" in view["error"]

    def test_unknown_mode_engine_format(self, base):
        text = format_eqn(generate_mastrovito(0b111))
        assert "error" in post(
            f"{base}/v1/jobs", {"netlist": text, "mode": "frob"},
            expect=(400,),
        )
        assert "error" in post(
            f"{base}/v1/jobs", {"netlist": text, "engine": "frob"},
            expect=(400,),
        )
        # The retired cut-based engine is no alias of a live one.
        assert post(
            f"{base}/v1/jobs", {"netlist": text, "engine": "aig"},
            expect=(400,),
        ) == {"error": "unknown engine 'aig'"}
        assert "error" in post(
            f"{base}/v1/jobs", {"netlist": text, "format": "frob"},
            expect=(400,),
        )

    def test_buggy_multiplier_audits_as_not_equivalent(self, base):
        net = generate_mastrovito(0b10011)
        mutant, _ = stuck_at(net, "z1", 0)
        job = post(
            f"{base}/v1/jobs",
            {"netlist": format_eqn(mutant), "mode": "audit"},
        )
        view = wait_done(base, job["job_id"])
        assert view["status"] == "done"
        assert view["result"]["equivalent"] is False


def delete(url, expect):
    request = urllib.request.Request(url, method="DELETE")
    try:
        with urllib.request.urlopen(request) as response:
            assert response.status == expect
            return json.load(response)
    except urllib.error.HTTPError as error:
        assert error.code == expect, error.read()
        return json.load(error)


def stub_outcome():
    """A real audit outcome of a tiny multiplier, for stubbed pipelines."""
    from repro.service.pipeline import run_mode

    net = generate_mastrovito(0b1011)
    return run_mode("audit", lambda: net, None, None, engine="bitpack")


@pytest.fixture
def blocked_server(tmp_path, monkeypatch):
    """worker_threads=1, max_queue=1, pipeline parked on an event."""
    import threading

    from repro.service import api as api_mod
    from repro.service.resilience import RetryPolicy

    release = threading.Event()
    entered = threading.Event()

    def parked_pipeline(mode, load, fingerprint, cache, **kwargs):
        entered.set()
        release.wait(15)
        progress = kwargs.get("progress")
        if progress is not None:
            progress(None, None, None)  # cancellation observation point
        return stub_outcome()

    monkeypatch.setattr(api_mod, "run_mode", parked_pipeline)
    api = api_mod.serve(
        host="127.0.0.1",
        port=0,
        cache_dir=str(tmp_path / "cache"),
        engine="bitpack",
        worker_threads=1,
        max_queue=1,
    )
    api.retry_policy = RetryPolicy(max_attempts=1)
    api.start()
    yield api, release, entered
    release.set()
    api.shutdown()


class TestBackpressure:
    def test_full_queue_gets_429_with_retry_after(self, blocked_server):
        api, release, entered = blocked_server
        host, port = api.address
        base_url = f"http://{host}:{port}"
        text = format_eqn(generate_mastrovito(0b1011))

        running = post(f"{base_url}/v1/jobs", {"netlist": text})
        assert entered.wait(5)  # the single worker is now parked
        queued = post(f"{base_url}/v1/jobs", {"netlist": text})

        request = urllib.request.Request(
            f"{base_url}/v1/jobs",
            data=json.dumps({"netlist": text}).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 429
        assert int(excinfo.value.headers["Retry-After"]) >= 1
        body = json.load(excinfo.value)
        assert "queue full" in body["error"]

        # The rejected job left no residue in the table.
        assert api.job_view(json.loads("{}").get("job_id", "job-3")) is None
        release.set()
        wait_done(base_url, running["job_id"])
        wait_done(base_url, queued["job_id"])


class TestCancellation:
    def test_delete_unknown_is_404(self, base):
        assert "error" in delete(f"{base}/v1/jobs/job-999", expect=404)

    def test_cancel_queued_running_finished(self, blocked_server):
        api, release, entered = blocked_server
        host, port = api.address
        base_url = f"http://{host}:{port}"
        text = format_eqn(generate_mastrovito(0b1011))

        running = post(f"{base_url}/v1/jobs", {"netlist": text})
        assert entered.wait(5)
        queued = post(f"{base_url}/v1/jobs", {"netlist": text})

        # Queued: cancelled immediately (200), idempotently.
        view = delete(f"{base_url}/v1/jobs/{queued['job_id']}", expect=200)
        assert view["status"] == "cancelled"
        view = delete(f"{base_url}/v1/jobs/{queued['job_id']}", expect=200)
        assert view["status"] == "cancelled"

        # Running: accepted (202); observed at the next progress tick.
        view = delete(f"{base_url}/v1/jobs/{running['job_id']}", expect=202)
        assert view["status"] == "cancelling"
        release.set()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            view = api.job_view(running["job_id"])
            if view["status"] == "cancelled":
                break
            time.sleep(0.02)
        assert view["status"] == "cancelled"

        # A job that *ended* cancelled stays idempotently cancellable.
        view = delete(f"{base_url}/v1/jobs/{running['job_id']}", expect=200)
        assert view["status"] == "cancelled"

    @pytest.mark.parametrize("mode", ["extract", "diagnose"])
    def test_a_cancelled_job_leaves_its_finished_bits_cached(
        self, tmp_path, monkeypatch, mode
    ):
        """A job cancelled after k bits keeps them in the cone tier:
        the resubmission reuses at least those k.  A diagnose job
        extracts under the same per-bit hook."""
        from repro.service import api as api_mod

        k = 3
        run_mode = api_mod.run_mode
        calls = []

        def cancel_first_job_after_k_bits(*args, progress, **kwargs):
            calls.append(None)
            ticks = []

            def tick(output, cone, stats):
                if len(calls) == 1 and len(ticks) == k:
                    api.cancel("job-1")
                ticks.append(output)
                progress(output, cone, stats)

            return run_mode(*args, progress=tick, **kwargs)

        monkeypatch.setattr(api_mod, "run_mode", cancel_first_job_after_k_bits)
        api = api_mod.serve(
            host="127.0.0.1",
            port=0,
            cache_dir=str(tmp_path / "cache"),
            engine="bitpack",
            worker_threads=1,
        )
        api.start()
        try:
            host, port = api.address
            url = f"http://{host}:{port}"
            text = format_eqn(generate_mastrovito(0b100011011))
            payload = {"netlist": text, "mode": mode}
            first = post(f"{url}/v1/jobs", payload)
            deadline = time.monotonic() + 20
            while get(f"{url}/v1/jobs/{first['job_id']}")["status"] != (
                "cancelled"
            ):
                assert time.monotonic() < deadline
                time.sleep(0.02)
            again = post(f"{url}/v1/jobs", payload)
            view = wait_done(url, again["job_id"])
        finally:
            api.shutdown()
        assert view["status"] == "done"
        assert view["result"]["polynomial"] == "x^8 + x^4 + x^3 + x + 1"
        assert view["cones_reused"] >= k

    def test_delete_finished_job_conflicts(self, base):
        text = format_eqn(generate_mastrovito(0b1011))
        job = post(f"{base}/v1/jobs", {"netlist": text, "mode": "extract"})
        wait_done(base, job["job_id"])
        body = delete(f"{base}/v1/jobs/{job['job_id']}", expect=409)
        assert "already done" in body["error"]

    def test_nondrain_shutdown_cancels_queued_work(
        self, tmp_path, monkeypatch
    ):
        import threading

        from repro.service import api as api_mod

        release = threading.Event()
        entered = threading.Event()

        def parked(mode, load, fingerprint, cache, **kwargs):
            entered.set()
            progress = kwargs.get("progress")
            # Tick the cancellation observation point until released
            # (shutdown's cancel flag raises out of the hook).
            while not release.wait(0.02):
                if progress is not None:
                    progress(None, None, None)
            return stub_outcome()

        monkeypatch.setattr(api_mod, "run_mode", parked)
        api = api_mod.serve(
            host="127.0.0.1",
            port=0,
            cache_dir=str(tmp_path / "cache"),
            engine="bitpack",
            worker_threads=1,
            max_queue=4,
        )
        api.start()
        net = generate_mastrovito(0b1011)
        running = api.submit(net, mode="extract", engine="bitpack")
        assert entered.wait(5)
        queued = api.submit(net, mode="extract", engine="bitpack")
        api.shutdown(drain=False)
        release.set()
        assert queued.status == "cancelled"
        assert running.status == "cancelled"


class TestSupervisedJobs:
    def test_transient_failures_retry_to_done(self, tmp_path, monkeypatch):
        from repro.service import api as api_mod
        from repro.service.resilience import RetryPolicy

        calls = []

        def flaky(mode, load, fingerprint, cache, **kwargs):
            calls.append(kwargs["engine"])
            if len(calls) < 3:
                raise OSError("transient")
            return stub_outcome()

        monkeypatch.setattr(api_mod, "run_mode", flaky)
        api = api_mod.serve(
            host="127.0.0.1",
            port=0,
            cache_dir=str(tmp_path / "cache"),
            engine="bitpack",
            worker_threads=1,
        )
        api.retry_policy = RetryPolicy(max_attempts=3, base_delay_s=0.0)
        api.start()
        try:
            host, port = api.address
            view = post(
                f"http://{host}:{port}/v1/jobs",
                {"netlist": format_eqn(generate_mastrovito(0b1011))},
            )
            view = wait_done(f"http://{host}:{port}", view["job_id"])
            assert view["status"] == "done"
            assert view["attempts"] == 3
        finally:
            api.shutdown()

    def test_exhausted_retries_quarantine(self, tmp_path, monkeypatch):
        from repro.service import api as api_mod
        from repro.service.resilience import RetryPolicy

        def broken(mode, load, fingerprint, cache, **kwargs):
            raise OSError("disk on fire")

        monkeypatch.setattr(api_mod, "run_mode", broken)
        api = api_mod.serve(
            host="127.0.0.1",
            port=0,
            cache_dir=str(tmp_path / "cache"),
            engine="bitpack",
            worker_threads=1,
        )
        api.retry_policy = RetryPolicy(max_attempts=2, base_delay_s=0.0)
        api.start()
        try:
            host, port = api.address
            base_url = f"http://{host}:{port}"
            view = post(
                f"{base_url}/v1/jobs",
                {"netlist": format_eqn(generate_mastrovito(0b1011))},
            )
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                view = get(f"{base_url}/v1/jobs/{view['job_id']}")
                if view["status"] in ("quarantined", "done", "error"):
                    break
                time.sleep(0.02)
            assert view["status"] == "quarantined"
            assert view["reason"]["kind"] == "retry_exhausted"
            assert "disk on fire" in view["error"]
        finally:
            api.shutdown()


class TestEngineFailureSubmissions:
    def test_failing_engine_job_errors(self, base, unusable_engine):
        """An engine that fails at run time makes an ``error`` job; a
        ``"fallback"`` key is ignored like any other unknown key."""
        text = format_eqn(generate_mastrovito(0b1011))
        job = post(
            f"{base}/v1/jobs",
            {"netlist": text, "engine": unusable_engine, "fallback": True},
        )
        view = wait_done(base, job["job_id"])
        assert view["status"] == "error"
        assert view["error"] == f"EngineError: {UNUSABLE_REASON}"
        assert view["engine"] == unusable_engine

    def test_unknown_engine_is_400(self, base):
        """A name nobody registered is rejected up front."""
        text = format_eqn(generate_mastrovito(0b1011))
        body = post(
            f"{base}/v1/jobs",
            {"netlist": text, "engine": "warp9"},
            expect=(400,),
        )
        assert body["error"] == "unknown engine 'warp9'"
