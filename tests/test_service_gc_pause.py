"""Service requests run under the one collector pause, and leave it
as they found it.

Every entry point (batch netlist, ECO re-audit, HTTP submission, HTTP
job) holds :data:`~repro.netlist.netlist.GC_PAUSE` for the whole call
and restores the collector on success and on every error path.  The
pause itself bounds how long overlapping holders keep the collector
off, and a child forked while it is held starts clean.
"""

import contextlib
import gc
import json
import os
import select
import signal
import sys
import threading
import time
import urllib.error
import urllib.request
import weakref

import pytest

from repro.gen.faults import stuck_at
from repro.gen.mastrovito import generate_mastrovito
from repro.netlist import netlist as netlist_mod
from repro.netlist.eqn_io import format_eqn, write_eqn
from repro.netlist.netlist import GC_PAUSE
from repro.service import api as api_mod
from repro.service import eco as eco_mod
from repro.service import runner as runner_mod
from repro.service.cache import ResultCache
from repro.service.eco import EcoError, eco_reverify
from repro.service.runner import run_campaign

NOT_A_MULTIPLIER = "INPUT a0, b0\nOUTPUT y\ny = AND(a0, b0)\n"


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """Start with the collector on or off; put it back afterwards."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


@pytest.fixture
def seen_inside(monkeypatch):
    """Record the collector state wherever the pipeline runs a mode."""
    seen = []
    real = runner_mod.run_mode

    def probe(*args, **kwargs):
        seen.append(gc.isenabled())
        return real(*args, **kwargs)

    for module in (runner_mod, api_mod, eco_mod):
        monkeypatch.setattr(module, "run_mode", probe)
    return seen


def _settles(expected, timeout_s=10.0):
    """Wait for request threads that answered already to leave the
    pause; true once the collector is back to ``expected``."""
    deadline = time.monotonic() + timeout_s
    while gc.isenabled() is not expected:
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


class TestBatch:
    def test_success_and_error_records(self, tmp_path, collector, seen_inside):
        designs = tmp_path / "d"
        designs.mkdir()
        write_eqn(generate_mastrovito(0b1011), designs / "ok.eqn")
        (designs / "broken.eqn").write_text("INPUT a\nz = FROB(a)\n")
        (designs / "notmul.eqn").write_text(NOT_A_MULTIPLIER)
        report = run_campaign(designs, cache_dir=tmp_path / "c")
        status = {r["netlist"]: r["status"] for r in report.records}
        assert status == {"ok": "ok", "broken": "error", "notmul": "error"}
        assert gc.isenabled() is collector
        assert seen_inside and not any(seen_inside)

    def test_deadline_expiry(self, tmp_path, collector):
        path = tmp_path / "m3.eqn"
        write_eqn(generate_mastrovito(0b1011), path)
        report = run_campaign([path], cache_dir=tmp_path / "c", deadline_s=1e-9)
        assert report.records[0]["status"] == "quarantined"
        assert report.records[0]["reason"]["kind"] == "deadline"
        assert gc.isenabled() is collector


class TestEco:
    def test_success(self, tmp_path, collector, seen_inside):
        net = generate_mastrovito(0b10011)
        write_eqn(net, tmp_path / "base.eqn")
        write_eqn(stuck_at(net, "z0", 1)[0], tmp_path / "edit.eqn")
        report = eco_reverify(
            tmp_path / "base.eqn",
            tmp_path / "edit.eqn",
            ResultCache(tmp_path / "c"),
            engine="bitpack",
        )
        assert report.equivalent is False
        assert gc.isenabled() is collector
        assert seen_inside and not any(seen_inside)

    def test_unreadable_edit(self, tmp_path, collector):
        write_eqn(generate_mastrovito(0b1011), tmp_path / "base.eqn")
        with pytest.raises(EcoError):
            eco_reverify(
                tmp_path / "base.eqn",
                tmp_path / "missing.eqn",
                ResultCache(tmp_path / "c"),
            )
        assert gc.isenabled() is collector

    def test_not_a_multiplier(self, tmp_path, collector):
        write_eqn(generate_mastrovito(0b1011), tmp_path / "base.eqn")
        (tmp_path / "edit.eqn").write_text(NOT_A_MULTIPLIER)
        with pytest.raises(Exception, match="outputs must be named"):
            eco_reverify(
                tmp_path / "base.eqn",
                tmp_path / "edit.eqn",
                ResultCache(tmp_path / "c"),
            )
        assert gc.isenabled() is collector

    def test_signature_is_explicit(self):
        import inspect

        params = inspect.signature(eco_reverify).parameters
        assert list(params)[:3] == ["baseline_path", "edited_path", "cache"]


def _post(base, payload):
    request = urllib.request.Request(
        f"{base}/v1/jobs", data=json.dumps(payload).encode(), method="POST"
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


def _wait(api, job_id, statuses, timeout_s=20.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        view = api.job_view(job_id)
        if view["status"] in statuses:
            return view
        time.sleep(0.01)
    raise AssertionError(f"{job_id} never reached {statuses}")


@contextlib.contextmanager
def running_server(tmp_path):
    server = api_mod.serve(
        host="127.0.0.1",
        port=0,
        cache_dir=str(tmp_path / "cache"),
        engine="bitpack",
        worker_threads=1,
    )
    server.start()
    try:
        yield server
    finally:
        server.shutdown()


class TestHttp:
    def test_submit_job_and_errors(self, tmp_path, collector, seen_inside):
        with running_server(tmp_path) as api:
            host, port = api.address
            base = f"http://{host}:{port}"
            text = format_eqn(generate_mastrovito(0b10011))
            status, job = _post(base, {"netlist": text, "mode": "audit"})
            assert status == 202
            view = _wait(api, job["job_id"], ("done",))
            assert view["result"]["equivalent"]
            status, _ = _post(base, {"netlist": "INPUT a\nz = FROB(a)\n"})
            assert status == 400
            status, job = _post(base, {"netlist": NOT_A_MULTIPLIER})
            assert "outputs must be named" in _wait(
                api, job["job_id"], ("error",)
            )["error"]
        assert _settles(collector)
        assert seen_inside and not any(seen_inside)

    def test_submission_runs_paused(self, tmp_path, monkeypatch):
        seen = []
        real = api_mod.cached_outcome

        def probe(*args):
            seen.append(gc.isenabled())
            return real(*args)

        monkeypatch.setattr(api_mod, "cached_outcome", probe)
        with running_server(tmp_path) as api:
            host, port = api.address
            text = format_eqn(generate_mastrovito(0b1011))
            _, job = _post(f"http://{host}:{port}", {"netlist": text})
            _wait(api, job["job_id"], ("done",))
        assert seen == [False]
        assert _settles(True)

    def test_cancelled_job(self, tmp_path, monkeypatch, collector):
        release = threading.Event()
        entered = threading.Event()

        def parked(mode, load, fingerprint, cache, **kwargs):
            entered.set()
            while not release.wait(0.01):
                kwargs["progress"](None, None, None)

        monkeypatch.setattr(api_mod, "run_mode", parked)
        with running_server(tmp_path) as api:
            try:
                job = api.submit(
                    generate_mastrovito(0b1011),
                    mode="extract",
                    engine="bitpack",
                )
                assert entered.wait(10)
                assert not gc.isenabled()  # the running job holds it
                assert api.cancel(job.job_id)[0] == "accepted"
                _wait(api, job.job_id, ("cancelled",))
            finally:
                release.set()
        # shutdown() joined the worker: it has left the pause.
        assert gc.isenabled() is collector


class Cycle:
    """A self-referencing object: only the cyclic collector frees it."""

    def __init__(self, freed: threading.Event):
        self.me = self
        weakref.finalize(self, freed.set)


def _overlap(hold_s):
    """Two threads hold overlapping pauses; the first leaves after
    ``hold_s``.  Returns whether the cycle made during the overlap was
    freed before the second thread left."""
    both_in = threading.Barrier(2, timeout=10)
    first_out = threading.Event()
    freed = threading.Event()
    seen = []

    def first():
        with GC_PAUSE:
            both_in.wait()
            time.sleep(hold_s)
        first_out.set()

    def second():
        with GC_PAUSE:
            both_in.wait()
            Cycle(freed)
            assert first_out.wait(10)
            seen.append(freed.is_set())

    threads = [threading.Thread(target=f) for f in (first, second)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(20)
        assert not thread.is_alive()
    assert len(seen) == 1
    return seen[0], freed


class TestStarvationBound:
    def test_cycle_collected_past_the_bound(self, monkeypatch):
        monkeypatch.setattr(netlist_mod, "GC_PAUSE_BOUND_S", 0.05)
        assert gc.isenabled()
        freed_early, _ = _overlap(hold_s=0.2)
        assert freed_early
        assert gc.isenabled()

    def test_racing_holders_past_the_bound(self, monkeypatch):
        """Every overlapping exit collects; the counter must still end
        at zero with the collector back on, and stay off inside."""
        monkeypatch.setattr(netlist_mod, "GC_PAUSE_BOUND_S", 0.0)
        rounds = 300
        inside = []

        def churn():
            for _ in range(rounds):
                with GC_PAUSE:
                    Cycle(threading.Event())
                    inside.append(gc.isenabled())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(inside) == 8 * rounds and not any(inside)
        assert GC_PAUSE._depth == 0
        assert gc.isenabled()

    def test_no_collection_within_the_bound(self, monkeypatch):
        monkeypatch.setattr(netlist_mod, "GC_PAUSE_BOUND_S", 60.0)
        assert gc.isenabled()
        freed_early, freed = _overlap(hold_s=0.0)
        assert not freed_early
        gc.collect()
        assert freed.is_set()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestFork:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_child_of_a_held_pause(self, enabled):
        """Forked inside the pause while another thread holds the
        pause's lock: the child enters and leaves without deadlock,
        sees the pre-pause state, and leaving the inherited pause is a
        no-op."""
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            data, after = self._fork_inside_pause()
        finally:
            (gc.enable if was else gc.disable)()
        assert data == bytes([enabled, False, enabled, enabled])
        assert after is enabled

    @staticmethod
    def _fork_inside_pause():
        holding, release = threading.Event(), threading.Event()

        def hold_lock():
            with GC_PAUSE._lock:
                holding.set()
                release.wait(10)

        read_fd, write_fd = os.pipe()
        with GC_PAUSE:
            holder = threading.Thread(target=hold_lock)
            holder.start()
            assert holding.wait(10)
            pid = os.fork()
            if pid == 0:
                try:
                    before = gc.isenabled()
                    with GC_PAUSE:
                        inside = gc.isenabled()
                    after = gc.isenabled()
                    GC_PAUSE.__exit__(None, None, None)  # the parent's
                    with GC_PAUSE:
                        pass
                    again = gc.isenabled()
                    os.write(write_fd, bytes([before, inside, after, again]))
                finally:
                    os._exit(0)
            release.set()
            holder.join(10)
            assert not holder.is_alive()
        os.close(write_fd)
        try:
            ready, _, _ = select.select([read_fd], [], [], 30)
            data = os.read(read_fd, 4) if ready else b""
        finally:
            os.close(read_fd)
            if not data:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        return data, gc.isenabled()
