"""One request, one answer: batch, HTTP and ECO run the same pipeline.

Each netlist goes through :class:`CampaignRunner`, an in-process
:class:`ReproAPIServer` and :func:`eco_reverify` against a clean
baseline; polynomial, irreducibility, equivalence/verdict and the error
type must agree across all three entry points.  A file that does not
parse is its reader's format error through every entry point.
"""

import json
import time
from pathlib import PurePath
import urllib.error
import urllib.request

import pytest

from repro.gen.faults import flip_gate
from repro.gen.mastrovito import generate_mastrovito
from repro.gen.squarer import generate_squarer
from repro.netlist.eqn_io import format_eqn, parse_eqn, write_eqn
from repro.rewrite.backward import TermLimitExceeded
from repro.service.api import TERMINAL_STATUSES, ReproAPIServer
from repro.service.cache import ResultCache
from repro.service.eco import eco_reverify
from repro.service.pipeline import MODES, run_mode, split_name
from repro.service.runner import CampaignRunner

P8 = 0b100011011


def clean():
    return generate_mastrovito(P8)


def single_fault():
    base = clean()
    return flip_gate(base, base.gates[len(base.gates) // 2].output)[0]


def wrong_ports():
    text = format_eqn(generate_mastrovito(0b10011))
    for bit in range(4):
        text = text.replace(f"z{bit}", f"y{bit}")
    return parse_eqn(text, name="wrong_ports")


def wrong_arity_verilog():
    """A file that does not parse, as (suffix, text): a one-input
    ``and`` instance."""
    return ".v", (
        "module bad (a, y);\n  input a;\n  output y;\n"
        "  and g0 (y, a);\nendmodule\n"
    )


NETLISTS = {
    "clean": clean,
    "single_fault": single_fault,
    "wrong_ports": wrong_ports,
    "squarer": lambda: generate_squarer(0b10011),
    "wrong_arity_verilog": wrong_arity_verilog,
}


def answer(mode, fields, error):
    """The mode's verdict in entry-point-neutral form."""
    if error is not None:
        return {"error": error.split(":")[0]}
    keys = {
        "extract": ("polynomial", "irreducible"),
        "audit": ("polynomial", "irreducible", "equivalent"),
        "diagnose": ("polynomial", "verdict"),
    }[mode]
    return {key: fields.get(key) for key in keys}


def batch_answer(path, mode, cache_dir):
    record = CampaignRunner(
        mode=mode, engine="bitpack", cache_dir=cache_dir
    ).run([path]).records[0]
    return answer(mode, record, record.get("error"))


def http_answer(server, netlist, mode):
    job = server.submit(netlist, mode=mode, engine="bitpack")
    deadline = time.monotonic() + 30
    while job.status not in TERMINAL_STATUSES:
        assert time.monotonic() < deadline, job.view()
        time.sleep(0.01)
    return answer(mode, job.result or {}, job.error)


def http_text_answer(server, text, fmt, mode):
    """POST netlist text; here it must fail to parse (HTTP 400)."""
    host, port = server.address
    request = urllib.request.Request(
        f"http://{host}:{port}/v1/jobs",
        data=json.dumps({"netlist": text, "format": fmt, "mode": mode}).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as caught:
        urllib.request.urlopen(request)
    assert caught.value.code == 400
    message = json.load(caught.value)["error"]
    prefix = "netlist parse failed: "
    assert message.startswith(prefix), message
    return answer(mode, {}, message[len(prefix):])


def eco_answer(baseline, path, mode, cache_dir):
    """None where ECO has no answer: it diagnoses only a failed audit."""
    try:
        report = eco_reverify(
            baseline, path, ResultCache(cache_dir), engine="bitpack",
            audit=mode != "extract",
        )
    except Exception as error:  # noqa: BLE001 - compared by type name
        if mode == "diagnose":
            return None
        return answer(mode, {}, f"{type(error).__name__}: {error}")
    if mode != "diagnose":
        return answer(mode, vars(report), None)
    if report.diagnosis is None:
        return None
    fields = {
        "verdict": report.diagnosis.verdict.value,
        "polynomial": report.polynomial,
    }
    return answer(mode, fields, None)


@pytest.mark.parametrize("name", sorted(NETLISTS))
def test_same_answer_through_every_entry_point(tmp_path, name):
    netlist = NETLISTS[name]()
    baseline = tmp_path / "baseline.eqn"
    write_eqn(clean(), baseline)
    if isinstance(netlist, tuple):
        suffix, text = netlist
        path = tmp_path / f"{name}{suffix}"
        path.write_text(text)
    else:
        path = tmp_path / f"{name}.eqn"
        write_eqn(netlist, path)

    server = ReproAPIServer(
        port=0, cache=ResultCache(tmp_path / "http"), engine="bitpack",
        worker_threads=1,
    )
    server.start()
    try:
        for mode in MODES:
            batch = batch_answer(path, mode, tmp_path / f"batch-{mode}")
            if isinstance(netlist, tuple):
                assert batch == {"error": "VerilogFormatError"}, batch
                http = http_text_answer(server, text, suffix[1:], mode)
            else:
                http = http_answer(server, netlist, mode)
            assert http == batch, (mode, http, batch)
            eco = eco_answer(baseline, path, mode, tmp_path / f"eco-{mode}")
            if eco is not None:
                assert eco == batch, (mode, eco, batch)
    finally:
        server.shutdown()


def _entries(cache):
    """Cache files by relative path, minus the per-path file memos."""
    root = cache.version_dir
    return sorted(
        str(path.relative_to(root))
        for path in root.rglob("*")
        if path.is_file() and path.relative_to(root).parts[0] != "files"
    )


def test_http_job_and_batch_record_leave_the_same_entries(tmp_path):
    """An HTTP job writes exactly the entries a batch record writes,
    and on a compiling engine neither stores a compiled program."""
    netlist = clean()
    path = tmp_path / "clean.eqn"
    write_eqn(netlist, path)
    CampaignRunner(
        mode="audit", engine="bitpack", cache_dir=tmp_path / "batch"
    ).run([path])
    batch = _entries(ResultCache(tmp_path / "batch"))

    cache = ResultCache(tmp_path / "http")
    server = ReproAPIServer(port=0, cache=cache, engine="bitpack")
    server.start()
    try:
        job = server.submit(netlist, mode="audit", engine="bitpack")
        deadline = time.monotonic() + 30
        while job.status not in TERMINAL_STATUSES:
            assert time.monotonic() < deadline, job.view()
            time.sleep(0.01)
        assert job.result["equivalent"], job.view()
    finally:
        server.shutdown()
    assert _entries(cache) == batch
    assert any(entry.startswith("cone/") for entry in batch)
    assert not any(entry.startswith("compiled/") for entry in batch)


#: Cached artifacts a fresh request looks up: the extraction's verdict,
#: plus the golden-model report for an audit.
LOOKUPS = {"extract": 1, "audit": 2}


class TestOneLookupPerArtifact:
    """A request looks each cached artifact up once: the entry point's
    own answer-first lookup is what the pipeline starts from."""

    @pytest.fixture
    def files(self, tmp_path):
        base, edit = tmp_path / "base.eqn", tmp_path / "edit.eqn"
        write_eqn(clean(), base)
        write_eqn(single_fault(), edit)
        return base, edit, tmp_path / "cache"

    @pytest.mark.parametrize("mode", sorted(LOOKUPS))
    def test_a_fresh_eco_edit(self, files, mode):
        base, edit, cache_dir = files
        CampaignRunner(mode="audit", cache_dir=cache_dir).run([base])
        cache = ResultCache(cache_dir)
        eco_reverify(
            base, edit, cache, audit=mode == "audit",
            diagnose_on_failure=False,
        )
        assert (cache.hits, cache.misses) == (0, LOOKUPS[mode])

    @pytest.mark.parametrize("mode", sorted(LOOKUPS))
    def test_a_fresh_http_submit(self, files, mode):
        _, edit, cache_dir = files
        server = ReproAPIServer(
            port=0, cache=ResultCache(cache_dir), worker_threads=1
        )
        server.start()
        try:
            job = server.submit(
                parse_eqn(edit.read_text()), mode=mode, engine="bitpack"
            )
            deadline = time.monotonic() + 20
            while job.status not in TERMINAL_STATUSES:
                assert time.monotonic() < deadline
                time.sleep(0.01)
        finally:
            server.shutdown()
        assert job.status == "done"
        cache = server.cache
        assert (cache.hits, cache.misses) == (0, LOOKUPS[mode])

    def test_batch_counts(self, files, monkeypatch):
        """Fresh, repeated and partial audits: one lookup per artifact."""
        base, _, cache_dir = files
        lookups = []
        count = ResultCache._count_lookup

        def spy(cache, hit):
            lookups.append(hit)
            return count(cache, hit)

        monkeypatch.setattr(ResultCache, "_count_lookup", spy)

        def audit():
            lookups.clear()
            runner = CampaignRunner(mode="audit", cache_dir=cache_dir)
            record = runner.run([base]).records[0]
            return record["cache"], sorted(lookups)

        assert audit() == ("miss", [False, False])
        assert audit() == ("hit", [True, True])
        fingerprint = ResultCache(cache_dir).fingerprint(clean())
        ResultCache(cache_dir).path_for("verification", fingerprint).unlink()
        assert audit() == ("partial", [False, True])


#: Below the 13-term peak of z0 of the m=8 Mastrovito multiplier.
LIMIT = 3
#: Above every peak: the limit holds and the run succeeds.
GENEROUS = 10**6


class TestTermLimitAnswersAlikeWarmOrCold:
    """A request with a term limit is served nothing from the verdict,
    extraction or cone tiers: after an unbounded run has filled the
    cache it fails or answers exactly as on an empty cache."""

    @pytest.fixture
    def files(self, tmp_path):
        base, edit = tmp_path / "base.eqn", tmp_path / "edit.eqn"
        write_eqn(clean(), base)
        write_eqn(single_fault(), edit)
        return base, edit

    @staticmethod
    def batch(path, mode, cache_dir, term_limit):
        record = CampaignRunner(
            mode=mode, engine="bitpack", cache_dir=cache_dir,
            term_limit=term_limit,
        ).run([path]).records[0]
        return answer(mode, record, record.get("error")), record

    @pytest.mark.parametrize("mode", ["extract", "audit"])
    def test_batch(self, files, tmp_path, mode):
        path, _ = files
        cold, _ = self.batch(path, mode, tmp_path / "cold", LIMIT)
        assert cold == {"error": "TermLimitExceeded"}
        warm = tmp_path / "warm"
        unbounded, _ = self.batch(path, mode, warm, None)
        assert "error" not in unbounded
        assert self.batch(path, mode, warm, LIMIT)[0] == cold
        answered, record = self.batch(path, mode, warm, GENEROUS)
        assert answered == unbounded
        assert (record["cache"], record["cones_reused"]) == ("miss", 0)
        # the unbounded request is still answered from the cache
        answered, record = self.batch(path, mode, warm, None)
        assert (answered, record["cache"]) == (unbounded, "hit")

    @staticmethod
    def post(server, body):
        host, port = server.address
        base = f"http://{host}:{port}"
        request = urllib.request.Request(
            f"{base}/v1/jobs",
            data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request) as response:
            job = json.load(response)
        deadline = time.monotonic() + 30
        while job["status"] not in TERMINAL_STATUSES:
            assert time.monotonic() < deadline, job
            time.sleep(0.01)
            with urllib.request.urlopen(
                f"{base}/v1/jobs/{job['job_id']}"
            ) as response:
                job = json.load(response)
        return job

    @pytest.mark.parametrize("mode", ["extract", "audit"])
    def test_http_submit(self, tmp_path, mode):
        body = {"netlist": format_eqn(clean()), "format": "eqn", "mode": mode}
        limited = dict(body, term_limit=LIMIT)
        answers = {}
        for name in ("cold", "warm"):
            server = ReproAPIServer(
                port=0, cache=ResultCache(tmp_path / name), engine="bitpack",
                worker_threads=1,
            )
            server.start()
            try:
                if name == "warm":
                    assert self.post(server, body)["status"] == "done"
                job = self.post(server, limited)
                answers[name] = answer(mode, {}, job.get("error"))
                assert job["term_limit"] == LIMIT
                assert job["cache"] == "miss"
                if name == "warm":
                    job = self.post(server, dict(body, term_limit=GENEROUS))
                    assert (job["status"], job["cones_reused"]) == ("done", 0)
                    assert self.post(server, body)["cache"] == "hit"
            finally:
                server.shutdown()
        assert answers["warm"] == answers["cold"] == {
            "error": "TermLimitExceeded"
        }

    @pytest.mark.parametrize("bad", [0, -1, "3", 2.5, True])
    def test_http_rejects_a_bad_term_limit(self, tmp_path, bad):
        server = ReproAPIServer(
            port=0, cache=ResultCache(tmp_path / "cache"), worker_threads=1
        )
        server.start()
        try:
            with pytest.raises(urllib.error.HTTPError) as caught:
                self.post(server, {
                    "netlist": format_eqn(clean()), "term_limit": bad,
                })
        finally:
            server.shutdown()
        assert caught.value.code == 400
        assert "term_limit" in json.load(caught.value)["error"]

    @pytest.mark.parametrize("mode", ["extract", "audit"])
    def test_eco_reverify(self, files, tmp_path, mode):
        base, edit = files

        def eco(cache_dir, term_limit):
            try:
                report = eco_reverify(
                    base, edit, ResultCache(cache_dir), engine="bitpack",
                    term_limit=term_limit, audit=mode == "audit",
                    diagnose_on_failure=False,
                )
            except TermLimitExceeded as error:
                return type(error).__name__
            return report

        assert eco(tmp_path / "cold", LIMIT) == "TermLimitExceeded"
        warm = tmp_path / "warm"
        unbounded = eco(warm, None)
        assert eco(warm, LIMIT) == "TermLimitExceeded"
        generous = eco(warm, GENEROUS)
        assert generous.polynomial == unbounded.polynomial
        assert generous.equivalent == unbounded.equivalent
        assert generous.cones_reused == 0
        assert eco(warm, None).result is None  # answered from the cache


class CountingDeadline:
    """A :class:`~repro.service.resilience.Deadline` stand-in that
    counts its checks and never runs out."""

    def __init__(self):
        self.checks = 0

    def check(self):
        self.checks += 1


class TestDiagnoseExtractsPerBit:
    """Diagnose's extraction runs under the same per-bit hook as an
    audit's: progress, deadline checks, cancellation and resume."""

    @pytest.mark.parametrize("with_cache", [True, False])
    @pytest.mark.parametrize("mode", ["audit", "diagnose"])
    def test_progress_and_deadline_once_per_bit(
        self, tmp_path, mode, with_cache
    ):
        netlist = clean()
        cache = ResultCache(tmp_path / "cache") if with_cache else None
        fingerprint = cache.fingerprint(netlist) if with_cache else None
        deadline, ticks = CountingDeadline(), []
        outcome = run_mode(
            mode, lambda: netlist, fingerprint, cache, engine="bitpack",
            deadline=deadline,
            progress=lambda output, cone, stats: ticks.append(output),
        )
        m = len(netlist.outputs)
        assert sorted(ticks) == sorted(f"z{i}" for i in range(m))
        assert deadline.checks == m + 1
        if mode == "diagnose":
            assert outcome.diagnosis.is_clean
            assert outcome.diagnosis.extraction.modulus == P8

    def test_a_cold_diagnose_writes_cones_extraction_and_diagnosis(
        self, tmp_path
    ):
        cache = ResultCache(tmp_path / "cache")
        netlist = clean()
        run_mode(
            "diagnose", lambda: netlist, cache.fingerprint(netlist), cache,
            engine="bitpack",
        )
        kinds = {entry.split("/")[0] for entry in _entries(cache)}
        assert kinds == {"cone", "extraction", "diagnosis"}
        assert any(entry.endswith(".sum") for entry in _entries(cache))

    def test_a_diagnose_reuses_a_cached_extraction(self, tmp_path):
        """The verdict tier serves a diagnose: no bit is rewritten."""
        cache = ResultCache(tmp_path / "cache")
        netlist = clean()
        fingerprint = cache.fingerprint(netlist)
        run_mode(
            "extract", lambda: netlist, fingerprint, cache, engine="bitpack"
        )
        ticks = []
        outcome = run_mode(
            "diagnose", lambda: netlist, fingerprint, cache, engine="bitpack",
            progress=lambda *args: ticks.append(args),
        )
        assert outcome.diagnosis.is_clean and ticks == []
        assert (cache.hits, cache.misses) == (1, 2)

    def test_a_batch_diagnose_served_an_extraction_reports_no_reuse(
        self, tmp_path
    ):
        """``cones_reused`` counts this request's cone hits: a diagnose
        answered from a stored extraction rewrote nothing, so its record
        has none, and not the count of the run that stored the entry."""
        path = tmp_path / "m8.eqn"
        write_eqn(clean(), path)
        cache_dir = tmp_path / "cache"

        def record(mode):
            return CampaignRunner(
                mode=mode, engine="bitpack", cache_dir=cache_dir
            ).run([path]).records[0]

        assert record("extract")["cones_reused"] == 0
        served = record("diagnose")
        assert served["status"] == "ok" and served["clean"]
        assert "cones_reused" not in served

    def test_a_batch_deadline_stops_a_diagnose_between_bits(
        self, tmp_path, monkeypatch
    ):
        """The wall budget runs out while the first bit rewrites: the
        record is quarantined at the next bit, which leaves one cone
        stored."""
        from repro.engine import BitpackEngine

        rewrite_cone = BitpackEngine.rewrite_cone

        def slow(self, *args, **kwargs):
            time.sleep(0.6)
            return rewrite_cone(self, *args, **kwargs)

        monkeypatch.setattr(BitpackEngine, "rewrite_cone", slow)
        path = tmp_path / "m4.eqn"
        write_eqn(generate_mastrovito(0b10011), path)
        cache_dir = tmp_path / "cache"
        record = CampaignRunner(
            mode="diagnose", engine="bitpack", cache_dir=cache_dir,
            deadline_s=0.5,
        ).run([path]).records[0]
        assert record["status"] == "quarantined"
        assert record["reason"]["kind"] == "deadline"
        entries = _entries(ResultCache(cache_dir))
        assert sum(entry.startswith("cone/") for entry in entries) == 1
        assert not any(entry.startswith("diagnosis/") for entry in entries)


def test_diagnose_under_a_term_limit_reads_and_stores_no_verdict(tmp_path):
    """A term-limited diagnose is served no stored diagnosis or
    extraction verdict and stores neither, so its memory-out verdict
    never answers an unbounded request; a diagnosis made without the
    counterexample search is not stored either."""
    netlist = clean()
    warm = ResultCache(tmp_path / "warm")
    key = warm.fingerprint(netlist)
    assert run_mode(
        "diagnose", lambda: netlist, key, warm, engine="bitpack"
    ).cache == "miss"
    limited = run_mode(
        "diagnose", lambda: netlist, key, warm, engine="bitpack",
        term_limit=LIMIT,
    )
    assert (limited.cache, limited.diagnosis.verdict.value) == (
        "miss", "memory-out"
    )
    served = run_mode("diagnose", lambda: netlist, key, warm, engine="bitpack")
    assert (served.cache, served.diagnosis.verdict.value) == (
        "hit", "verified-multiplier"
    )

    cold = ResultCache(tmp_path / "cold")
    generous = run_mode(
        "diagnose", lambda: netlist, key, cold, engine="bitpack",
        term_limit=GENEROUS,
    )
    assert generous.diagnosis.verdict.value == "verified-multiplier"
    faulty = single_fault()
    faulty_key = cold.fingerprint(faulty)
    quick = run_mode(
        "diagnose", lambda: faulty, faulty_key, cold, engine="bitpack",
        find_counterexample=False,
    )
    assert quick.diagnosis.counterexample is None
    assert cold.get_diagnosis(key) is None
    assert cold.get_verdict(key) is None
    assert cold.get_diagnosis(faulty_key) is None


@pytest.mark.parametrize(
    "path",
    [
        "m8.eqn", "dir/m8.eqn", "/abs/dir/m8.v", "a.b.blif", "dir/m8.eqn/",
        ".eqn", "dir/.hidden.eqn", "noext", "trailing.", "dir.d/noext", "",
    ],
)
def test_split_name_splits_as_pathlib(path):
    assert split_name(path) == (PurePath(path).stem, PurePath(path).suffix)
