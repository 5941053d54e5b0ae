"""The verdict sidecar: a fully cached extract or audit reports P(x)
without decoding the per-bit expressions, and never a wrong answer.

:meth:`ResultCache.get_verdict` serves the ``.sum`` sidecar only when
it is bound to the main extraction entry (digest of the entry's bytes,
and the same verdict fields at the head of its payload); anything else
falls back to decoding the main entry.
"""

import builtins
import hashlib
import json
import os
from pathlib import Path

import pytest

import repro.service.cache as cache_mod
from repro.extract.extractor import extract_irreducible_polynomial
from repro.gen.mastrovito import generate_mastrovito
from repro.gen.montgomery import generate_montgomery
from repro.netlist.eqn_io import format_eqn, write_eqn
from repro.service.api import serve
from repro.service.cache import ExtractionVerdict, ResultCache
from repro.service.eco import eco_reverify
from repro.service.pipeline import cached_outcome
from repro.service.runner import CampaignRunner
from tests.test_service_api import get, post

P8 = 0b100011011


@pytest.fixture
def net():
    return generate_montgomery(P8)


@pytest.fixture
def stored(tmp_path, net):
    """A cache holding ``net``'s extraction: ``(cache, fingerprint)``."""
    cache = ResultCache(tmp_path / "cache")
    cache.put_extraction(net, extract_irreducible_polynomial(net))
    return cache, cache.fingerprint(net)


def _forbid_decodes(monkeypatch):
    """Make decoding any extraction entry fail the test."""

    def boom(data):
        raise AssertionError("an extraction entry was decoded")

    monkeypatch.setattr(cache_mod, "decode_extraction_result", boom)
    monkeypatch.setitem(cache_mod._DECODERS, "extraction", boom)


@pytest.fixture
def no_decode(monkeypatch):
    _forbid_decodes(monkeypatch)


def _count_decodes(monkeypatch):
    """Count decodes of extraction entries; returns the call list."""
    calls = []
    real = cache_mod._DECODERS["extraction"]
    monkeypatch.setitem(
        cache_mod._DECODERS,
        "extraction",
        lambda data: calls.append(1) or real(data),
    )
    return calls


def _sidecar(cache, fingerprint):
    return json.loads(
        cache.extraction_summary_path(fingerprint).read_text("utf-8")
    )


def _tamper(cache, fingerprint, **fields):
    data = _sidecar(cache, fingerprint)
    data.update(fields)
    cache.extraction_summary_path(fingerprint).write_text(
        json.dumps(data), "utf-8"
    )


class TestGetVerdict:
    def test_served_from_the_bound_sidecar(self, stored, no_decode):
        cache, fingerprint = stored
        entry = cache.path_for("extraction", fingerprint).read_bytes()
        sidecar = _sidecar(cache, fingerprint)
        assert sidecar["digest"] == hashlib.sha256(entry).hexdigest()

        verdict = cache.get_verdict(fingerprint)
        assert isinstance(verdict, ExtractionVerdict)
        assert verdict.polynomial_str == "x^8 + x^4 + x^3 + x + 1"
        assert verdict.irreducible is True
        assert verdict.m == 8
        assert (cache.hits, cache.misses, cache.corrupt) == (1, 0, 0)

    def test_result_decodes_the_checked_entry(self, stored, net):
        cache, fingerprint = stored
        verdict = cache.get_verdict(fingerprint)
        full = verdict.result()
        assert full.modulus == verdict.modulus
        assert full.member_bits == verdict.member_bits
        want = extract_irreducible_polynomial(net)
        assert dict(full.run.expressions.items()) == dict(
            want.run.expressions.items()
        )

    def test_absent_entry_is_one_miss(self, tmp_path, net):
        cache = ResultCache(tmp_path / "cache")
        assert cache.get_verdict(net) is None
        assert (cache.hits, cache.misses) == (0, 1)

    def test_a_stranded_sidecar_is_a_miss(self, stored):
        cache, fingerprint = stored
        cache.path_for("extraction", fingerprint).unlink()
        assert cache.get_verdict(fingerprint) is None
        assert cache.misses == 1

    def test_consistent_tamper_is_caught_by_the_entry_head(self, stored):
        """A sidecar rewritten to another, self-consistent P(x) keeps its
        digest, but the entry's own payload says otherwise."""
        cache, fingerprint = stored
        _tamper(
            cache, fingerprint,
            modulus=0b100011101, member_bits=[0, 2, 3, 4], irreducible=True,
        )
        verdict = cache.get_verdict(fingerprint)
        assert verdict.modulus == P8
        assert cache.corrupt == 1
        # The decoded entry re-bound a fresh sidecar.
        assert _sidecar(cache, fingerprint)["modulus"] == P8

    def test_digestless_sidecar_is_decoded_then_rebound(
        self, stored, monkeypatch
    ):
        """Sidecars of earlier versions carry no digest: decode once,
        then serve from the rewritten sidecar."""
        cache, fingerprint = stored
        data = _sidecar(cache, fingerprint)
        del data["digest"]
        cache.extraction_summary_path(fingerprint).write_text(
            json.dumps(data), "utf-8"
        )
        calls = _count_decodes(monkeypatch)
        assert cache.get_verdict(fingerprint).modulus == P8
        assert cache.get_verdict(fingerprint).modulus == P8
        assert len(calls) == 1
        assert "digest" in _sidecar(cache, fingerprint)
        assert cache.corrupt == 0

    def test_rewritten_entry_falls_back_to_decoding(self, stored):
        """An entry rewritten since the sidecar was bound (here, by
        hand) is decoded; indented, it can never re-bind a sidecar."""
        cache, fingerprint = stored
        path = cache.path_for("extraction", fingerprint)
        path.write_text(json.dumps(json.loads(path.read_text()), indent=1))
        before = _sidecar(cache, fingerprint)
        assert cache.get_verdict(fingerprint).modulus == P8
        assert _sidecar(cache, fingerprint) == before
        assert cache.hits == 1

    def test_mangled_entry_is_quarantined(self, stored):
        cache, fingerprint = stored
        path = cache.path_for("extraction", fingerprint)
        path.write_bytes(path.read_bytes()[:100])
        assert cache.get_verdict(fingerprint) is None
        assert cache.misses == 1
        assert cache.corrupt == 1
        assert not path.exists()


class TestSidecarLifecycle:
    def test_prune_to_zero_leaves_no_sidecar(self, stored):
        cache, fingerprint = stored
        stranded = cache.extraction_summary_path("v1-" + "ab" * 32)
        stranded.parent.mkdir(parents=True, exist_ok=True)
        stranded.write_text("{}")
        assert cache.prune(max_entries=0) == 1
        extraction_dir = cache.version_dir / "extraction"
        assert list(extraction_dir.rglob("*.sum")) == []
        assert cache.stats().disk_bytes == 0

    def test_disk_bytes_count_the_sidecar(self, stored):
        cache, fingerprint = stored
        main = cache.path_for("extraction", fingerprint).stat().st_size
        sidecar = cache.extraction_summary_path(fingerprint).stat().st_size
        assert cache.stats().disk_bytes == main + sidecar
        assert cache.stats().entries["extraction"] == 1


def test_a_verification_of_another_polynomial_is_recomputed(tmp_path, net):
    """An audit serves a stored golden-model report only when it is a
    verdict on the extraction's own P(x)."""
    path = tmp_path / "design.eqn"
    write_eqn(net, path)
    cache_dir = tmp_path / "cache"

    def audit():
        runner = CampaignRunner(mode="audit", engine="bitpack", cache_dir=cache_dir)
        return runner.run([path]).records[0]

    first = audit()
    cache = ResultCache(cache_dir)
    entry_path = cache.path_for("verification", first["fingerprint"])
    entry = json.loads(entry_path.read_text())
    entry["payload"]["modulus"] = 0b100011101
    entry_path.write_text(json.dumps(entry))
    stored = cached_outcome(cache, "audit", first["fingerprint"])
    assert (stored.cache, stored.verification) == ("partial", None)
    assert stored.extraction.modulus == P8

    again = audit()
    assert (again["cache"], again["equivalent"]) == ("partial", True)
    report = cache.get_verification(first["fingerprint"])
    assert report.modulus == P8


def _without_timing(record):
    return {k: v for k, v in record.items() if k != "wall_time_s"}


@pytest.mark.parametrize(
    "generate", [generate_mastrovito, generate_montgomery]
)
def test_repeats_decode_no_extraction(tmp_path, monkeypatch, generate):
    """Repeated audit/extract records and HTTP views are served without
    decoding an extraction entry, and equal those of the decoding path
    (the sidecar deleted before each request)."""
    path = tmp_path / "design.eqn"
    netlist = generate(P8)
    write_eqn(netlist, path)
    cache_dir = tmp_path / "cache"

    def campaign(mode):
        runner = CampaignRunner(mode=mode, engine="bitpack", cache_dir=cache_dir)
        return _without_timing(runner.run([path]).records[0])

    campaign("audit")  # cold
    fingerprint = ResultCache(cache_dir).fingerprint(netlist)
    sidecar = ResultCache(cache_dir).extraction_summary_path(fingerprint)

    def requests(before_each):
        views = {}
        for mode in ("audit", "extract"):
            before_each()
            views[mode] = campaign(mode)
            before_each()
            cache = ResultCache(cache_dir)
            outcome = cached_outcome(cache, mode, fingerprint)
            views[f"lookup-{mode}"] = (
                outcome.fields(), outcome.cache, cache.hits, cache.misses
            )
        api = serve(port=0, cache_dir=str(cache_dir), engine="bitpack")
        api.start()
        try:
            host, port = api.address
            base = f"http://{host}:{port}"
            before_each()
            views["result"] = get(
                f"{base}/v1/results/{fingerprint}?kind=extraction"
            )
            text = format_eqn(netlist)
            for mode in ("audit", "extract"):
                before_each()
                job = post(f"{base}/v1/jobs", {"netlist": text, "mode": mode})
                assert (job["status"], job["cache"]) == ("done", "hit")
                views[f"job-{mode}"] = job["result"]
        finally:
            api.shutdown()
        return views

    with monkeypatch.context() as patch:
        _forbid_decodes(patch)
        served = requests(lambda: None)
    assert served["audit"]["cache"] == served["extract"]["cache"] == "hit"

    decodes = _count_decodes(monkeypatch)
    decoded = requests(lambda: sidecar.unlink(missing_ok=True))
    assert len(decodes) == 7
    assert served == decoded


def _opened_files(monkeypatch):
    """Record the path of every file ``open`` opens; returns the list."""
    opened = []
    real_open = builtins.open

    def recording_open(file, *args, **kwargs):
        opened.append(Path(os.fspath(file)))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    return opened


def test_warm_repeats_read_only_their_entries(tmp_path, monkeypatch, net):
    """A warm audit repeat opens four files: the file memo, the verdict
    sidecar, the extraction entry and the verification entry; a warm
    ECO re-audit opens five, a memo per version.  The public path
    helpers name exactly the files the lookups open."""
    baseline = tmp_path / "baseline.eqn"
    edited = tmp_path / "edited.eqn"
    write_eqn(net, baseline)
    write_eqn(generate_mastrovito(P8), edited)
    cache_dir = tmp_path / "cache"

    def audit():
        runner = CampaignRunner(
            mode="audit", engine="bitpack", cache_dir=cache_dir
        )
        return runner.run([edited]).records[0]

    def reaudit():
        return eco_reverify(baseline, edited, ResultCache(cache_dir))

    cold, _ = audit(), reaudit()
    cache = ResultCache(cache_dir)
    fingerprint = cold["fingerprint"]
    with monkeypatch.context() as patch:
        opened = _opened_files(patch)
        warm = audit()
    assert (warm["cache"], warm["equivalent"]) == ("hit", True)
    assert sorted(opened) == sorted([
        cache._file_memo_path(edited),
        cache.extraction_summary_path(fingerprint),
        cache.path_for("extraction", fingerprint),
        cache.path_for("verification", fingerprint),
    ])

    with monkeypatch.context() as patch:
        opened = _opened_files(patch)
        report = reaudit()
    assert (report.equivalent, report.result) == (True, None)
    assert sorted(opened) == sorted([
        cache._file_memo_path(baseline),
        cache._file_memo_path(edited),
        cache.extraction_summary_path(fingerprint),
        cache.path_for("extraction", fingerprint),
        cache.path_for("verification", fingerprint),
    ])

    digest = cache.file_fingerprint(edited)["cones"]["z0"]
    with monkeypatch.context() as patch:
        opened = _opened_files(patch)
        assert cache.get_cone(digest) is not None
    assert opened == [cache.cone_path_for(digest)]
