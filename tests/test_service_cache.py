"""Cache round-trips for all three artifact kinds + store semantics."""

import json

import pytest

from repro.extract.diagnose import Verdict, diagnose
from repro.extract.extractor import extract_irreducible_polynomial
from repro.extract.verify import verify_multiplier
from repro.gen.faults import stuck_at
from repro.gen.mastrovito import generate_mastrovito
from repro.gen.montgomery import generate_montgomery
from repro.service.cache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    default_cache_dir,
)
from repro.service.pipeline import run_mode


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


@pytest.fixture
def net():
    return generate_mastrovito(0b10011)


class TestExtractionRoundTrip:
    @pytest.mark.parametrize("engine", ["reference", "bitpack"])
    def test_full_result_survives(self, cache, net, engine):
        result = extract_irreducible_polynomial(net, engine=engine)
        cache.put_extraction(net, result)
        loaded = cache.get_extraction(net)
        assert loaded.modulus == result.modulus
        assert loaded.m == result.m
        assert loaded.irreducible is True
        assert loaded.member_bits == result.member_bits
        assert loaded.run.engine == engine
        # Expressions decode bit-identically, whatever engine wrote them.
        assert dict(loaded.run.expressions.items()) == dict(
            result.run.expressions.items()
        )
        stats = loaded.run.stats["z0"]
        assert stats.iterations == result.run.stats["z0"].iterations

    def test_cached_result_verifies(self, cache, net):
        cache.put_extraction(net, extract_irreducible_polynomial(net))
        loaded = cache.get_extraction(net)
        assert verify_multiplier(net, loaded).equivalent

    def test_cache_key_is_structural(self, cache, net):
        from repro.synth.strash import structural_hash

        cache.put_extraction(net, extract_irreducible_polynomial(net))
        assert cache.get_extraction(structural_hash(net)) is not None


class TestVerificationRoundTrip:
    def test_report_survives(self, cache, net):
        result = extract_irreducible_polynomial(net)
        report = verify_multiplier(net, result)
        cache.put_verification(net, report)
        loaded = cache.get_verification(net)
        assert loaded.equivalent is True
        assert loaded.modulus == report.modulus
        assert loaded.algebraic == report.algebraic
        assert loaded.simulation_vectors == report.simulation_vectors

    def test_failing_report_survives(self, cache):
        net = generate_mastrovito(0b10011)
        mutant, _ = stuck_at(net, net.gates[0].output, 1)
        result = extract_irreducible_polynomial(mutant)
        report = verify_multiplier(mutant, result)
        cache.put_verification(mutant, report)
        loaded = cache.get_verification(mutant)
        assert loaded.equivalent == report.equivalent
        assert loaded.failing_bits == report.failing_bits


class TestDiagnosisRoundTrip:
    def test_clean_diagnosis(self, cache):
        net = generate_montgomery(0b1011)
        cache.put_diagnosis(net, diagnose(net))
        loaded = cache.get_diagnosis(net)
        assert loaded.verdict is Verdict.VERIFIED_MULTIPLIER
        assert loaded.is_clean
        assert loaded.extraction.polynomial_str == "x^3 + x + 1"

    def test_buggy_diagnosis_keeps_counterexample(self, cache):
        net = generate_mastrovito(0b1011)
        mutant, _ = stuck_at(net, "z0", 1)
        diagnosis = diagnose(mutant)
        cache.put_diagnosis(mutant, diagnosis)
        loaded = cache.get_diagnosis(mutant)
        assert loaded.verdict == diagnosis.verdict
        assert loaded.counterexample == diagnosis.counterexample
        assert loaded.render() == diagnosis.render()


class TestStoreSemantics:
    def test_miss_then_hit_counters(self, cache, net):
        assert cache.get_extraction(net) is None
        cache.put_extraction(net, extract_irreducible_polynomial(net))
        assert cache.get_extraction(net) is not None
        stats = cache.stats()
        assert stats.hits == 1 and stats.misses == 1
        assert stats.entries["extraction"] == 1
        assert stats.disk_bytes > 0

    def test_clear(self, cache, net):
        cache.put_extraction(net, extract_irreducible_polynomial(net))
        assert cache.clear() == 1
        assert cache.get_extraction(net) is None
        assert cache.stats().total_entries == 0

    def test_schema_version_in_path_and_entry(self, cache, net):
        path = cache.put("extraction", net, extract_irreducible_polynomial(net))
        assert f"v{CACHE_SCHEMA_VERSION}" in str(path)
        entry = json.loads(path.read_text())
        assert entry["schema"] == CACHE_SCHEMA_VERSION
        assert entry["kind"] == "extraction"
        assert entry["fingerprint"] == cache.fingerprint(net)

    def test_mismatched_schema_is_a_miss(self, cache, net):
        path = cache.put("extraction", net, extract_irreducible_polynomial(net))
        entry = json.loads(path.read_text())
        entry["schema"] = CACHE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(entry))
        assert cache.get_extraction(net) is None

    def test_entry_with_retired_jobs_key_is_a_hit(self, cache, net):
        """Entries written while runs still recorded their worker count
        carry a ``"jobs"`` key; they decode and are served as hits."""
        from repro.service.pipeline import run_mode

        result = extract_irreducible_polynomial(net)
        path = cache.put("extraction", net, result)
        entry = json.loads(path.read_text())
        assert "jobs" not in entry["payload"]["run"]
        entry["payload"]["run"]["jobs"] = 2
        path.write_text(json.dumps(entry))
        outcome = run_mode(
            "extract",
            lambda: pytest.fail("a hit must not parse"),
            cache.fingerprint(net),
            cache,
            engine="bitpack",
        )
        assert outcome.cache == "hit"
        assert outcome.extraction.modulus == result.modulus
        assert outcome.extraction.member_bits == result.member_bits

    def test_corrupt_entry_is_a_miss(self, cache, net):
        path = cache.put("extraction", net, extract_irreducible_polynomial(net))
        path.write_text("{truncated")
        assert cache.get_extraction(net) is None

    def test_unknown_kind_rejected(self, cache, net):
        with pytest.raises(ValueError, match="unknown artifact kind"):
            cache.get("frobnication", net)

    def test_env_var_controls_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        assert default_cache_dir() == tmp_path / "envcache"
        assert ResultCache().root == tmp_path / "envcache"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert default_cache_dir().name == "repro"


class TestExtractorCacheParam:
    """The pipeline is the one extraction path behind the cache."""

    def test_extract_irreducible_polynomial_uses_cache(self, cache, net):
        fingerprint = cache.fingerprint(net)
        first = run_mode(
            "extract", lambda: net, fingerprint, cache, engine="bitpack"
        )
        again = run_mode(
            "extract",
            lambda: pytest.fail("a repeat must not parse"),
            fingerprint,
            cache,
            engine="bitpack",
        )
        assert first.cache == "miss" and again.cache == "hit"
        assert again.extraction.polynomial_str == "x^4 + x + 1"
        assert first.extraction.polynomial_str == "x^4 + x + 1"
        assert cache.hits == 1  # second call served from disk


class TestSquarerRoundTrip:
    def test_diagnose_threads_the_cache(self, cache):
        """A squarer's repeat is served from its diagnosis entry; no
        separate squarer entry is written."""
        from repro.gen.squarer import generate_squarer

        squarer = generate_squarer(0b10011)
        fingerprint = cache.fingerprint(squarer)
        first = run_mode(
            "diagnose", lambda: squarer, fingerprint, cache, engine="bitpack"
        )
        assert first.diagnosis.is_clean and first.cache == "miss"
        assert cache.stats().entries["diagnosis"] == 1
        assert "squarer" not in cache.stats().entries
        again = run_mode(
            "diagnose", lambda: squarer, fingerprint, cache, engine="bitpack"
        )
        assert again.diagnosis.is_clean and again.cache == "hit"
        assert cache.hits == 1
        assert not (cache.version_dir / "squarer").exists()


class TestEviction:
    def _fill(self, cache, count):
        import time as _time

        moduli = [0b111, 0b1011, 0b10011, 0b100101, 0b1000011]
        for modulus in moduli[:count]:
            net = generate_mastrovito(modulus)
            cache.put_extraction(net, extract_irreducible_polynomial(net))
            _time.sleep(0.01)  # distinct mtimes for deterministic order

    def test_put_evicts_oldest_past_budget(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", max_entries=3)
        self._fill(cache, 5)
        stats = cache.stats()
        assert stats.total_entries == 3
        assert cache.evictions == 2
        assert stats.evictions == 2
        # Oldest gone, newest kept.
        assert cache.get_extraction(generate_mastrovito(0b111)) is None
        assert (
            cache.get_extraction(generate_mastrovito(0b1000011)) is not None
        )

    def test_env_var_sets_budget(self, tmp_path, monkeypatch):
        from repro.service.cache import CACHE_MAX_ENTRIES_ENV

        monkeypatch.setenv(CACHE_MAX_ENTRIES_ENV, "2")
        cache = ResultCache(tmp_path / "cache")
        assert cache.max_entries == 2
        self._fill(cache, 3)
        assert cache.stats().total_entries == 2

    def test_env_var_must_be_integer(self, tmp_path, monkeypatch):
        from repro.service.cache import CACHE_MAX_ENTRIES_ENV

        monkeypatch.setenv(CACHE_MAX_ENTRIES_ENV, "lots")
        with pytest.raises(ValueError):
            ResultCache(tmp_path / "cache")

    def test_explicit_prune(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")  # no budget: no eviction
        self._fill(cache, 4)
        assert cache.stats().total_entries == 4
        assert cache.prune() == 0  # still no budget
        assert cache.prune(max_entries=1) == 3
        assert cache.stats().total_entries == 1

    def test_no_budget_never_evicts(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        self._fill(cache, 5)
        assert cache.stats().total_entries == 5
        assert cache.evictions == 0


class TestByteBudget:
    """REPRO_CACHE_MAX_BYTES: the size-in-bytes eviction budget."""

    _fill = TestEviction._fill

    def test_put_evicts_oldest_past_byte_budget(self, tmp_path):
        # Size the budget off the *largest* entry (m=6) so the newest
        # write always fits and eviction hits only the older entries.
        probe = ResultCache(tmp_path / "probe")
        net = generate_mastrovito(0b1000011)
        probe.put_extraction(net, extract_irreducible_polynomial(net))
        entry_bytes = probe.stats().disk_bytes
        assert entry_bytes > 0

        cache = ResultCache(
            tmp_path / "cache", max_bytes=int(entry_bytes * 2.5)
        )
        self._fill(cache, 5)
        stats = cache.stats()
        assert stats.disk_bytes <= cache.max_bytes
        assert stats.total_entries < 5
        assert cache.evictions > 0
        assert stats.evictions == cache.evictions
        # Oldest gone, newest kept.
        assert cache.get_extraction(generate_mastrovito(0b111)) is None
        assert (
            cache.get_extraction(generate_mastrovito(0b1000011)) is not None
        )

    def test_env_var_sets_budget(self, tmp_path, monkeypatch):
        from repro.service.cache import CACHE_MAX_BYTES_ENV

        monkeypatch.setenv(CACHE_MAX_BYTES_ENV, "1")
        cache = ResultCache(tmp_path / "cache")
        assert cache.max_bytes == 1
        self._fill(cache, 2)
        # Budget below a single entry: only the newest write survives
        # its own put (eviction keeps at least progressing).
        assert cache.stats().total_entries <= 1

    def test_env_var_must_be_integer(self, tmp_path, monkeypatch):
        from repro.service.cache import CACHE_MAX_BYTES_ENV

        monkeypatch.setenv(CACHE_MAX_BYTES_ENV, "huge")
        with pytest.raises(ValueError):
            ResultCache(tmp_path / "cache")

    def test_explicit_prune_by_bytes(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")  # no budget: no eviction
        self._fill(cache, 4)
        total = cache.stats().disk_bytes
        assert cache.prune() == 0  # still no budget
        removed = cache.prune(max_bytes=total // 2)
        assert removed >= 1
        assert cache.stats().disk_bytes <= total // 2

    def test_prune_covers_compiled_entries(self, tmp_path):
        """Compiled-program blobs count against the budgets and are
        evicted oldest-first like any artifact."""
        import time as _time

        cache = ResultCache(tmp_path / "cache")
        net = generate_mastrovito(0b10011)
        cache.put_compiled(net, "aig", 1, b"x" * 512)
        _time.sleep(0.01)
        self._fill(cache, 2)
        stats = cache.stats()
        assert stats.entries["compiled"] == 1
        assert cache.prune(max_entries=2) == 1
        # The compiled blob was oldest, so it went first.
        assert cache.stats().entries["compiled"] == 0
        assert cache.get_compiled(net, "aig", 1) is None

    def test_stats_reports_both_budgets(self, tmp_path):
        cache = ResultCache(
            tmp_path / "cache", max_entries=7, max_bytes=4096
        )
        rendered = str(cache.stats())
        assert "max 7" in rendered
        assert "4 KiB" in rendered


@pytest.mark.parametrize("budget", ["max_entries", "max_bytes"])
@pytest.mark.parametrize("spelling", ["env", "constructor", "cli"])
def test_negative_budget_rejected(
    tmp_path, monkeypatch, capsys, spelling, budget
):
    """A negative budget is truthy and would evict every entry, so each
    way of setting one fails loudly instead of disabling the cache."""
    from repro.cli import main
    from repro.service.cache import (
        CACHE_MAX_BYTES_ENV,
        CACHE_MAX_ENTRIES_ENV,
    )

    root = tmp_path / "cache"
    if spelling == "env":
        env = {
            "max_entries": CACHE_MAX_ENTRIES_ENV,
            "max_bytes": CACHE_MAX_BYTES_ENV,
        }[budget]
        monkeypatch.setenv(env, "-1")
        with pytest.raises(ValueError, match="non-negative"):
            ResultCache(root)
    elif spelling == "constructor":
        with pytest.raises(ValueError, match="negative"):
            ResultCache(root, **{budget: -1})
    else:
        flag = "--" + budget.replace("_", "-")
        argv = ["cache", "prune", "--cache-dir", str(root), flag, "-1"]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "non-negative" in capsys.readouterr().err


class TestFingerprintSchemaMemo:
    def test_memo_from_older_schema_is_stale(self, tmp_path):
        """A FINGERPRINT_SCHEMA bump must invalidate file memos, or
        warm campaigns keep keying by the old canonical form."""
        import json

        from repro.service.fingerprint import FINGERPRINT_SCHEMA

        cache = ResultCache(tmp_path / "cache")
        netlist_file = tmp_path / "x.eqn"
        netlist_file.write_text("placeholder")
        cache.remember_file(netlist_file, "v2-abc", gates=3)
        memo = cache.file_fingerprint(netlist_file)
        assert memo["schema"] == FINGERPRINT_SCHEMA

        memo_path = cache._file_memo_path(netlist_file)
        stale = json.loads(memo_path.read_text())
        stale["schema"] = FINGERPRINT_SCHEMA - 1
        memo_path.write_text(json.dumps(stale))
        assert cache.file_fingerprint(netlist_file) is None


class TestCorruptionQuarantine:
    def _poison(self, cache, net):
        result = extract_irreducible_polynomial(net, engine="reference")
        fingerprint = cache.fingerprint(net)
        cache.put_extraction(fingerprint, result)
        path = cache.path_for("extraction", fingerprint)
        path.write_text('{"schema": 3, "payload": truncated-garbag')
        return fingerprint, path, result

    def test_corrupt_entry_moves_to_quarantine(self, cache, net):
        fingerprint, path, _ = self._poison(cache, net)
        assert cache.get_extraction(fingerprint) is None  # not a crash
        assert not path.exists()
        quarantined = list(cache.quarantine_dir().glob("*"))
        assert len(quarantined) == 1
        assert quarantined[0].name.startswith("extraction.")
        # The bytes survive for diagnosis.
        assert "truncated-garbag" in quarantined[0].read_text()
        assert cache.corrupt == 1

    def test_next_lookup_is_clean_miss_and_recompute_lands(self, cache, net):
        fingerprint, _, result = self._poison(cache, net)
        assert cache.get_extraction(fingerprint) is None
        # Key unwedged: a recompute overwrites normally and hits.
        cache.put_extraction(fingerprint, result)
        roundtrip = cache.get_extraction(fingerprint)
        assert roundtrip is not None
        assert roundtrip.polynomial_str == result.polynomial_str
        assert cache.corrupt == 1  # only the poisoned read counted

    def test_corrupt_counter_in_telemetry_and_stats(self, cache, net):
        from repro import telemetry as _telemetry

        registry = _telemetry.Telemetry()
        fingerprint, _, _ = self._poison(cache, net)
        with _telemetry.use(registry):
            assert cache.get_extraction(fingerprint) is None
        counters = registry.metrics()["counters"]
        assert counters.get("cache.corrupt") == 1
        stats = cache.stats()
        assert stats.corrupt == 1
        assert stats.quarantined == 1
        assert "corrupt=1 (1 quarantined on disk)" in str(stats)

    def test_stats_counts_quarantine_files_across_sessions(self, cache, net):
        fingerprint, _, _ = self._poison(cache, net)
        assert cache.get_extraction(fingerprint) is None
        # A fresh session did not *see* corruption, but the on-disk
        # quarantine is still reported.
        fresh = ResultCache(cache.root)
        stats = fresh.stats()
        assert stats.corrupt == 0
        assert stats.quarantined == 1

    def test_schema_mismatch_is_not_quarantined(self, cache, net):
        # Old-schema entries are valid JSON from an older version —
        # a miss, not corruption.
        fingerprint, path, _ = self._poison(cache, net)
        path.write_text('{"schema": "v0-ancient", "payload": {}}')
        assert cache.get_extraction(fingerprint) is None
        assert path.exists()
        assert cache.corrupt == 0


#: Entries exactly as the indented (``indent=1``) writer of earlier
#: versions stored them: the verification of the GF(2^2) Mastrovito
#: multiplier and its ``z0`` cone.
LEGACY_FINGERPRINT = (
    "v3-56be3e3273bb8b05f0c9bdc62d9ba815e5f6a969d4bb3795cafc2c944b88a755"
)
LEGACY_VERIFICATION = """{
 "created_unix": 1792222548.7331069,
 "fingerprint": "v3-56be3e3273bb8b05f0c9bdc62d9ba815e5f6a969d4bb3795cafc2c944b88a755",
 "kind": "verification",
 "payload": {
  "algebraic": {
   "0": true,
   "1": true
  },
  "irreducible": true,
  "modulus": 7,
  "runtime_s": 0.0002503460018488113,
  "simulation_ok": true,
  "simulation_vectors": 16
 },
 "schema": 1
}
"""
LEGACY_CONE_DIGEST = (
    "17b1d7aed8c57c22daeae1e5ff82e88868af0087bd805879f09ac38238b0e45a"
)
LEGACY_CONE = """{
 "cone": "17b1d7aed8c57c22daeae1e5ff82e88868af0087bd805879f09ac38238b0e45a",
 "created_unix": 1792222548.7297826,
 "kind": "cone",
 "payload": {
  "compile_schema": 1,
  "engine": "bitpack",
  "expression": [
   [
    "a0",
    "b0"
   ],
   [
    "a1",
    "b1"
   ]
  ],
  "output": "z0",
  "stats": {
   "cone_gates": 1,
   "eliminated_monomials": 0,
   "final_terms": 2,
   "iterations": 1,
   "output": "z0",
   "peak_terms": 2,
   "runtime_s": 7.247299799928442e-05
  }
 },
 "schema": 1
}
"""


class TestCompactEntries:
    """Entries are written compact; indented entries still read."""

    def test_written_entries_have_no_whitespace(self, cache, net):
        path = cache.put("verification", net, verify_multiplier(
            net, extract_irreducible_polynomial(net)
        ))
        text = path.read_text(encoding="utf-8")
        assert "\n" not in text and ": " not in text and ", " not in text
        entry = json.loads(text)
        assert list(entry) == sorted(entry)

    def test_indented_verification_is_a_hit(self, cache, tmp_path):
        path = cache.path_for("verification", LEGACY_FINGERPRINT)
        path.parent.mkdir(parents=True)
        path.write_text(LEGACY_VERIFICATION, encoding="utf-8")
        report = cache.get_verification(LEGACY_FINGERPRINT)
        assert cache.hits == 1 and report is not None
        assert report.equivalent and report.simulation_vectors == 16
        # Re-stored by the compact writer, it decodes to the same
        # payload and the same report.
        fresh = ResultCache(tmp_path / "fresh")
        fresh.put_verification(LEGACY_FINGERPRINT, report)
        raw = fresh.get_raw("verification", LEGACY_FINGERPRINT)
        assert raw["payload"] == json.loads(LEGACY_VERIFICATION)["payload"]
        assert fresh.get_verification(LEGACY_FINGERPRINT) == report

    def test_extraction_with_a_traced_peak_decodes(self, cache, net):
        """Runs no longer carry ``peak_memory_bytes``; an entry written
        while they did still decodes, the key ignored."""
        result = extract_irreducible_polynomial(net)
        path = cache.put("extraction", net, result)
        entry = json.loads(path.read_text(encoding="utf-8"))
        assert "peak_memory_bytes" not in entry["payload"]["run"]
        entry["payload"]["run"]["peak_memory_bytes"] = 123456
        path.write_text(json.dumps(entry), encoding="utf-8")
        stored = cache.get_extraction(net)
        assert cache.corrupt == 0 and stored is not None
        assert stored.modulus == result.modulus
        assert stored.run.expressions == result.run.expressions

    def test_indented_cone_is_a_hit(self, cache, tmp_path):
        from repro.service.cache import stats_from_json

        path = cache.cone_path_for(LEGACY_CONE_DIGEST)
        path.parent.mkdir(parents=True)
        path.write_text(LEGACY_CONE, encoding="utf-8")
        payload = cache.get_cone(LEGACY_CONE_DIGEST)
        assert cache.cone_hits == 1
        assert payload == json.loads(LEGACY_CONE)["payload"]
        fresh = ResultCache(tmp_path / "fresh")
        fresh.put_cone(
            LEGACY_CONE_DIGEST,
            payload["output"],
            payload["expression"],
            stats_from_json(payload["stats"]),
            engine=payload["engine"],
            compile_schema=payload["compile_schema"],
        )
        assert fresh.get_cone(LEGACY_CONE_DIGEST) == payload
