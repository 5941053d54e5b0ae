"""repro.service — the serving layer: caching, resumable jobs, batch
campaigns and an HTTP verification API.

Why a subsystem
---------------
The paper's Theorem 2 makes per-output-bit extraction embarrassingly
parallel — which also makes it *shardable*, *resumable* and
*cacheable*.  This package turns the extractor into a serving-grade
system around one primitive:

:mod:`~repro.service.fingerprint`
    a canonical, strash-invariant content hash of a
    :class:`~repro.netlist.netlist.Netlist` — the universal cache key.
    Two netlists that strash to the same structure (gate reordering,
    net renaming, duplicated gates, BUF chains, dead logic) share a
    fingerprint.

:mod:`~repro.service.cache`
    a schema-versioned, content-addressed on-disk store
    (``REPRO_CACHE_DIR``, default ``~/.cache/repro``) for
    :class:`~repro.extract.extractor.ExtractionResult`,
    :class:`~repro.extract.verify.VerificationReport` and
    :class:`~repro.extract.diagnose.Diagnosis` artifacts, with
    hit/miss statistics and ``clear()``, plus a per-output-cone tier
    written as each bit completes: a killed extraction resumes from
    its completed bits and produces results bit-identical to an
    uninterrupted run.

:mod:`~repro.service.jobs`
    the per-bit hook every pipeline extraction runs under (deadline,
    progress, ``job.*`` telemetry).

:mod:`~repro.service.pipeline`
    the one request pipeline (extract/audit/diagnose over the cache)
    that the CLI verbs, the runner, the API and ECO re-audit all call.

:mod:`~repro.service.runner`
    a campaign runner batching a directory (or manifest) of netlists
    through the pipeline on one shared worker pool, emitting a JSONL
    report with per-netlist timing and cache provenance.

:mod:`~repro.service.api`
    a minimal stdlib ``ThreadingHTTPServer`` JSON API (submit a
    netlist, poll the job, fetch cached results) over the same cache.

:mod:`~repro.service.eco`
    incremental re-audit of an edited netlist: diff per-output-cone
    fingerprints against a verified baseline, re-extract only the
    dirty cones from the cone-level result cache, re-run the audit.

CLI verbs: ``repro batch``, ``repro serve``, ``repro eco``,
``repro cache {stats,clear}``.
"""

from repro._lazy import lazy_exports

# Exports resolve lazily (PEP 562): `import repro.service` must not
# drag in http.server, multiprocessing helpers, or the extract stack
# until a service feature is actually used.
_EXPORTS = {
    "CACHE_SCHEMA_VERSION": "repro.service.cache",
    "CacheStats": "repro.service.cache",
    "ResultCache": "repro.service.cache",
    "default_cache_dir": "repro.service.cache",
    "fingerprint_netlist": "repro.service.fingerprint",
    "cone_fingerprints": "repro.service.fingerprint",
    "fingerprint_with_cones": "repro.service.fingerprint",
    "ConeDiff": "repro.service.eco",
    "EcoReport": "repro.service.eco",
    "diff_cones": "repro.service.eco",
    "eco_reverify": "repro.service.eco",
    "checkpointed_extract": "repro.service.jobs",
    "CampaignReport": "repro.service.runner",
    "CampaignRunner": "repro.service.runner",
    "run_campaign": "repro.service.runner",
    "ReproAPIServer": "repro.service.api",
    "serve": "repro.service.api",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
