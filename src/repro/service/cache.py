"""Content-addressed, schema-versioned on-disk result cache.

Every artifact the pipeline produces — an
:class:`~repro.extract.extractor.ExtractionResult`, a
:class:`~repro.extract.verify.VerificationReport`, a
:class:`~repro.extract.diagnose.Diagnosis` — is a pure function of the
netlist *structure* (extraction results are engine-independent by the
differential contract of :mod:`repro.engine`), so the cache keys
everything by the strash-invariant
:func:`~repro.service.fingerprint.fingerprint_netlist` and nothing
else.  A netlist audited once is audited forever: re-running a
campaign over the same designs is pure cache traffic, and a synthesized
or gate-reordered copy of a known netlist hits the same entry.

Layout (all JSON, all written atomically)::

    $REPRO_CACHE_DIR/                   default: ~/.cache/repro
      v1/                               CACHE_SCHEMA_VERSION
        extraction/<aa>/<fingerprint>.json
        verification/<aa>/<fingerprint>.json
        diagnosis/<aa>/<fingerprint>.json
        squarer/<aa>/<fingerprint>.json
        cone/<aa>/<cone digest>.json       (per-output-cone results)
        jobs/<fingerprint>.jsonl           (checkpoints; repro.service.jobs)

where ``<aa>`` is a two-hex-digit shard of the fingerprint digest (so
no directory grows unboundedly).  Entries carry the schema version and
their kind inline; a schema bump changes the directory, so stale
entries are never *misread* — they are simply invisible until
``clear()`` reclaims them.

The artifact population is bounded by an optional entry budget
(``REPRO_CACHE_MAX_ENTRIES`` or the ``max_entries`` constructor
argument) and an optional size-in-bytes budget
(``REPRO_CACHE_MAX_BYTES`` / ``max_bytes``): every ``put`` past either
budget evicts the oldest-mtime entries (:meth:`ResultCache.prune`,
also exposed as ``repro cache prune``), and the session's
hit/miss/evict counters appear in ``repro cache stats``.  Every
counter bump also mirrors into the active :mod:`repro.telemetry`
registry (``cache.hit`` / ``cache.miss`` / ``cache.put`` /
``cache.evict`` / ``cache.compile_hit`` / ``cache.compile_miss``),
which is what the HTTP API's ``GET /metrics`` endpoint scrapes.

Compiled programs
-----------------
The cache does not store the rewriting engines' compiled programs:
an engine compiles from the live AIG the fingerprint already built,
which costs less than loading a stored program, and nothing in the
cache directory is ever unpickled.  Directories written by earlier
versions may still hold compiled-program blobs
(``compiled/<aa>/<fingerprint>.<engine>.s<N>.bin``, and ``.bin``
fragments beside cone entries): :meth:`ResultCache.stats` counts them,
and :meth:`ResultCache.prune` and :meth:`ResultCache.clear` evict them
like any artifact.  Nothing reads them.

Hostile entries
---------------
An entry that does not parse as JSON, parses to something other than
an object, lacks its ``payload``, or whose payload the decoder rejects
is *corrupt*: it is moved to ``quarantine/``, counted in
``cache.corrupt`` and read as a miss, so the recomputed artifact
replaces it.

Decoded polynomials are stored as sorted lists of sorted variable
lists (the canonical set-of-monomials form), so cached expressions are
engine-neutral and byte-stable.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro import chaos as _chaos
from repro import telemetry as _telemetry
from repro.engine.base import poly_to_json
from repro.ioutil import atomic_write_bytes, atomic_write_text
from repro.netlist.netlist import Netlist
from repro.rewrite.backward import RewriteStats
from repro.rewrite.parallel import ExtractionRun, LazyExpressions
from repro.service.fingerprint import (
    FINGERPRINT_SCHEMA,
    fingerprint_netlist,
)

# The extract types are imported where they are decoded, so loading
# the cache does not load the extract stack.
if TYPE_CHECKING:
    from repro.extract.diagnose import Diagnosis
    from repro.extract.extractor import ExtractionResult
    from repro.extract.verify import VerificationReport

#: Bump on any change to the serialized artifact layout.
CACHE_SCHEMA_VERSION = 1

#: ``json.dumps`` arguments of artifact and cone entries.  Without
#: ``indent`` CPython encodes in C; the whitespace is not part of the
#: layout, so changing it needs no schema bump.
_ENTRY_FORMAT = {"sort_keys": True, "separators": (",", ":")}

#: Environment variable overriding the cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable bounding the number of artifact entries kept
#: on disk; oldest-mtime entries are evicted past it (0/unset = keep
#: everything).
CACHE_MAX_ENTRIES_ENV = "REPRO_CACHE_MAX_ENTRIES"

#: Environment variable bounding the total artifact bytes kept on
#: disk; oldest-mtime entries are evicted past it (0/unset = keep
#: everything).
CACHE_MAX_BYTES_ENV = "REPRO_CACHE_MAX_BYTES"

#: What decoding an entry of the wrong shape raises: valid JSON that is
#: not an object, an object without ``payload``, or a payload missing
#: or mistyping a field.  Such an entry is corrupt, like one that does
#: not parse.
_MALFORMED = (KeyError, TypeError, ValueError, AttributeError)

#: The JSON artifact kinds the cache stores.
KINDS = ("extraction", "verification", "diagnosis", "squarer")

#: Binary compiled-program entries (see the module docstring); listed
#: separately from :data:`KINDS` because they are pickles, not JSON.
COMPILED_KIND = "compiled"

#: Per-output-cone results, keyed by cone digest (not netlist
#: fingerprint — the whole point is that a cone entry survives edits
#: to the *rest* of the netlist).  Listed separately from
#: :data:`KINDS` because its key space and payload shape differ; it
#: is budgeted/evicted/quarantined exactly like the other kinds.
CONE_KIND = "cone"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro"


def _check_budgets(**budgets: Optional[int]) -> None:
    """Reject negative budgets: truthy, they would evict every entry."""
    for name, value in budgets.items():
        if value is not None and value < 0:
            raise ValueError(f"{name}={value!r} is negative")


# ----------------------------------------------------------------------
# JSON codec for the three artifact kinds
# ----------------------------------------------------------------------

def stats_to_json(stats: RewriteStats) -> Dict[str, Any]:
    return {
        "output": stats.output,
        "iterations": stats.iterations,
        "cone_gates": stats.cone_gates,
        "peak_terms": stats.peak_terms,
        "final_terms": stats.final_terms,
        "eliminated_monomials": stats.eliminated_monomials,
        "runtime_s": stats.runtime_s,
    }


def stats_from_json(data: Dict[str, Any]) -> RewriteStats:
    return RewriteStats(**data)


def encode_extraction_run(run: ExtractionRun) -> Dict[str, Any]:
    """Engine-neutral JSON form of a run.

    Each expression is its cone's memoized
    :meth:`~repro.engine.base.ConeExpression.to_json` form when the run
    carries cones, so a cold run encodes every cone once.
    """
    cones = run.cones
    return {
        "netlist_name": run.netlist_name,
        "wall_time_s": run.wall_time_s,
        "cpu_time_s": run.cpu_time_s,
        "peak_terms": run.peak_terms,
        "peak_memory_bytes": run.peak_memory_bytes,
        "engine": run.engine,
        "expressions": {
            output: (
                cones[output].to_json()
                if output in cones
                else poly_to_json(run.expressions[output])
            )
            for output in sorted(run.expressions)
        },
        "stats": {
            output: stats_to_json(stats)
            for output, stats in sorted(run.stats.items())
        },
        "cache_provenance": {
            output: run.cache_provenance[output]
            for output in sorted(run.cache_provenance)
        },
    }


class _JsonCones(Mapping):
    """Output → ``ReferenceExpression``, decoded from entry JSON on
    first access — a cache hit that only needs P(x)/verdict metadata
    never rebuilds a single polynomial."""

    __slots__ = ("_raw", "_cache")

    def __init__(self, raw: Dict[str, Any]):
        self._raw = raw
        self._cache: Dict[str, Any] = {}

    def __getitem__(self, key: str):
        from repro.engine.reference import ReferenceExpression

        cone = self._cache.get(key)
        if cone is None:
            cone = ReferenceExpression.from_json(self._raw[key])
            self._cache[key] = cone
        return cone

    def __iter__(self):
        return iter(self._raw)

    def __len__(self) -> int:
        return len(self._raw)


def decode_extraction_run(data: Dict[str, Any]) -> ExtractionRun:
    cones = _JsonCones(data["expressions"])
    return ExtractionRun(
        netlist_name=data["netlist_name"],
        expressions=LazyExpressions(cones),
        stats={
            output: stats_from_json(stats)
            for output, stats in data["stats"].items()
        },
        wall_time_s=data["wall_time_s"],
        cpu_time_s=data["cpu_time_s"],
        peak_terms=data["peak_terms"],
        peak_memory_bytes=data.get("peak_memory_bytes"),
        engine=data["engine"],
        cones=cones,
        cache_provenance=dict(data.get("cache_provenance", {})),
    )


def encode_extraction_result(result: ExtractionResult) -> Dict[str, Any]:
    return {
        "modulus": result.modulus,
        "m": result.m,
        "irreducible": result.irreducible,
        "member_bits": list(result.member_bits),
        "total_time_s": result.total_time_s,
        "run": encode_extraction_run(result.run),
    }


def decode_extraction_result(data: Dict[str, Any]) -> ExtractionResult:
    from repro.extract.extractor import ExtractionResult

    return ExtractionResult(
        modulus=data["modulus"],
        m=data["m"],
        irreducible=data["irreducible"],
        member_bits=list(data["member_bits"]),
        run=decode_extraction_run(data["run"]),
        total_time_s=data["total_time_s"],
    )


def encode_verification_report(report: VerificationReport) -> Dict[str, Any]:
    return {
        "modulus": report.modulus,
        "algebraic": {
            str(bit): bool(ok) for bit, ok in sorted(report.algebraic.items())
        },
        "irreducible": report.irreducible,
        "simulation_ok": report.simulation_ok,
        "simulation_vectors": report.simulation_vectors,
        "runtime_s": report.runtime_s,
    }


def decode_verification_report(data: Dict[str, Any]) -> VerificationReport:
    from repro.extract.verify import VerificationReport

    return VerificationReport(
        modulus=data["modulus"],
        algebraic={int(bit): ok for bit, ok in data["algebraic"].items()},
        irreducible=data["irreducible"],
        simulation_ok=data["simulation_ok"],
        simulation_vectors=data["simulation_vectors"],
        runtime_s=data["runtime_s"],
    )


def encode_diagnosis(diagnosis: Diagnosis) -> Dict[str, Any]:
    return {
        "verdict": diagnosis.verdict.value,
        "netlist_name": diagnosis.netlist_name,
        "extraction": (
            encode_extraction_result(diagnosis.extraction)
            if diagnosis.extraction is not None
            else None
        ),
        "verification": (
            encode_verification_report(diagnosis.verification)
            if diagnosis.verification is not None
            else None
        ),
        "counterexample": diagnosis.counterexample,
        "reason": diagnosis.reason,
        "runtime_s": diagnosis.runtime_s,
    }


def decode_diagnosis(data: Dict[str, Any]) -> Diagnosis:
    from repro.extract.diagnose import Diagnosis, Verdict

    return Diagnosis(
        verdict=Verdict(data["verdict"]),
        netlist_name=data["netlist_name"],
        extraction=(
            decode_extraction_result(data["extraction"])
            if data["extraction"] is not None
            else None
        ),
        verification=(
            decode_verification_report(data["verification"])
            if data["verification"] is not None
            else None
        ),
        counterexample=data["counterexample"],
        reason=data["reason"],
        runtime_s=data["runtime_s"],
    )


def encode_squarer_result(result) -> Dict[str, Any]:
    return {
        "modulus": result.modulus,
        "m": result.m,
        "observed_columns": list(result.observed_columns),
        "irreducible": result.irreducible,
        "verified": result.verified,
        "total_time_s": result.total_time_s,
    }


def decode_squarer_result(data: Dict[str, Any]):
    from repro.extract.squarer import SquarerExtractionResult

    return SquarerExtractionResult(
        modulus=data["modulus"],
        m=data["m"],
        observed_columns=list(data["observed_columns"]),
        irreducible=data["irreducible"],
        verified=data["verified"],
        total_time_s=data["total_time_s"],
    )


_ENCODERS = {
    "extraction": encode_extraction_result,
    "verification": encode_verification_report,
    "diagnosis": encode_diagnosis,
    "squarer": encode_squarer_result,
}
_DECODERS = {
    "extraction": decode_extraction_result,
    "verification": decode_verification_report,
    "diagnosis": decode_diagnosis,
    "squarer": decode_squarer_result,
}


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------

@dataclass
class CacheStats:
    """Hit/miss/evict counters (this instance) + on-disk totals."""

    root: str
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: Dict[str, int] = field(default_factory=dict)
    disk_bytes: int = 0
    max_entries: Optional[int] = None
    max_bytes: Optional[int] = None
    compile_hits: int = 0
    compile_misses: int = 0
    cone_hits: int = 0
    cone_misses: int = 0
    corrupt: int = 0
    quarantined: int = 0

    @property
    def total_entries(self) -> int:
        return sum(self.entries.values())

    @property
    def hit_rate(self) -> float:
        looked = self.hits + self.misses
        return self.hits / looked if looked else 0.0

    def __str__(self) -> str:
        per_kind = ", ".join(
            f"{kind}:{count}" for kind, count in sorted(self.entries.items())
        ) or "empty"
        budgets = []
        if self.max_entries:
            budgets.append(f"max {self.max_entries}")
        if self.max_bytes:
            budgets.append(f"max {self.max_bytes / 1024:.0f} KiB")
        budget = f" ({', '.join(budgets)})" if budgets else ""
        return (
            f"cache at {self.root}: {self.total_entries} entries{budget} "
            f"[{per_kind}], {self.disk_bytes / 1024:.1f} KiB, "
            f"session hits={self.hits} misses={self.misses} "
            f"evictions={self.evictions} ({self.hit_rate:.0%} hit rate), "
            f"compiled hits={self.compile_hits} "
            f"misses={self.compile_misses}, "
            f"cone hits={self.cone_hits} misses={self.cone_misses}, "
            f"corrupt={self.corrupt} "
            f"({self.quarantined} quarantined on disk)"
        )


class ResultCache:
    """Content-addressed store for extraction/verification/diagnosis.

    Keys are netlist fingerprints; a :class:`~repro.netlist.netlist.Netlist`
    is accepted anywhere a key is and fingerprinted on the fly.
    Concurrent writers are safe: entries are immutable by construction
    (same key ⟹ same payload) and every write is an atomic replace.

    >>> import tempfile
    >>> from repro.gen.mastrovito import generate_mastrovito
    >>> from repro.extract.extractor import extract_irreducible_polynomial
    >>> cache = ResultCache(tempfile.mkdtemp())
    >>> net = generate_mastrovito(0b10011)
    >>> cache.get_extraction(net) is None
    True
    >>> cache.put_extraction(net, extract_irreducible_polynomial(net))
    >>> cache.get_extraction(net).polynomial_str
    'x^4 + x + 1'
    """

    def __init__(
        self,
        root: Optional[Union[str, os.PathLike]] = None,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.version_dir = self.root / f"v{CACHE_SCHEMA_VERSION}"
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.compile_hits = 0
        self.compile_misses = 0
        self.cone_hits = 0
        self.cone_misses = 0
        self.corrupt = 0
        if max_entries is None:
            max_entries = self._int_env(CACHE_MAX_ENTRIES_ENV)
        if max_bytes is None:
            max_bytes = self._int_env(CACHE_MAX_BYTES_ENV)
        _check_budgets(max_entries=max_entries, max_bytes=max_bytes)
        #: Artifact-entry budget; ``None``/``0`` disables eviction.
        self.max_entries = max_entries or None
        #: Artifact-bytes budget; ``None``/``0`` disables eviction.
        self.max_bytes = max_bytes or None
        #: Approximate on-disk artifact count/bytes, seeded by the
        #: first budgeted ``put`` and corrected by every :meth:`prune`
        #: scan — so a long fill pays one directory walk per eviction
        #: batch, not one per write.  Concurrent writers can make them
        #: drift low, which only delays eviction until the next scan.
        self._entry_estimate: Optional[int] = None
        self._bytes_estimate: Optional[int] = None

    @staticmethod
    def _int_env(variable: str) -> Optional[int]:
        env = os.environ.get(variable)
        if not env:
            return None
        try:
            value = int(env)
        except ValueError:
            value = -1
        if value < 0:
            raise ValueError(
                f"{variable}={env!r} is not a non-negative integer"
            )
        return value

    # -- key handling ---------------------------------------------------

    def fingerprint(self, key: Union[str, Netlist]) -> str:
        """Normalise a key: pass fingerprints through, hash netlists.

        A netlist's fingerprint is memoized on the netlist itself
        (:func:`repro.service.fingerprint.fingerprint_netlist`), so one
        request that consults several kinds hashes it once.
        """
        if isinstance(key, Netlist):
            return fingerprint_netlist(key)
        return key

    def path_for(self, kind: str, key: Union[str, Netlist]) -> Path:
        if kind not in KINDS:
            raise ValueError(f"unknown artifact kind {kind!r}")
        fingerprint = self.fingerprint(key)
        digest = fingerprint.rsplit("-", 1)[-1]
        return self.version_dir / kind / digest[:2] / f"{fingerprint}.json"

    def jobs_dir(self) -> Path:
        """Directory for extraction checkpoints (repro.service.jobs)."""
        return self.version_dir / "jobs"

    # -- file fingerprint memo ------------------------------------------
    #
    # Fingerprinting is content-addressed, but campaigns address
    # netlists by *file*; re-parsing and re-strashing a file whose
    # bytes have not changed just to recompute a known fingerprint
    # would dominate warm reruns.  The memo maps (absolute path,
    # mtime_ns, size) -> fingerprint, so a warm hit never opens the
    # netlist at all.  Any stat change invalidates the memo entry and
    # falls back to a full fingerprint.

    def _file_memo_path(self, path: Union[str, os.PathLike]) -> Path:
        digest = hashlib.sha256(
            os.fsdecode(os.path.abspath(path)).encode("utf-8")
        ).hexdigest()
        return self.version_dir / "files" / digest[:2] / f"{digest}.json"

    def file_fingerprint(
        self, path: Union[str, os.PathLike]
    ) -> Optional[Dict[str, Any]]:
        """The memoized ``{"fingerprint", "gates"}`` (plus ``"cones"``
        when recorded — see :meth:`remember_file`) for an unchanged
        file, or None when unseen/stale/unreadable.  A memo that is not
        a JSON object, or that matches the file but holds no string
        fingerprint, is quarantined like a corrupt artifact."""
        try:
            stat = os.stat(path)
        except OSError:
            return None
        memo_path = self._file_memo_path(path)
        try:
            with open(memo_path, "r", encoding="utf-8") as handle:
                memo = json.load(handle)
        except FileNotFoundError:
            return None
        except ValueError:  # not JSON, or not UTF-8
            memo = None
        if not isinstance(memo, dict):
            self._quarantine_corrupt("files", memo_path)
            return None
        if (
            memo.get("mtime_ns") != stat.st_mtime_ns
            or memo.get("size") != stat.st_size
            or memo.get("schema") != FINGERPRINT_SCHEMA
        ):
            # A schema bump stales every memo: the recorded fingerprint
            # was computed under the old canonical form and would stop
            # structurally identical designs from deduplicating.
            return None
        if not isinstance(memo.get("fingerprint"), str):
            self._quarantine_corrupt("files", memo_path)
            return None
        return memo

    def remember_file(
        self,
        path: Union[str, os.PathLike],
        fingerprint: str,
        gates: Optional[int] = None,
        stat: Optional[os.stat_result] = None,
        cones: Optional[Dict[str, str]] = None,
    ) -> None:
        """Record a file's fingerprint against its stat.

        Pass the ``stat`` taken *before* reading the file; statting
        here, after the parse, would memoize the old content's
        fingerprint against the stat of a concurrent overwrite.

        ``cones`` optionally records the per-output-cone digests
        (:func:`repro.service.fingerprint.cone_fingerprints`) so a
        repeated ECO diff against an unchanged file skips the strash
        entirely — the memo hit already carries every cone digest.
        """
        if stat is None:
            try:
                stat = os.stat(path)
            except OSError:
                return
        memo_path = self._file_memo_path(path)
        memo_path.parent.mkdir(parents=True, exist_ok=True)
        memo = {
            "path": os.fsdecode(os.path.abspath(path)),
            "mtime_ns": stat.st_mtime_ns,
            "size": stat.st_size,
            "schema": FINGERPRINT_SCHEMA,
            "fingerprint": fingerprint,
            "gates": gates,
        }
        if cones is not None:
            memo["cones"] = cones
        atomic_write_text(memo_path, json.dumps(memo))

    # -- generic get/put ------------------------------------------------

    def get(self, kind: str, key: Union[str, Netlist]) -> Optional[Any]:
        """Load and decode an artifact; None (and a miss) if absent.

        Every lookup — hit or miss — lands in the ``cache.lookup``
        latency histogram: the distribution (not the average) is what
        tells a shared-cache deployment when the store's disk or
        fingerprint path degrades.
        """
        started = time.perf_counter()
        try:
            path = self.path_for(kind, key)
            # Chaos site: a transient read failure here is retryable
            # by the supervision layer, unlike the corrupt-entry path
            # below, which is a deterministic fact about the disk.
            _chaos.get_chaos().io_error(where=f"cache.get {kind}")
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    entry = json.load(handle)
            except FileNotFoundError:
                self.misses += 1
                _telemetry.current().counter("cache.miss")
                return None
            except ValueError:  # not JSON, or not UTF-8
                entry = None
            if isinstance(entry, dict) and (
                entry.get("schema") != CACHE_SCHEMA_VERSION
            ):
                self.misses += 1
                _telemetry.current().counter("cache.miss")
                return None
            try:
                # Unparsed (None) and non-object entries raise here too.
                artifact = _DECODERS[kind](entry["payload"])
            except _MALFORMED:
                self._quarantine_corrupt(kind, path)
                self.misses += 1
                _telemetry.current().counter("cache.miss")
                return None
            self.hits += 1
            _telemetry.current().counter("cache.hit")
            return artifact
        finally:
            _telemetry.current().observe(
                "cache.lookup", time.perf_counter() - started
            )

    def put(self, kind: str, key: Union[str, Netlist], artifact: Any) -> Path:
        """Encode and atomically store an artifact; returns its path.

        Entries are written as compact JSON (sorted keys, no
        whitespace; see :data:`_ENTRY_FORMAT`), which CPython encodes
        in C.  Readers parse any JSON layout, so entries written
        indented by earlier versions are still hits.
        """
        fingerprint = self.fingerprint(key)  # once: strash+hash is O(n)
        path = self.path_for(kind, fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "schema": CACHE_SCHEMA_VERSION,
            "kind": kind,
            "fingerprint": fingerprint,
            "created_unix": time.time(),
            "payload": _ENCODERS[kind](artifact),
        }
        replaced = self._size_before_write(path)
        chaos = _chaos.get_chaos()
        chaos.io_error(where=f"cache.put {kind}")
        payload = json.dumps(entry, **_ENTRY_FORMAT).encode("utf-8")
        # Chaos site: deterministically mangled payloads exercise the
        # corrupt-entry quarantine on the next read of this key.
        payload = chaos.corrupt(payload, key=f"{kind}:{fingerprint}")
        atomic_write_bytes(path, payload)
        _telemetry.current().counter("cache.put")
        self._after_budgeted_write(path, replaced)
        return path

    def _size_before_write(self, path: Path) -> Optional[int]:
        """Size of the entry a write is about to replace (None = new).

        Only consulted when a budget is active; an overwrite (re-put
        of the same key, a re-stored compiled program) must not count
        as a new entry or its replaced bytes stay in the estimate.
        """
        if self.max_entries is None and self.max_bytes is None:
            return None
        try:
            return path.stat().st_size
        except OSError:
            return None

    def _after_budgeted_write(
        self, path: Path, replaced: Optional[int] = None
    ) -> None:
        """Update the entry/byte estimates; prune when a budget trips."""
        if self.max_entries is None and self.max_bytes is None:
            return
        if self._entry_estimate is None:
            self.prune()  # first budgeted write: scan once to seed
            return
        if replaced is None:
            self._entry_estimate += 1
        try:
            self._bytes_estimate = (
                (self._bytes_estimate or 0)
                + path.stat().st_size
                - (replaced or 0)
            )
        except OSError:  # pragma: no cover - concurrently evicted
            pass
        if (
            self.max_entries is not None
            and self._entry_estimate > self.max_entries
        ) or (
            self.max_bytes is not None
            and (self._bytes_estimate or 0) > self.max_bytes
        ):
            self.prune()

    def quarantine_dir(self) -> Path:
        """Where corrupted entries are moved for post-mortem."""
        return self.version_dir / "quarantine"

    def _quarantine_corrupt(self, kind: str, path: Path) -> None:
        """Move an undecodable entry out of the artifact tree.

        A corrupted entry left in place is a *permanent* miss for its
        key — every future ``get`` re-reads the garbage, fails to
        decode, and the recomputed artifact never overwrites it unless
        the caller happens to ``put``.  Moving it to ``quarantine/``
        turns the next lookup into a clean miss (so the recompute
        lands normally) while keeping the bytes for diagnosis.
        """
        target = self.quarantine_dir() / f"{kind}.{path.name}"
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            try:  # can't move it — dropping it still unwedges the key
                path.unlink()
            except OSError:  # pragma: no cover - raced/unwritable
                return
        self.corrupt += 1
        _telemetry.current().counter("cache.corrupt")

    def contains(self, kind: str, key: Union[str, Netlist]) -> bool:
        """Presence test without decoding (does not count hit/miss)."""
        return self.path_for(kind, key).exists()

    def get_raw(self, kind: str, key: Union[str, Netlist]) -> Optional[Dict]:
        """The raw JSON entry (for the HTTP API's ``full`` view)."""
        path = self.path_for(kind, key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError):
            return None

    # -- compiled engine programs ---------------------------------------

    def compiled_path_for(
        self, key: Union[str, Netlist], engine: str, schema: Optional[int]
    ) -> Path:
        """Location of one engine's compiled program for a netlist.

        The engine compile key and its compile schema are part of the
        file name, so a schema bump retires that engine's programs
        without touching any other entry.
        """
        fingerprint = self.fingerprint(key)
        digest = fingerprint.rsplit("-", 1)[-1]
        return (
            self.version_dir
            / COMPILED_KIND
            / digest[:2]
            / f"{fingerprint}.{engine}.s{schema}.bin"
        )

    def get_compiled(
        self, key: Union[str, Netlist], engine: str, schema: Optional[int]
    ) -> Optional[bytes]:
        """The stored compiled-program payload, or ``None`` (a miss).

        The payload is returned as opaque bytes, never unpickled.

        No code in ``src/`` calls it: engines no longer persist their
        programs.  It stays only because ``perfbench/layers.py`` wraps
        it by name, and goes when that probe stops wrapping ``src/``
        functions (ROADMAP item 1).
        """
        started = time.perf_counter()
        try:
            path = self.compiled_path_for(key, engine, schema)
            try:
                payload = path.read_bytes()
            except OSError:
                self.compile_misses += 1
                _telemetry.current().counter("cache.compile_miss")
                return None
            self.compile_hits += 1
            _telemetry.current().counter("cache.compile_hit")
            return payload
        finally:
            _telemetry.current().observe(
                "cache.lookup", time.perf_counter() - started
            )

    def put_compiled(
        self,
        key: Union[str, Netlist],
        engine: str,
        schema: Optional[int],
        payload: bytes,
    ) -> Path:
        """Atomically store one engine's compiled program.

        No code in ``src/`` calls it: engines no longer persist their
        programs.  It stays only because ``perfbench/layers.py`` wraps
        it by name, and goes when that probe stops wrapping ``src/``
        functions (ROADMAP item 1).
        """
        path = self.compiled_path_for(key, engine, schema)
        path.parent.mkdir(parents=True, exist_ok=True)
        replaced = self._size_before_write(path)
        atomic_write_bytes(path, payload)
        self._after_budgeted_write(path, replaced)
        return path

    # -- per-output-cone results ----------------------------------------
    #
    # Theorem 1 of the paper makes each output bit's canonical
    # expression unique and backend-independent, so a cone result is
    # engine-neutral: it is keyed only by the cone digest
    # (repro.service.fingerprint.cone_fingerprints — a Merkle hash of
    # the output's transitive fan-in), and any engine may serve or
    # store it.  Engine identity and compile schema are *recorded* in
    # the payload as provenance.

    def cone_path_for(self, digest: str) -> Path:
        """Location of one output cone's cached result."""
        return self.version_dir / CONE_KIND / digest[:2] / f"{digest}.json"

    def get_cone(self, digest: str) -> Optional[Dict[str, Any]]:
        """The cached cone payload, or ``None`` (a miss).

        The payload is the raw JSON dict: ``output``, ``expression``
        (``poly_to_json`` form), ``stats`` (``stats_to_json`` form),
        plus ``engine``/``compile_schema`` provenance.  Decoding to a
        backend expression belongs to the extraction driver.  An entry
        whose payload has no decodable ``stats`` or no ``expression``
        list is quarantined and read as a miss.
        """
        started = time.perf_counter()
        try:
            path = self.cone_path_for(digest)
            try:
                _chaos.get_chaos().io_error(where=f"cache.get {CONE_KIND}")
                with open(path, "r", encoding="utf-8") as handle:
                    entry = json.load(handle)
            except OSError:
                # Any unreadable entry — missing, or a flaky read —
                # is a miss: the driver recomputes the cone.  Reads
                # happen per bit inside extraction, so propagating
                # would abort (and retry) the whole design for an
                # artifact that is purely an optimization.
                self.cone_misses += 1
                _telemetry.current().counter("cache.cone_miss")
                return None
            except ValueError:  # not JSON, or not UTF-8
                entry = None
            if isinstance(entry, dict) and (
                entry.get("schema") != CACHE_SCHEMA_VERSION
            ):
                self.cone_misses += 1
                _telemetry.current().counter("cache.cone_miss")
                return None
            try:
                # Unparsed (None) and non-object entries raise here too.
                payload = entry["payload"]
                stats_from_json(payload["stats"])
                if not isinstance(payload["expression"], list):
                    raise TypeError("cone expression is not a list")
            except _MALFORMED:
                self._quarantine_corrupt(CONE_KIND, path)
                self.cone_misses += 1
                _telemetry.current().counter("cache.cone_miss")
                return None
            self.cone_hits += 1
            _telemetry.current().counter("cache.cone_hit")
            return payload
        finally:
            _telemetry.current().observe(
                "cache.lookup", time.perf_counter() - started
            )

    def put_cone(
        self,
        digest: str,
        output: str,
        expression: List[List[str]],
        stats: RewriteStats,
        engine: Optional[str] = None,
        compile_schema: Optional[int] = None,
    ) -> Path:
        """Atomically store one output cone's result (best-effort).

        ``expression`` is the cone's ``poly_to_json`` form, as
        :meth:`~repro.engine.base.ConeExpression.to_json` memoizes it.
        A failed store is swallowed: population happens per bit
        inside extraction, and losing one cache entry must not abort
        (and force a retry of) the surrounding design.
        """
        path = self.cone_path_for(digest)
        entry = {
            "schema": CACHE_SCHEMA_VERSION,
            "kind": CONE_KIND,
            "cone": digest,
            "created_unix": time.time(),
            "payload": {
                "output": output,
                "expression": expression,
                "stats": stats_to_json(stats),
                "engine": engine,
                "compile_schema": compile_schema,
            },
        }
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            replaced = self._size_before_write(path)
            chaos = _chaos.get_chaos()
            chaos.io_error(where=f"cache.put {CONE_KIND}")
            payload = json.dumps(entry, **_ENTRY_FORMAT).encode("utf-8")
            payload = chaos.corrupt(payload, key=f"{CONE_KIND}:{digest}")
            atomic_write_bytes(path, payload)
        except OSError:
            return path
        _telemetry.current().counter("cache.put")
        self._after_budgeted_write(path, replaced)
        return path

    def cone_compiled_path_for(
        self, digest: str, engine: str, schema: Optional[int]
    ) -> Path:
        """Location of one engine's compiled fragment for a cone.

        Like :meth:`compiled_path_for`, the engine and its compile
        schema are part of the file name, so a schema bump retires
        that engine's fragments without touching the cone results.
        """
        return (
            self.version_dir
            / CONE_KIND
            / digest[:2]
            / f"{digest}.{engine}.s{schema}.bin"
        )

    def get_cone_compiled(
        self, digest: str, engine: str, schema: Optional[int]
    ) -> Optional[bytes]:
        """A cone's stored compiled fragment (opaque bytes), or None.

        No code in ``src/`` calls it: engines no longer persist their
        programs.  It stays only because ``perfbench/layers.py`` wraps
        it by name, and goes when that probe stops wrapping ``src/``
        functions (ROADMAP item 1).
        """
        path = self.cone_compiled_path_for(digest, engine, schema)
        try:
            payload = path.read_bytes()
        except OSError:
            self.compile_misses += 1
            _telemetry.current().counter("cache.compile_miss")
            return None
        self.compile_hits += 1
        _telemetry.current().counter("cache.compile_hit")
        return payload

    def put_cone_compiled(
        self,
        digest: str,
        engine: str,
        schema: Optional[int],
        payload: bytes,
    ) -> Path:
        """Atomically store one engine's compiled fragment for a cone.

        Best-effort like :meth:`put_cone`: a failed store is never
        worth aborting the extraction that produced the fragment.

        No code in ``src/`` calls it: engines no longer persist their
        programs.  It stays only because ``perfbench/layers.py`` wraps
        it by name, and goes when that probe stops wrapping ``src/``
        functions (ROADMAP item 1).
        """
        path = self.cone_compiled_path_for(digest, engine, schema)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            replaced = self._size_before_write(path)
            atomic_write_bytes(path, payload)
        except OSError:
            return path
        self._after_budgeted_write(path, replaced)
        return path

    # -- typed convenience ----------------------------------------------

    def get_extraction(self, key) -> Optional[ExtractionResult]:
        return self.get("extraction", key)

    def put_extraction(self, key, result: ExtractionResult) -> None:
        self.put("extraction", key, result)
        # Sidecar: Algorithm 2's verdict alone, so the ECO warm path
        # can re-report P(x) without parsing the full per-bit
        # expression payload (which dominates the entry at large m).
        # Keyed by content fingerprint it can never go stale; an
        # evicted main entry may strand a (tiny) sidecar, which is why
        # readers must pair it with their own freshness evidence.
        path = self.extraction_summary_path(key)
        try:
            atomic_write_text(
                path,
                json.dumps(
                    {
                        "schema": CACHE_SCHEMA_VERSION,
                        "modulus": result.modulus,
                        "m": result.m,
                        "irreducible": result.irreducible,
                        "member_bits": list(result.member_bits),
                    },
                    sort_keys=True,
                ),
            )
        except OSError:
            # Best-effort: the sidecar only accelerates repeat
            # re-audits; the main entry above already landed.
            pass

    def extraction_summary_path(self, key) -> Path:
        return self.path_for("extraction", key).with_suffix(".sum")

    def get_extraction_summary(self, key) -> Optional[Dict[str, Any]]:
        """The verdict sidecar of a stored extraction, or None.

        Milliseconds where :meth:`get_extraction` is tenths of a
        second: no expressions, just ``modulus``/``m``/``irreducible``/
        ``member_bits``.  Because eviction can strand a sidecar after
        its main entry is gone, treat a hit as authoritative only
        alongside independent evidence the result is still servable
        (the ECO path requires every cone entry to be present).
        """
        try:
            with open(
                self.extraction_summary_path(key), "r", encoding="utf-8"
            ) as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(data, dict) or (
            data.get("schema") != CACHE_SCHEMA_VERSION
        ):
            return None
        return data

    def get_verification(self, key) -> Optional[VerificationReport]:
        return self.get("verification", key)

    def put_verification(self, key, report: VerificationReport) -> None:
        self.put("verification", key, report)

    def get_diagnosis(self, key) -> Optional[Diagnosis]:
        return self.get("diagnosis", key)

    def put_diagnosis(self, key, diagnosis: Diagnosis) -> None:
        self.put("diagnosis", key, diagnosis)

    def get_squarer(self, key):
        return self.get("squarer", key)

    def put_squarer(self, key, result) -> None:
        self.put("squarer", key, result)

    # -- stats / maintenance --------------------------------------------

    def _artifact_files(self) -> Iterator[Tuple[str, Path]]:
        """Every budgeted artifact file as ``(kind, path)`` — the JSON
        kinds plus the compiled-program blobs.  File-fingerprint memos
        and job checkpoints are deliberately excluded (tiny, and
        rebuilding them costs a re-parse, not a re-extraction)."""
        for kind in KINDS:
            kind_dir = self.version_dir / kind
            if kind_dir.is_dir():
                for path in kind_dir.rglob("*.json"):
                    yield kind, path
        cone_dir = self.version_dir / CONE_KIND
        if cone_dir.is_dir():
            # Cone results (.json) and per-cone compiled fragments
            # (.bin) both count against the budgets.
            for pattern in ("*.json", "*.bin"):
                for path in cone_dir.rglob(pattern):
                    yield CONE_KIND, path
        compiled_dir = self.version_dir / COMPILED_KIND
        if compiled_dir.is_dir():
            for path in compiled_dir.rglob("*.bin"):
                yield COMPILED_KIND, path

    def stats(self) -> CacheStats:
        """Session hit/miss counters plus an on-disk census."""
        entries: Dict[str, int] = {kind: 0 for kind in KINDS}
        entries[CONE_KIND] = 0
        entries[COMPILED_KIND] = 0
        disk_bytes = 0
        for kind, path in self._artifact_files():
            entries[kind] += 1
            try:
                disk_bytes += path.stat().st_size
            except OSError:  # pragma: no cover - concurrently evicted
                continue
        return CacheStats(
            root=str(self.root),
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            entries=entries,
            disk_bytes=disk_bytes,
            max_entries=self.max_entries,
            max_bytes=self.max_bytes,
            compile_hits=self.compile_hits,
            compile_misses=self.compile_misses,
            cone_hits=self.cone_hits,
            cone_misses=self.cone_misses,
            corrupt=self.corrupt,
            quarantined=sum(
                1 for p in self.quarantine_dir().glob("*") if p.is_file()
            ),
        )

    def prune(
        self,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> int:
        """Evict oldest-mtime artifact entries beyond the budgets.

        ``max_entries`` / ``max_bytes`` default to the instance
        budgets (set via the constructor, ``REPRO_CACHE_MAX_ENTRIES``
        or ``REPRO_CACHE_MAX_BYTES``); passing either explicitly
        prunes to any size, including ``0`` (drop all artifact
        entries).  Compiled-program blobs count and are evicted like
        any other artifact; file-fingerprint memos and job checkpoints
        are not counted and not evicted.  Returns the eviction count.
        """
        if max_entries is None:
            max_entries = self.max_entries
        if max_bytes is None:
            max_bytes = self.max_bytes
        _check_budgets(max_entries=max_entries, max_bytes=max_bytes)
        if max_entries is None and max_bytes is None:
            return 0
        aged: List[Tuple[int, int, Path]] = []
        for _, path in self._artifact_files():
            try:
                stat = path.stat()
            except OSError:
                continue  # concurrently evicted by another writer
            aged.append((stat.st_mtime_ns, stat.st_size, path))
        aged.sort(key=lambda item: (item[0], item[2]))
        kept_count = len(aged)
        kept_bytes = sum(size for _, size, _ in aged)
        removed = 0
        for _, size, path in aged:
            over_entries = (
                max_entries is not None and kept_count > max_entries
            )
            over_bytes = max_bytes is not None and kept_bytes > max_bytes
            if not (over_entries or over_bytes):
                break
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass  # concurrently evicted; budget-wise it is gone
            kept_count -= 1
            kept_bytes -= size
        self.evictions += removed
        if removed:
            _telemetry.current().counter("cache.evict", removed)
        self._entry_estimate = kept_count
        self._bytes_estimate = kept_bytes
        return removed

    def clear(self) -> int:
        """Delete every entry (all schema versions); returns the count."""
        removed = 0
        if self.root.is_dir():
            for version_dir in self.root.glob("v*"):
                if version_dir.is_dir():
                    removed += sum(
                        1
                        for p in version_dir.rglob("*")
                        if p.is_file() and p.suffix in (".json", ".bin")
                    )
                    shutil.rmtree(version_dir)
        return removed

    def __repr__(self) -> str:
        return f"ResultCache(root={str(self.root)!r})"
