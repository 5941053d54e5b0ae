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
        extraction/<aa>/<fingerprint>.sum   (verdict sidecar; see below)
        verification/<aa>/<fingerprint>.json
        diagnosis/<aa>/<fingerprint>.json
        cone/<aa>/<cone digest>.json       (per-output-cone results)

where ``<aa>`` is a two-hex-digit shard of the fingerprint digest (so
no directory grows unboundedly).  A cone entry is written the moment
its output bit completes, so the cone tier is also the resume state
of an interrupted extraction.  A ``jobs/`` directory left by versions
that kept separate JSONL checkpoints, and a ``squarer/`` directory
left by versions that cached squarer extractions beside their
diagnoses, are ignored; ``clear()`` removes them.  Entries carry the schema version and their kind inline; a schema
bump changes the directory, so stale entries are never *misread* —
they are simply invisible until ``clear()`` reclaims them.

A lookup derives one string path per entry it reads (a verdict
sidecar's from its main entry's, a file memo's from one ``abspath``
and its sha256) and reads it with one binary ``read()``; no
:class:`~pathlib.Path` is built on the way.  The public helpers
(:meth:`ResultCache.path_for`, :meth:`~ResultCache.cone_path_for`,
:meth:`~ResultCache.extraction_summary_path`) return the same
locations as :class:`~pathlib.Path` objects.

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

Verdict sidecar
---------------
Most of an extraction entry is its per-bit expressions, yet a fully
cached extract or audit reports only Algorithm 2's answer.  Every
extraction entry is therefore written with a small ``.sum`` sidecar
holding ``modulus``, ``m``, ``irreducible``, ``member_bits`` and the
sha256 ``digest`` of the bytes meant for the main entry.
:meth:`ResultCache.get_verdict` serves the sidecar only when the main
entry still hashes to that digest and begins with the same verdict
fields, so it answers exactly what decoding the entry would.  Any
other sidecar falls back to decoding the main entry.

Hostile entries
---------------
An entry that does not parse as JSON, parses to something other than
an object, lacks its ``payload``, or whose payload the decoder rejects
is *corrupt*: it is moved to ``quarantine/``, counted in
``cache.corrupt`` and read as a miss, so the recomputed artifact
replaces it.  So is an entry whose recorded ``kind`` and
``fingerprint`` (a cone entry's ``cone`` digest) differ from the key
it was looked up under: a file copied or renamed to another key's
path answers nothing.  A verdict sidecar that is not an object, or
whose fields are mistyped or contradict each other or their main
entry, is quarantined the same way.

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
KINDS = ("extraction", "verification", "diagnosis")

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
    return Path(_default_root())


def _default_root() -> str:
    """:func:`default_cache_dir` as a string."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return os.path.expanduser(env)
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


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


_ENCODERS = {
    "extraction": encode_extraction_result,
    "verification": encode_verification_report,
    "diagnosis": encode_diagnosis,
}
_DECODERS = {
    "extraction": decode_extraction_result,
    "verification": decode_verification_report,
    "diagnosis": decode_diagnosis,
}


# ----------------------------------------------------------------------
# The verdict sidecar
# ----------------------------------------------------------------------

#: What an extraction's sidecar serves, in the key order of its entry.
_VERDICT_FIELDS = ("irreducible", "m", "member_bits", "modulus")


def _is_int(value: Any) -> bool:
    return type(value) is int  # JSON true/false decode to bools


def _check_verdict(data: Dict[str, Any]) -> None:
    """Raise a :data:`_MALFORMED` error unless ``data`` holds a
    well-typed, self-consistent verdict: ``member_bits`` strictly
    ascending in ``[0, m)`` and ``modulus == x^m + sum x^bit``."""
    m, modulus, bits = data["m"], data["modulus"], data["member_bits"]
    if not (
        _is_int(m)
        and _is_int(modulus)
        and type(data["irreducible"]) is bool
        and isinstance(bits, list)
        and all(_is_int(bit) for bit in bits)
    ):
        raise TypeError("verdict field of the wrong type")
    # The bit length is compared first, so a hostile m never sizes an
    # integer larger than the modulus the entry already holds.
    if m < 1 or modulus.bit_length() != m + 1:
        raise ValueError("modulus is not of degree m")
    if any(low >= high for low, high in zip(bits, bits[1:])):
        raise ValueError("member_bits not strictly ascending")
    if bits and not 0 <= bits[0] <= bits[-1] < m:
        raise ValueError("member bit out of range")
    if modulus != (1 << m) | sum(1 << bit for bit in bits):
        raise ValueError("modulus disagrees with member_bits")
    if not isinstance(data.get("digest", ""), str):
        raise TypeError("digest is not a string")


def _sidecar_of(path: Union[str, os.PathLike]) -> str:
    """The verdict sidecar path of the extraction entry at ``path``."""
    return os.path.splitext(path)[0] + ".sum"


def _sidecar_bytes(kind: Optional[str], path: Union[str, os.PathLike]) -> int:
    """Size of the verdict sidecar of an extraction entry (else 0)."""
    if kind != "extraction":
        return 0
    try:
        return os.stat(_sidecar_of(path)).st_size
    except OSError:
        return 0


def _unlink(path: Union[str, os.PathLike]) -> bool:
    """Delete a file; False when it is already gone or cannot go."""
    try:
        os.unlink(path)
    except OSError:
        return False
    return True


def _read_json(path: str) -> Any:
    """The JSON document in the file ``path``: one binary read, decoded
    as strict UTF-8 (as a text-mode read would, so a byte-order mark
    is not JSON).  Raises :class:`OSError` when the file cannot be
    read and :class:`ValueError` when it is not UTF-8 JSON."""
    with open(path, "rb") as handle:
        data = handle.read()
    return json.loads(data.decode("utf-8"))


def _begins_with(data: bytes, fingerprint: str, fields) -> bool:
    """Whether extraction entry bytes ``data`` begin as
    :meth:`ResultCache.put` writes an entry with the verdict ``fields``.

    After ``created_unix`` come the fingerprint, the kind and the
    payload, whose keys sort as ``irreducible, m, member_bits,
    modulus, run, ...``: the verdict precedes every expression.
    """
    verdict = json.dumps(
        {name: fields[name] for name in _VERDICT_FIELDS}, **_ENTRY_FORMAT
    )
    head = (
        f',"fingerprint":{json.dumps(fingerprint)},"kind":"extraction",'
        f'"payload":{verdict[:-1]},"run":'
    )
    return data.startswith(head.encode("utf-8"), data.find(b","))


@dataclass
class ExtractionVerdict:
    """Algorithm 2's answer for a cached extraction.

    What :meth:`ResultCache.get_verdict` serves: the P(x) fields of an
    :class:`~repro.extract.extractor.ExtractionResult` without its
    per-bit expressions.  :meth:`result` decodes the full extraction
    from the main entry bytes the verdict was checked against.
    """

    modulus: int
    m: int
    irreducible: bool
    member_bits: List[int]
    #: The checked main entry bytes, or the result decoded from them.
    source: Any = field(default=None, repr=False, compare=False)

    @property
    def polynomial_str(self) -> str:
        """P(x) in the paper's notation, e.g. ``x^4 + x + 1``."""
        from repro.fieldmath.bitpoly import bitpoly_str

        return bitpoly_str(self.modulus)

    def result(self) -> ExtractionResult:
        """The full extraction, decoded on first use."""
        if isinstance(self.source, bytes):
            self.source = decode_extraction_result(
                json.loads(self.source)["payload"]
            )
        return self.source


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
        # Strings, not paths: every lookup derives its file's location
        # from ``_dir`` with one f-string (see :meth:`_entry_path`).
        self._root = os.fspath(root) if root is not None else _default_root()
        self._dir = os.path.join(self._root, f"v{CACHE_SCHEMA_VERSION}")
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

    @property
    def root(self) -> Path:
        """The cache directory."""
        return Path(self._root)

    @property
    def version_dir(self) -> Path:
        """The directory of this schema version's entries."""
        return Path(self._dir)

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
        """Location of the ``kind`` entry of ``key``."""
        return Path(self._entry_path(kind, self.fingerprint(key)))

    def _entry_path(self, kind: str, fingerprint: str) -> str:
        """:meth:`path_for` as a string, which is what lookups open."""
        if kind not in KINDS:
            raise ValueError(f"unknown artifact kind {kind!r}")
        digest = fingerprint.rsplit("-", 1)[-1]
        return f"{self._dir}/{kind}/{digest[:2]}/{fingerprint}.json"

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
        """Location of the file fingerprint memo of ``path``."""
        return Path(self._memo_path(os.path.abspath(path)))

    def _memo_path(self, absolute: Union[str, bytes]) -> str:
        """:meth:`_file_memo_path` of an absolute path, as a string."""
        digest = hashlib.sha256(
            os.fsdecode(absolute).encode("utf-8")
        ).hexdigest()
        return f"{self._dir}/files/{digest[:2]}/{digest}.json"

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
        memo_path = self._memo_path(os.path.abspath(path))
        try:
            memo = _read_json(memo_path)
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
        absolute = os.path.abspath(path)
        memo_path = self._memo_path(absolute)
        os.makedirs(os.path.dirname(memo_path), exist_ok=True)
        memo = {
            "path": os.fsdecode(absolute),
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
            fingerprint = self.fingerprint(key)
            path = self._entry_path(kind, fingerprint)
            data = self._read_entry(kind, path)
            artifact = (
                None if data is None
                else self._decode(kind, fingerprint, path, data)
            )
            self._count_lookup(artifact is not None)
            return artifact
        finally:
            _telemetry.current().observe(
                "cache.lookup", time.perf_counter() - started
            )

    def _read_entry(self, kind: str, path: str) -> Optional[bytes]:
        """An entry's bytes, or None when it does not exist."""
        # Chaos site: a transient read failure here is retryable by
        # the supervision layer, unlike the corrupt-entry path of
        # _decode, which is a deterministic fact about the disk.
        _chaos.get_chaos().io_error(where=f"cache.get {kind}")
        try:
            with open(path, "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return None

    def _decode(
        self, kind: str, fingerprint: str, path: str, data: bytes
    ) -> Optional[Any]:
        """Decode entry bytes; None for an entry of another schema, and
        None after quarantining a corrupt one or one recorded under
        another kind or fingerprint."""
        try:
            entry = json.loads(data.decode("utf-8"))
        except ValueError:  # not JSON, or not UTF-8
            entry = None
        if isinstance(entry, dict) and (
            entry.get("schema") != CACHE_SCHEMA_VERSION
        ):
            return None
        try:
            # Unparsed (None) and non-object entries raise here too.
            if (entry["kind"], entry["fingerprint"]) != (kind, fingerprint):
                raise ValueError("entry recorded under another key")
            return _DECODERS[kind](entry["payload"])
        except _MALFORMED:
            self._quarantine_corrupt(kind, path)
            return None

    def _count_lookup(self, hit: bool) -> None:
        if hit:
            self.hits += 1
            _telemetry.current().counter("cache.hit")
        else:
            self.misses += 1
            _telemetry.current().counter("cache.miss")

    def put(self, kind: str, key: Union[str, Netlist], artifact: Any) -> Path:
        """Encode and atomically store an artifact; returns its path.

        Entries are written as compact JSON (sorted keys, no
        whitespace; see :data:`_ENTRY_FORMAT`), which CPython encodes
        in C.  Readers parse any JSON layout, so entries written
        indented by earlier versions are still hits.  An extraction
        entry is written with its verdict sidecar (see the module
        docstring).
        """
        fingerprint = self.fingerprint(key)  # once: strash+hash is O(n)
        path = self._entry_path(kind, fingerprint)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        entry = {
            "schema": CACHE_SCHEMA_VERSION,
            "kind": kind,
            "fingerprint": fingerprint,
            "created_unix": time.time(),
            "payload": _ENCODERS[kind](artifact),
        }
        replaced = self._size_before_write(path, kind)
        chaos = _chaos.get_chaos()
        chaos.io_error(where=f"cache.put {kind}")
        payload = json.dumps(entry, **_ENTRY_FORMAT).encode("utf-8")
        # Chaos site: deterministically mangled payloads exercise the
        # corrupt-entry quarantine on the next read of this key.
        atomic_write_bytes(
            path, chaos.corrupt(payload, key=f"{kind}:{fingerprint}")
        )
        _telemetry.current().counter("cache.put")
        if kind == "extraction":
            # Bound to the bytes meant for the entry: a mangled write
            # fails the digest and is decoded (and quarantined).
            self._put_sidecar(path, entry["payload"], payload)
        self._after_budgeted_write(path, replaced, kind)
        return Path(path)

    def _size_before_write(
        self, path: str, kind: Optional[str] = None
    ) -> Optional[int]:
        """Size of the entry a write is about to replace (None = new).

        Only consulted when a budget is active; an overwrite (re-put
        of the same key, a re-stored compiled program) must not count
        as a new entry or its replaced bytes stay in the estimate.
        """
        if self.max_entries is None and self.max_bytes is None:
            return None
        try:
            return os.stat(path).st_size + _sidecar_bytes(kind, path)
        except OSError:
            return None

    def _after_budgeted_write(
        self,
        path: str,
        replaced: Optional[int] = None,
        kind: Optional[str] = None,
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
                + os.stat(path).st_size
                + _sidecar_bytes(kind, path)
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
        return Path(self._dir, "quarantine")

    def _quarantine_corrupt(self, kind: str, path: str) -> None:
        """Move an undecodable entry out of the artifact tree.

        A corrupted entry left in place is a *permanent* miss for its
        key — every future ``get`` re-reads the garbage, fails to
        decode, and the recomputed artifact never overwrites it unless
        the caller happens to ``put``.  Moving it to ``quarantine/``
        turns the next lookup into a clean miss (so the recompute
        lands normally) while keeping the bytes for diagnosis.
        """
        quarantine = os.path.join(self._dir, "quarantine")
        target = os.path.join(quarantine, f"{kind}.{os.path.basename(path)}")
        try:
            os.makedirs(quarantine, exist_ok=True)
            os.replace(path, target)
        except OSError:
            try:  # can't move it — dropping it still unwedges the key
                os.unlink(path)
            except OSError:  # pragma: no cover - raced/unwritable
                return
        self.corrupt += 1
        _telemetry.current().counter("cache.corrupt")

    def contains(self, kind: str, key: Union[str, Netlist]) -> bool:
        """Presence test without decoding (does not count hit/miss)."""
        return os.path.exists(self._entry_path(kind, self.fingerprint(key)))

    def get_raw(self, kind: str, key: Union[str, Netlist]) -> Optional[Dict]:
        """The raw JSON entry (for the HTTP API's ``full`` view); None
        when it is absent, unreadable or recorded under another key."""
        fingerprint = self.fingerprint(key)
        try:
            entry = _read_json(self._entry_path(kind, fingerprint))
        except (FileNotFoundError, ValueError):
            return None
        if not isinstance(entry, dict) or (
            entry.get("kind"), entry.get("fingerprint")
        ) != (kind, fingerprint):
            return None
        return entry

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
        return Path(
            f"{self._dir}/{COMPILED_KIND}/{digest[:2]}/"
            f"{fingerprint}.{engine}.s{schema}.bin"
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
        return Path(self._cone_path(digest))

    def _cone_path(self, digest: str) -> str:
        """:meth:`cone_path_for` as a string, which is what lookups open."""
        return f"{self._dir}/{CONE_KIND}/{digest[:2]}/{digest}.json"

    def has_cone(self, digest: str) -> bool:
        """Presence test of a cone entry (does not count hit/miss)."""
        return os.path.exists(self._cone_path(digest))

    def get_cone(self, digest: str) -> Optional[Dict[str, Any]]:
        """The cached cone payload, or ``None`` (a miss).

        The payload is the raw JSON dict: ``output``, ``expression``
        (``poly_to_json`` form), ``stats`` (``stats_to_json`` form),
        plus ``engine``/``compile_schema`` provenance.  Decoding to a
        backend expression belongs to the extraction driver.  An entry
        recorded under another digest, or whose payload has no
        decodable ``stats`` or no ``expression`` list, is quarantined
        and read as a miss.
        """
        started = time.perf_counter()
        try:
            path = self._cone_path(digest)
            try:
                _chaos.get_chaos().io_error(where=f"cache.get {CONE_KIND}")
                entry = _read_json(path)
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
                if (entry["kind"], entry["cone"]) != (CONE_KIND, digest):
                    raise ValueError("entry recorded under another digest")
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
        (and force a retry of) the surrounding design.  A stored entry
        is the resume state of its bit; the chaos ``crash_worker``
        site fires right after it.
        """
        path = self._cone_path(digest)
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
            os.makedirs(os.path.dirname(path), exist_ok=True)
            replaced = self._size_before_write(path)
            chaos = _chaos.get_chaos()
            chaos.io_error(where=f"cache.put {CONE_KIND}")
            payload = json.dumps(entry, **_ENTRY_FORMAT).encode("utf-8")
            payload = chaos.corrupt(payload, key=f"{CONE_KIND}:{digest}")
            atomic_write_bytes(path, payload)
        except OSError:
            return Path(path)
        _telemetry.current().counter("cache.put")
        self._after_budgeted_write(path, replaced)
        # Post-write crash site: the bit is durably stored, so a killed
        # worker demonstrably resumes past it.
        chaos.crash()
        return Path(path)

    def cone_compiled_path_for(
        self, digest: str, engine: str, schema: Optional[int]
    ) -> Path:
        """Location of one engine's compiled fragment for a cone.

        Like :meth:`compiled_path_for`, the engine and its compile
        schema are part of the file name, so a schema bump retires
        that engine's fragments without touching the cone results.
        """
        return Path(
            f"{self._dir}/{CONE_KIND}/{digest[:2]}/"
            f"{digest}.{engine}.s{schema}.bin"
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

    def extraction_summary_path(self, key) -> Path:
        """Location of an extraction's verdict sidecar."""
        return Path(_sidecar_of(
            self._entry_path("extraction", self.fingerprint(key))
        ))

    def _put_sidecar(
        self, path: str, fields: Dict[str, Any], entry: bytes
    ) -> None:
        """Write the verdict sidecar of the main entry ``path``, bound
        to the entry bytes ``entry`` (best-effort: without a sidecar a
        lookup decodes the main entry)."""
        sidecar = {name: fields[name] for name in _VERDICT_FIELDS}
        sidecar["schema"] = CACHE_SCHEMA_VERSION
        sidecar["digest"] = hashlib.sha256(entry).hexdigest()
        try:
            atomic_write_text(
                _sidecar_of(path), json.dumps(sidecar, sort_keys=True)
            )
        except OSError:
            pass

    def get_extraction_summary(
        self, key, *, entry_path: Optional[str] = None
    ) -> Optional[Dict[str, Any]]:
        """The verdict sidecar of a stored extraction, or None.

        Holds ``modulus``/``m``/``irreducible``/``member_bits`` and the
        ``digest`` of the main entry it was written with (absent in
        sidecars of earlier versions).  Only :meth:`get_verdict`, which
        checks that binding, may serve it, and passes the main entry's
        path as ``entry_path``.  A sidecar that is not a JSON object, or
        whose fields are mistyped or inconsistent, is quarantined and
        read as None; one of another schema is None.
        """
        if entry_path is None:
            entry_path = self._entry_path("extraction", self.fingerprint(key))
        path = _sidecar_of(entry_path)
        try:
            data = _read_json(path)
        except OSError:
            return None
        except ValueError:  # not JSON, or not UTF-8
            data = None
        if isinstance(data, dict) and (
            data.get("schema") != CACHE_SCHEMA_VERSION
        ):
            return None
        try:
            # Unparsed (None) and non-object sidecars raise here too.
            _check_verdict(data)
        except _MALFORMED:
            self._quarantine_corrupt("extraction", path)
            return None
        return data

    def get_verdict(self, key) -> Optional[ExtractionVerdict]:
        """Algorithm 2's answer for a stored extraction, or None (a miss).

        Served from the verdict sidecar when the main entry hashes to
        the sidecar's digest and begins with the sidecar's fields, so
        no expression is decoded.  Otherwise (no sidecar, one without a
        digest, a main entry rewritten since) the main entry is decoded
        as by :meth:`get_extraction`, which quarantines a corrupt one,
        and a sidecar bound to it is written for the next lookup.  A
        sidecar whose digest matches but whose fields do not is
        quarantined.  Counts, times and fails (chaos site ``cache.get
        extraction``) like :meth:`get`.
        """
        started = time.perf_counter()
        try:
            fingerprint = self.fingerprint(key)
            path = self._entry_path("extraction", fingerprint)
            data = self._read_entry("extraction", path)
            verdict = (
                None if data is None
                else self._verdict_of_entry(fingerprint, path, data)
            )
            self._count_lookup(verdict is not None)
            return verdict
        finally:
            _telemetry.current().observe(
                "cache.lookup", time.perf_counter() - started
            )

    def _verdict_of_entry(
        self, fingerprint: str, path: str, data: bytes
    ) -> Optional[ExtractionVerdict]:
        sidecar = self.get_extraction_summary(fingerprint, entry_path=path)
        if sidecar is not None and (
            sidecar.get("digest") == hashlib.sha256(data).hexdigest()
        ):
            if _begins_with(data, fingerprint, sidecar):
                return ExtractionVerdict(
                    **{name: sidecar[name] for name in _VERDICT_FIELDS},
                    source=data,
                )
            self._quarantine_corrupt("extraction", _sidecar_of(path))
        result = self._decode("extraction", fingerprint, path, data)
        if result is None:
            return None
        fields = {
            "modulus": result.modulus,
            "m": result.m,
            "irreducible": result.irreducible,
            "member_bits": list(result.member_bits),
        }
        # Only an entry in put's own layout can serve a later lookup.
        if _begins_with(data, fingerprint, fields):
            self._put_sidecar(path, fields, data)
        return ExtractionVerdict(**fields, source=result)

    def get_verification(self, key) -> Optional[VerificationReport]:
        return self.get("verification", key)

    def put_verification(self, key, report: VerificationReport) -> None:
        self.put("verification", key, report)

    def get_diagnosis(self, key) -> Optional[Diagnosis]:
        return self.get("diagnosis", key)

    def put_diagnosis(self, key, diagnosis: Diagnosis) -> None:
        self.put("diagnosis", key, diagnosis)

    # -- stats / maintenance --------------------------------------------

    def _artifact_files(self) -> Iterator[Tuple[str, Path]]:
        """Every budgeted artifact file as ``(kind, path)`` — the JSON
        kinds plus the compiled-program blobs.  An extraction entry's
        verdict sidecar is not listed: it counts and is evicted with
        its main entry.  File-fingerprint memos are deliberately
        excluded (tiny, and rebuilding one costs a re-parse, not a
        re-extraction)."""
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
            disk_bytes += _sidecar_bytes(kind, path)
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
        any other artifact; an extraction's verdict sidecar counts and
        goes with its main entry, and a sidecar whose main entry is
        gone is deleted.  File-fingerprint memos are not counted and
        not evicted.  Returns the eviction count.
        """
        if max_entries is None:
            max_entries = self.max_entries
        if max_bytes is None:
            max_bytes = self.max_bytes
        _check_budgets(max_entries=max_entries, max_bytes=max_bytes)
        if max_entries is None and max_bytes is None:
            return 0
        aged: List[Tuple[int, int, Path, str]] = []
        for kind, path in self._artifact_files():
            try:
                stat = path.stat()
            except OSError:
                continue  # concurrently evicted by another writer
            size = stat.st_size + _sidecar_bytes(kind, path)
            aged.append((stat.st_mtime_ns, size, path, kind))
        aged.sort(key=lambda item: (item[0], item[2]))
        kept_count = len(aged)
        kept_bytes = sum(size for _, size, _, _ in aged)
        removed = 0
        for _, size, path, kind in aged:
            over_entries = (
                max_entries is not None and kept_count > max_entries
            )
            over_bytes = max_bytes is not None and kept_bytes > max_bytes
            if not (over_entries or over_bytes):
                break
            # A failed unlink was a concurrent eviction: budget-wise
            # the entry is gone either way.
            removed += _unlink(path)
            if kind == "extraction":
                _unlink(path.with_suffix(".sum"))
            kept_count -= 1
            kept_bytes -= size
        extraction_dir = self.version_dir / "extraction"
        if extraction_dir.is_dir():
            for sidecar in extraction_dir.rglob("*.sum"):
                if not sidecar.with_suffix(".json").exists():
                    _unlink(sidecar)
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
