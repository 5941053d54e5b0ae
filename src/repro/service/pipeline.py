"""The request pipeline the CLI verbs, batch, HTTP and ECO share.

The paper's flow is one pipeline: rewrite every output cone
(Algorithm 1), read P(x) off the out-field products (Algorithm 2),
then check the implementation against the golden model.  A *mode*
picks how far it goes: ``extract``, ``audit`` (extract + verify) or
``diagnose`` (:func:`repro.extract.diagnose.diagnose`).  This module
decides which cached artifacts a mode needs, in what order to look
them up, and when to write them; each caller keeps its own output
shape, supervision and cancellation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Optional, Tuple, Union

import repro.netlist
from repro.netlist.netlist import Netlist
from repro.service.fingerprint import (
    fingerprint_with_cones,
    remember_fingerprint,
)


def _reader(name: str) -> Callable[[Any], Netlist]:
    """The ``repro.netlist`` function ``name``, loaded on its first call."""

    def read(source) -> Netlist:
        return getattr(repro.netlist, name)(source)

    return read


#: File suffix → reader.  A format's parser loads with the first file
#: of that format, so a service that reads only EQN never imports the
#: BLIF or Verilog reader.
NETLIST_READERS: Dict[str, Callable[[Any], Netlist]] = {
    ".eqn": _reader("read_eqn"),
    ".blif": _reader("read_blif"),
    ".v": _reader("read_verilog"),
}

#: Submission ``format`` → text parser, loaded the same way.
NETLIST_PARSERS: Dict[str, Callable[[str], Netlist]] = {
    "eqn": _reader("parse_eqn"),
    "blif": _reader("parse_blif"),
    "v": _reader("parse_verilog"),
}

MODES = ("extract", "audit", "diagnose")


def split_name(path: Union[str, os.PathLike]) -> Tuple[str, str]:
    """``(stem, suffix)`` of ``path``'s file name, split as
    :class:`pathlib.PurePath` splits it, without building one."""
    name = os.path.basename(os.fspath(path).rstrip(os.sep))
    dot = name.rfind(".")
    if 0 < dot < len(name) - 1:
        return name[:dot], name[dot:]
    return name, ""


@dataclass
class ModeOutcome:
    """What one run of a mode produced."""

    #: The extraction (extract/audit; diagnose keeps its own inside
    #: :attr:`diagnosis`): an ``ExtractionResult`` when this call
    #: extracted it or decoded it to verify, else the cache's
    #: :class:`~repro.service.cache.ExtractionVerdict`.
    extraction: Any = None
    #: The golden-model report (audit only).
    verification: Any = None
    #: The triage verdict (diagnose only).
    diagnosis: Any = None
    #: Cache provenance: ``hit`` (every artifact cached), ``miss``,
    #: ``partial`` (audit: extraction cached, verdict computed) or
    #: ``off`` (no cache).
    cache: str = "off"
    #: Bits served from the per-cone cache, the bits an interrupted
    #: earlier attempt finished among them; set only when this call
    #: extracted (for diagnose: only with a cache).
    cones_reused: Optional[int] = None

    def fields(self) -> Dict[str, Any]:
        """The verdict fields of a report on this outcome (the batch
        record's set; the HTTP summary narrows it).  Cache provenance
        is left to the caller."""
        fields: Dict[str, Any] = {}
        if self.cones_reused is not None:
            fields["cones_reused"] = self.cones_reused
        result = self.extraction
        if self.diagnosis is not None:
            fields["verdict"] = self.diagnosis.verdict.value
            fields["clean"] = self.diagnosis.is_clean
            result = self.diagnosis.extraction
        if result is not None:
            fields["m"] = result.m
            fields["polynomial"] = result.polynomial_str
            fields["irreducible"] = result.irreducible
            if self.diagnosis is None:
                fields["member_bits"] = result.member_bits
        if self.verification is not None:
            fields["equivalent"] = self.verification.equivalent
            fields["simulation_vectors"] = self.verification.simulation_vectors
        return fields


def _cones_reused(run) -> int:
    """Bits of an extraction run served from the per-cone cache."""
    return sum(o == "cone_hit" for o in run.cache_provenance.values())


def run_mode(
    mode: str,
    load: Callable[[], Netlist],
    fingerprint: Optional[str],
    cache,
    *,
    engine: str,
    term_limit: Optional[int] = None,
    find_counterexample: bool = True,
    deadline=None,
    progress=None,
    cached: Optional[ModeOutcome] = None,
) -> ModeOutcome:
    """Run ``mode`` on one netlist: cached artifacts first, then compute.

    ``load()`` returns the parsed netlist and is called only when
    something must be computed, so a fully cached request never
    parses.  ``fingerprint`` keys every whole-netlist cache entry;
    ``cache`` (a :class:`~repro.service.cache.ResultCache`, or None)
    also serves the per-cone tier to the extraction.  ``cached`` is
    what :func:`cached_outcome` already found for this request (a
    caller that looked first passes it on); without it the lookups
    happen here, so every artifact is looked up once per request.

    Every mode's extraction, diagnose's among them, is one phase: the
    verdict tier, then the per-bit service hook
    (:func:`~repro.service.jobs.checkpointed_extract`), which stores
    each cone as its bit completes, then the extraction entry.  A
    killed, cancelled or term-limited run resumes its finished bits
    as cone hits.  ``deadline`` (a
    :class:`~repro.service.resilience.Deadline`) is checked on entry
    and at every bit; ``progress`` is called with ``(output, cone,
    stats)`` at every bit.  A squarer's diagnosis rewrites its bits in
    its own loop, without the hook.

    A request with a ``term_limit`` is served nothing from the
    diagnosis, verdict, extraction or cone tiers: a stored answer says
    nothing about whether rewriting fits under the limit, so the same
    request answers the same on a warm and a cold cache.  An extract
    or audit stores what any run stores; an unbounded rerun resumes
    from its cones.  A diagnose under a limit stores only its cones,
    as its diagnosis (memory-out, say) would answer later unbounded
    requests; nor is a ``find_counterexample=False`` one stored.
    """
    from repro.extract.diagnose import diagnose
    from repro.extract.extractor import multiplier_field_size, result_from_run
    from repro.extract.verify import verify_multiplier
    from repro.service.jobs import checkpointed_extract

    if deadline is not None:
        deadline.check()
    if cached is None:
        cached = (
            ModeOutcome() if cache is None
            else cached_outcome(cache, mode, fingerprint, term_limit)
        )
    if cached.cache == "hit":
        return cached
    # A copy: a retried attempt starts again from what the cache held.
    outcome = replace(cached)
    # Whether extract() answered from the verdict tier: then this call
    # rewrote nothing and reports no cones_reused.
    served = False
    # Whether whole-netlist entries are read and written (see above).
    keyed = cache is not None and (mode != "diagnose" or term_limit is None)

    def extract(netlist: Netlist, term_limit=None, engine=engine):
        """The extraction phase of every mode; diagnose runs it as
        ``diagnose(extract=)``.  Extract and audit looked the verdict
        tier up in :func:`cached_outcome`, diagnose looks it up here."""
        nonlocal served
        verdict = outcome.extraction
        if verdict is None and mode == "diagnose" and keyed:
            verdict = cache.get_verdict(fingerprint)
        if verdict is not None:
            served = True
            return verdict.result()
        m = multiplier_field_size(netlist)
        run = checkpointed_extract(
            netlist,
            fingerprint=fingerprint,
            progress=progress,
            deadline=deadline,
            outputs=[f"z{i}" for i in range(m)],
            engine=engine,
            term_limit=term_limit,
            cache=cache,
        )
        result = result_from_run(run, m, total_time_s=run.wall_time_s)
        if keyed:
            cache.put_extraction(fingerprint, result)
        return result

    if mode == "diagnose":
        diagnosis = diagnose(
            load(), term_limit=term_limit, engine=engine, extract=extract,
            find_counterexample=find_counterexample,
        )
        if keyed and find_counterexample:
            cache.put_diagnosis(fingerprint, diagnosis)
        if (
            cache is not None and diagnosis.extraction is not None
            and not served
        ):
            outcome.cones_reused = _cones_reused(diagnosis.extraction.run)
        outcome.diagnosis = diagnosis
        return outcome

    # An extract reaches here on a miss; an audit also on a cached
    # extraction whose golden-model verdict is not cached (partial).
    outcome.extraction = extract(load(), term_limit=term_limit)
    if not served:
        outcome.cones_reused = _cones_reused(outcome.extraction.run)
        if mode == "audit" and cache is not None:
            outcome.verification = _verification(
                cache, fingerprint, outcome.extraction
            )
    if mode == "audit" and outcome.verification is None:
        outcome.verification = verify_multiplier(
            load(), outcome.extraction, engine=engine
        )
        if cache is not None:
            cache.put_verification(fingerprint, outcome.verification)
    return outcome


def _verification(cache, fingerprint: str, result):
    """The cached golden-model report on ``result``'s P(x), or None.

    A stored report whose ``modulus`` or ``irreducible`` differs from
    the extraction's is a verdict on another polynomial, so it is not
    served: the audit recomputes it.
    """
    report = cache.get_verification(fingerprint)
    if report is not None and (report.modulus, report.irreducible) != (
        result.modulus,
        result.irreducible,
    ):
        return None
    return report


def cached_outcome(
    cache, mode: str, fingerprint: str, term_limit: Optional[int] = None
) -> ModeOutcome:
    """What the cache holds for ``mode`` (lookups only).

    ``cache`` is ``hit`` when every artifact the mode needs is cached,
    ``partial`` for an audit whose extraction is cached but whose
    golden-model verdict is not (the outcome keeps the extraction),
    else ``miss``.  An audit's verdict is looked up only beside a
    cached extraction, the P(x) it must be a verdict on; after a fresh
    extraction :func:`run_mode` looks it up.  A request under a
    ``term_limit`` is always a ``miss`` (see :func:`run_mode`).
    """
    if term_limit is not None:
        return ModeOutcome(cache="miss")
    if mode == "diagnose":
        diagnosis = cache.get_diagnosis(fingerprint)
        return ModeOutcome(
            diagnosis=diagnosis, cache="miss" if diagnosis is None else "hit"
        )
    result = cache.get_verdict(fingerprint)
    if result is None:
        return ModeOutcome(cache="miss")
    outcome = ModeOutcome(extraction=result, cache="hit")
    if mode == "audit":
        outcome.verification = _verification(cache, fingerprint, result)
        if outcome.verification is None:
            outcome.cache = "partial"
    return outcome


@dataclass
class NetlistFile:
    """A netlist file, parsed at most once (see :func:`fingerprint_file`)."""

    path: Union[str, os.PathLike]
    fingerprint: Optional[str] = None
    #: Per-output-cone Merkle digests.
    cones: Optional[Dict[str, str]] = None
    gates: Optional[int] = None
    #: The parsed netlist; None until something needed it.
    netlist: Optional[Netlist] = None

    def load(self) -> Netlist:
        """The parsed netlist (the ``load`` argument of :func:`run_mode`).

        A netlist parsed after a file-memo hit gets the memo's
        fingerprint and cone digests seeded, so keyed cache accesses
        never strash it again.
        """
        if self.netlist is None:
            suffix = split_name(self.path)[1]
            self.netlist = NETLIST_READERS[suffix](self.path)
            if self.fingerprint is not None:
                remember_fingerprint(
                    self.netlist, self.fingerprint, self.cones
                )
        return self.netlist


def fingerprint_file(path: Union[str, os.PathLike], cache) -> NetlistFile:
    """Fingerprint, cone digests and gate count of a netlist file.

    When the cache's stat-validated file memo already holds the cone
    digests (any prior campaign or ECO visit recorded them), the file
    is not opened: a repeated request on an unchanged file parses only
    if something must be computed.  Otherwise the file is parsed once,
    one AIG lowering yields the fingerprint *and* every cone digest,
    and both are memoized for the next visit.  The caller checks the
    suffix against :data:`NETLIST_READERS`.
    """
    source = NetlistFile(path)
    memo = cache.file_fingerprint(path)
    if memo is not None and isinstance(memo.get("cones"), dict):
        source.fingerprint, source.cones = memo["fingerprint"], memo["cones"]
        source.gates = memo.get("gates")
        return source
    stat = os.stat(path)  # before the read: overwrite-safe
    netlist = source.load()
    source.fingerprint, source.cones = fingerprint_with_cones(netlist)
    source.gates = len(netlist)
    cache.remember_file(
        path,
        source.fingerprint,
        gates=source.gates,
        stat=stat,
        cones=source.cones,
    )
    return source
