"""The request pipeline the batch runner, the HTTP API and ECO share.

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
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

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
NETLIST_READERS: Dict[str, Callable[[Path], Netlist]] = {
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


@dataclass
class ModeOutcome:
    """What one run of a mode produced."""

    #: The extraction (extract/audit; diagnose keeps its own inside
    #: :attr:`diagnosis`).
    extraction: Any = None
    #: The golden-model report (audit only).
    verification: Any = None
    #: The triage verdict (diagnose only).
    diagnosis: Any = None
    #: Cache provenance: ``hit`` (every artifact cached), ``miss``,
    #: ``partial`` (audit: extraction cached, verdict computed) or
    #: ``off`` (no cache).
    cache: str = "off"
    #: Bits served from the per-cone cache; set only when this call
    #: extracted (for diagnose: only with a cache).
    cones_reused: Optional[int] = None
    #: Bits resumed from a checkpoint (extract/audit only).
    resumed_bits: Optional[int] = None

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
    checkpoint: bool = False,
    deadline=None,
    progress=None,
) -> ModeOutcome:
    """Run ``mode`` on one netlist: cached artifacts first, then compute.

    ``load()`` returns the parsed netlist and is called only when
    something must be computed, so a fully cached request never
    parses.  ``fingerprint`` keys every whole-netlist cache entry;
    ``cache`` (a :class:`~repro.service.cache.ResultCache`, or None)
    also serves the per-cone tier to the extraction.
    ``checkpoint=True`` (with a cache) extracts through
    :func:`~repro.service.jobs.checkpointed_extract`, so a killed run
    resumes mid-netlist; the checkpoint is dropped only once the
    result is stored.  ``deadline`` (a
    :class:`~repro.service.resilience.Deadline`) is checked on entry
    and at every checkpoint persist.  ``progress`` is the per-bit
    ``on_result`` hook of an un-checkpointed extraction.

    Diagnose runs without ``term_limit``: its verdict is cached by
    fingerprint alone, and a stored memory-out verdict would answer
    later unbounded requests.
    """
    from repro.extract.diagnose import diagnose
    from repro.extract.extractor import multiplier_field_size, result_from_run
    from repro.extract.verify import verify_multiplier
    from repro.rewrite.parallel import extract_expressions
    from repro.service.jobs import checkpointed_extract

    if deadline is not None:
        deadline.check()
    outcome = ModeOutcome(cache="off" if cache is None else "miss")
    if mode == "diagnose":
        diagnosis = cache.get_diagnosis(fingerprint) if cache else None
        if diagnosis is not None:
            outcome.cache = "hit"
        else:
            diagnosis = diagnose(load(), engine=engine, cache=cache)
            if cache is not None:
                cache.put_diagnosis(fingerprint, diagnosis)
                if diagnosis.extraction is not None:
                    outcome.cones_reused = _cones_reused(
                        diagnosis.extraction.run
                    )
        outcome.diagnosis = diagnosis
        return outcome

    # extract / audit share the extraction phase
    result = cache.get_extraction(fingerprint) if cache else None
    if result is not None:
        outcome.cache = "hit"
    outcome.resumed_bits = 0
    if result is None:
        netlist = load()
        m = multiplier_field_size(netlist)
        options = dict(
            outputs=[f"z{i}" for i in range(m)],
            engine=engine,
            term_limit=term_limit,
            cache=cache,
        )
        sharded = None
        if checkpoint and cache is not None:
            # keep_checkpoint: the checkpoint may only die once the
            # result is durably in the cache — a kill between discard
            # and put would lose every bit.
            sharded = checkpointed_extract(
                netlist,
                checkpoint_dir=cache.jobs_dir(),
                fingerprint=fingerprint,
                keep_checkpoint=True,
                deadline=deadline,
                **options,
            )
            run = sharded.run
            outcome.resumed_bits = len(sharded.resumed_bits)
        else:
            run = extract_expressions(netlist, on_result=progress, **options)
        outcome.cones_reused = _cones_reused(run)
        result = result_from_run(run, m, total_time_s=run.wall_time_s)
        if cache is not None:
            cache.put_extraction(fingerprint, result)
        if sharded is not None:  # result is durable now; checkpoint may go
            sharded.checkpoint_path.unlink(missing_ok=True)
    outcome.extraction = result

    if mode == "audit":
        report = cache.get_verification(fingerprint) if cache else None
        if report is None:
            if outcome.cache == "hit":
                outcome.cache = "partial"
            report = verify_multiplier(load(), result, engine=engine)
            if cache is not None:
                cache.put_verification(fingerprint, report)
        outcome.verification = report
    return outcome


def cached_outcome(
    cache, mode: str, fingerprint: str
) -> Optional[ModeOutcome]:
    """A mode's outcome from cached artifacts alone (lookups only).

    None unless every artifact the mode needs is cached — for audit,
    the extraction *and* its verdict.
    """
    if mode == "diagnose":
        diagnosis = cache.get_diagnosis(fingerprint)
        if diagnosis is None:
            return None
        return ModeOutcome(diagnosis=diagnosis, cache="hit")
    result = cache.get_extraction(fingerprint)
    if result is None:
        return None
    outcome = ModeOutcome(extraction=result, cache="hit")
    if mode == "audit":
        outcome.verification = cache.get_verification(fingerprint)
        if outcome.verification is None:
            return None
    return outcome


@dataclass
class NetlistFile:
    """A netlist file, parsed at most once (see :func:`fingerprint_file`)."""

    path: Path
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
            self.netlist = NETLIST_READERS[self.path.suffix](self.path)
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
    source = NetlistFile(Path(path))
    memo = cache.file_fingerprint(path)
    if memo is not None and isinstance(memo.get("cones"), dict):
        source.fingerprint, source.cones = memo["fingerprint"], memo["cones"]
        source.gates = memo.get("gates")
        return source
    stat = os.stat(source.path)  # before the read: overwrite-safe
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
