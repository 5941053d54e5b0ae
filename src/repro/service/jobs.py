"""Checkpointable per-output-bit extraction jobs.

Theorem 2 makes each output bit an independent shard of the extraction
job.  This module persists shard completions as they happen, so a
killed process (OOM-killer mid-campaign, pre-empted batch node,
Ctrl-C) resumes from the completed bits instead of recomputing them —
and, because each bit's canonical expression is *unique* (Theorem 1),
the resumed run is bit-identical to an uninterrupted one regardless of
which engine computed which bit.

A checkpoint is one JSONL file: a header line (fingerprint, engine,
term limit, schema) plus one appended record per completed bit, so
checkpointing cost is O(bits), not O(bits²) — each append is a single
``write()`` and a torn final line is simply skipped on load.  The
checkpoint is keyed by the netlist fingerprint plus the term limit
(memory-out behaviour is limit-specific); the *engine* is recorded
for provenance only and deliberately does **not** invalidate —
canonical expressions are backend-independent (Theorem 1), so a job
started under one backend resumes under any other.

The flow::

    run = checkpointed_extract(netlist, jobs=4, engine="bitpack",
                               checkpoint_dir=cache.jobs_dir())
    # ... killed at bit 17/32?  Run the same call again: bits 0..16
    # load from the checkpoint, 17..31 are computed, and the
    # checkpoint file is deleted once the run completes.

**Durability tradeoff.** By default each appended record is a single
buffered ``write()`` + ``flush()`` — that survives any *process* death
(SIGKILL, OOM-kill, ``os._exit``) because the data reaches the page
cache before the append returns, but a power loss or kernel panic can
still lose the most recent records the kernel had not written back
yet.  Setting ``REPRO_CHECKPOINT_FSYNC=1`` adds an ``fsync`` after
every append, upgrading the guarantee to power-loss durability at the
cost of one disk flush per completed bit — on spinning disks or
``fsync``-honest filesystems that can dominate small-cone extraction
time, which is why it is opt-in.  The header write always fsyncs, as
all ``atomic_write_*`` paths do.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro import chaos as _chaos
from repro import telemetry as _telemetry
from repro.engine import DEFAULT_ENGINE
from repro.engine.reference import ReferenceExpression
from repro.ioutil import atomic_append_line, atomic_write_text
from repro.netlist.netlist import Netlist
from repro.rewrite.backward import RewriteStats
from repro.rewrite.parallel import (
    ExtractionRun,
    LazyExpressions,
    extract_expressions,
)
from repro.service.cache import stats_from_json, stats_to_json
from repro.service.fingerprint import fingerprint_netlist

#: Bump on any change to the checkpoint layout.
CHECKPOINT_SCHEMA = 1

#: Opt-in power-loss durability: fsync every checkpoint append.
CHECKPOINT_FSYNC_ENV = "REPRO_CHECKPOINT_FSYNC"


def _fsync_appends() -> bool:
    return os.environ.get(CHECKPOINT_FSYNC_ENV, "").strip().lower() in (
        "1",
        "true",
        "yes",
        "on",
    )

#: Output bits per fused substitution sweep (``fused=True``): each
#: sweep-chunk is one multi-root engine call and its completions are
#: checkpointed together, so a kill loses at most one chunk's work.
FUSED_CHUNK_BITS = 16


@dataclass
class ExtractionCheckpoint:
    """The persisted state of one sharded extraction job.

    ``bits`` maps a completed output net to its canonical expression,
    in the ``poly_to_json`` form the line stores, and its rewrite
    statistics — engine-neutral, so a job started under one backend
    can resume under another.  On disk the checkpoint is JSONL
    (header + one record per bit): recording a bit appends one line
    instead of rewriting every earlier bit.
    """

    path: Path
    fingerprint: str
    engine: str
    term_limit: Optional[int]
    bits: Dict[str, Tuple[List[List[str]], RewriteStats]] = field(
        default_factory=dict
    )
    _header_written: bool = False

    def _header(self) -> Dict[str, Any]:
        return {
            "schema": CHECKPOINT_SCHEMA,
            "fingerprint": self.fingerprint,
            "engine": self.engine,
            "term_limit": self.term_limit,
        }

    @staticmethod
    def _bit_line(
        output: str, expression: List[List[str]], stats: RewriteStats
    ) -> str:
        return json.dumps(
            {
                "output": output,
                "expression": expression,
                "stats": stats_to_json(stats),
            },
            sort_keys=True,
        )

    @classmethod
    def load(
        cls,
        path: Union[str, os.PathLike],
        fingerprint: str,
        engine: str,
        term_limit: Optional[int],
    ) -> "ExtractionCheckpoint":
        """Load a checkpoint, discarding mismatched/corrupt state.

        A checkpoint recorded for a different netlist, schema or term
        limit starts fresh; a matching one resumes.  (The engine is
        recorded for provenance but does not invalidate — canonical
        expressions are backend-independent.)  A torn trailing line
        (killed mid-append) loses only that bit.
        """
        checkpoint = cls(
            path=Path(path),
            fingerprint=fingerprint,
            engine=engine,
            term_limit=term_limit,
        )
        try:
            with open(path, "r", encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        except OSError:
            return checkpoint
        if not lines:
            return checkpoint
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError:
            return checkpoint
        if (
            not isinstance(header, dict)
            or header.get("schema") != CHECKPOINT_SCHEMA
            or header.get("fingerprint") != fingerprint
            or header.get("term_limit") != term_limit
        ):
            return checkpoint
        checkpoint._header_written = True
        for line in lines[1:]:
            try:
                entry = json.loads(line)
                checkpoint.bits[entry["output"]] = (
                    entry["expression"],
                    stats_from_json(entry["stats"]),
                )
            except (ValueError, KeyError, TypeError):
                continue  # torn append from a kill; the bit re-runs
        return checkpoint

    def completed(self) -> List[str]:
        return sorted(self.bits)

    def record(
        self,
        output: str,
        expression: List[List[str]],
        stats: RewriteStats,
    ) -> None:
        """Persist one completed shard (one appended line).

        ``expression`` is the cone's memoized
        :meth:`~repro.engine.base.ConeExpression.to_json` form.
        """
        chaos = _chaos.get_chaos()
        chaos.io_error(where=f"checkpoint append {self.path.name}")
        self.bits[output] = (expression, stats)
        if not self._header_written:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_text(
                self.path, json.dumps(self._header(), sort_keys=True) + "\n"
            )
            self._header_written = True
        atomic_append_line(
            self.path,
            self._bit_line(output, expression, stats),
            fsync=_fsync_appends(),
        )
        # Post-append crash site: the bit is durably recorded, so a
        # killed worker demonstrably resumes past it.
        chaos.crash()

    def discard(self) -> None:
        """Remove the checkpoint file (job completed or abandoned)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
        self._header_written = False


def checkpoint_path_for(
    directory: Union[str, os.PathLike],
    fingerprint: str,
    term_limit: Optional[int],
) -> Path:
    """Canonical checkpoint location for a job's parameters.

    The engine is deliberately *not* part of the name: checkpointed
    expressions are engine-neutral, so a campaign killed under one
    backend must resume under any other.  The term limit *is* part of
    the name (and validated on load) because memory-out behaviour is
    limit-specific.
    """
    suffix = f".t{term_limit}" if term_limit is not None else ""
    return Path(directory) / f"{fingerprint}{suffix}.jsonl"


#: Result wrapper naming which bits were resumed vs freshly computed.
@dataclass
class CheckpointedExtraction:
    run: ExtractionRun
    resumed_bits: List[str]
    computed_bits: List[str]
    checkpoint_path: Path


def checkpointed_extract(
    netlist: Netlist,
    outputs: Optional[List[str]] = None,
    jobs: int = 1,
    term_limit: Optional[int] = None,
    engine: str = DEFAULT_ENGINE,
    checkpoint_path: Optional[Union[str, os.PathLike]] = None,
    checkpoint_dir: Optional[Union[str, os.PathLike]] = None,
    keep_checkpoint: bool = False,
    fingerprint: Optional[str] = None,
    cache=None,
    fused: bool = False,
    fused_chunk: int = FUSED_CHUNK_BITS,
    telemetry=None,
    deadline=None,
) -> CheckpointedExtraction:
    """:func:`~repro.rewrite.parallel.extract_expressions` with resume.

    Exactly one of ``checkpoint_path`` / ``checkpoint_dir`` decides
    where the job state lives (a directory derives the canonical name
    from the netlist fingerprint; pass ``fingerprint`` if the caller
    already computed it).  Completed bits load from the checkpoint;
    the rest are extracted with the per-bit hook persisting each
    completion.  On success the checkpoint is deleted, unless
    ``keep_checkpoint`` or it still holds bits outside ``outputs``.

    ``cache`` is forwarded to
    :func:`~repro.rewrite.parallel.extract_expressions`, so the bits
    not resumed are served from its per-cone tier where possible; the
    run's :attr:`~repro.rewrite.parallel.ExtractionRun.cache_provenance`
    records ``"checkpoint"`` for resumed bits beside the partition's
    ``"cone_hit"``/``"computed"``.

    ``fused=True`` extracts through the engines' fused multi-cone
    sweep instead of the per-bit fork pool; the remaining bits are
    grouped into sweep-chunks of ``fused_chunk`` outputs, each chunk
    runs as one fused pass and checkpoints its completions together —
    a kill loses at most one chunk, and the checkpoint format is
    unchanged, so fused and per-bit runs resume each other freely.
    The chunks share one compile.

    The assembled run reports only the *fresh* wall/cpu time (resumed
    bits cost nothing now — that is the point), but per-bit stats are
    preserved across the kill, so Figure-4 series stay complete.

    ``telemetry`` selects the registry progress lands in (default:
    the active one): every completed bit updates the
    ``job.<fingerprint>.done_bits`` gauge — the progress ticks that
    ``GET /jobs/<id>/progress`` reads — and each fused sweep-chunk is
    its own ``sweep`` span.

    ``deadline`` (a :class:`repro.service.resilience.Deadline`) is
    checked cooperatively at every persist — i.e. at bit/chunk
    granularity, the natural yield points — so a budgeted job stops
    *between* durable completions and the checkpoint resumes exactly
    the work already paid for.
    """
    chosen = list(outputs) if outputs is not None else list(netlist.outputs)
    if fingerprint is None:
        fingerprint = fingerprint_netlist(netlist)
    if checkpoint_path is None:
        if checkpoint_dir is None:
            raise ValueError(
                "checkpointed_extract needs checkpoint_path or "
                "checkpoint_dir"
            )
        checkpoint_path = checkpoint_path_for(
            checkpoint_dir, fingerprint, term_limit
        )
    checkpoint = ExtractionCheckpoint.load(
        checkpoint_path, fingerprint, engine, term_limit
    )

    resumed = [output for output in chosen if output in checkpoint.bits]
    remaining = [output for output in chosen if output not in checkpoint.bits]

    cones: Dict[str, ReferenceExpression] = {}
    stats: Dict[str, RewriteStats] = {}
    provenance: Dict[str, str] = {}
    for output in resumed:
        expression, bit_stats = checkpoint.bits[output]
        cones[output] = ReferenceExpression.from_json(expression)
        stats[output] = bit_stats
        provenance[output] = "checkpoint"

    tel = _telemetry.resolve(telemetry)
    done_gauge = f"job.{fingerprint[:12]}.done_bits"
    tel.gauge(done_gauge, len(resumed))
    tel.gauge(f"job.{fingerprint[:12]}.total_bits", len(chosen))

    if remaining:
        def persist(output, cone, bit_stats) -> None:
            checkpoint.record(output, cone.to_json(), bit_stats)
            tel.counter("job.bits_completed")
            tel.gauge(done_gauge, len(checkpoint.bits))
            if deadline is not None:
                deadline.check()

        # Fused runs sweep in chunks of ``fused_chunk`` bits, each
        # chunk's completions recorded together at its end.
        fresh = extract_expressions(
            netlist,
            outputs=remaining,
            jobs=jobs,
            term_limit=term_limit,
            engine=engine,
            on_result=persist,
            cache=cache,
            fused=fused,
            telemetry=tel,
            fused_chunk=fused_chunk,
        )
        cones.update(fresh.cones)
        stats.update(fresh.stats)
        provenance.update(fresh.cache_provenance)
        wall, cpu = fresh.wall_time_s, fresh.cpu_time_s
        run_jobs = fresh.jobs
        run_engine = fresh.engine
    else:
        wall = cpu = 0.0
        run_jobs = max(1, min(jobs if jobs else 1, len(chosen)))
        run_engine = engine

    ordered_cones = {output: cones[output] for output in chosen}
    ordered_stats = {output: stats[output] for output in chosen}
    run = ExtractionRun(
        netlist_name=netlist.name,
        expressions=LazyExpressions(ordered_cones),
        stats=ordered_stats,
        jobs=run_jobs,
        wall_time_s=wall,
        cpu_time_s=cpu,
        peak_terms=max(
            (st.peak_terms for st in ordered_stats.values()), default=0
        ),
        engine=run_engine,
        cones=ordered_cones,
        cache_provenance={
            output: provenance[output]
            for output in chosen
            if output in provenance
        },
    )
    # Discard only when this call consumed *everything* the checkpoint
    # holds — a subset-outputs run must not destroy the persisted
    # progress of bits it never asked for.
    if not keep_checkpoint and not (set(checkpoint.bits) - set(chosen)):
        checkpoint.discard()
    return CheckpointedExtraction(
        run=run,
        resumed_bits=resumed,
        computed_bits=remaining,
        checkpoint_path=Path(checkpoint_path),
    )
