"""Batch campaign runner: a directory (or manifest) of netlists through
extract/verify/diagnose on one shared worker pool.

A *campaign* is the serving-shape workload the ROADMAP calls for:
audit N designs, write one JSONL report line per netlist with timing
and cache provenance, survive being killed at any point.  The runner
composes the rest of the service layer:

* every netlist runs the request pipeline of the HTTP API and ECO
  (:func:`repro.service.pipeline.run_mode`): cached artifacts first —
  a repeated campaign over unchanged designs is pure cache traffic —
  and misses extract through checkpointed jobs, so a killed campaign
  resumes mid-netlist, not just mid-directory;
* netlists are sharded over *supervised* worker processes
  (``workers`` forked processes, one per in-flight netlist; each
  extraction rewrites its output bits one after another in its
  worker);
* report lines are appended as results arrive, so a killed campaign
  leaves a valid JSONL prefix.

**Supervision.** Every netlist runs under the
:mod:`repro.service.resilience` tier: a :class:`RetryPolicy` retries
transient failures (with exponential backoff and seeded jitter), a
:class:`Deadline` bounds wall time and RSS, and with ``fallback=True``
an engine that fails at run time degrades down the registry ladder —
recorded per-record as ``engine_used``/``fallback_reason``.  The
multi-worker scheduler is process-per-task with a result pipe per
worker: a worker that dies (SIGKILL, OOM, injected
:mod:`repro.chaos` crash) is *detected* via pipe EOF + process
liveness and its netlist is resubmitted — resuming from the
per-bit checkpoints the dead worker already persisted — instead
of hanging a shared ``imap_unordered``.  A netlist that exhausts its
budget is recorded as ``status: "quarantined"`` (or
``"worker_died"`` when every resubmission crashed) with a structured
reason, and the campaign always completes its report.

Manifest format: a text file with one netlist path per line
(relative paths resolve against the manifest's directory; ``#``
comments allowed).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro import chaos as _chaos
from repro import telemetry as _telemetry
from repro.engine import DEFAULT_ENGINE, get_engine, registered_engines
from repro.ioutil import atomic_append_line, atomic_write_text
from repro.netlist.netlist import GC_PAUSE
from repro.service.pipeline import (
    MODES,
    NETLIST_READERS,
    NetlistFile,
    fingerprint_file,
    run_mode,
)
from repro.service.resilience import (
    Deadline,
    Quarantined,
    RetryPolicy,
    engine_ladder,
    run_supervised,
)

PathLike = Union[str, os.PathLike]


class CampaignError(RuntimeError):
    """The campaign target contains no readable netlists."""


def discover_netlists(target: PathLike) -> List[Path]:
    """Resolve a campaign target to netlist paths.

    A directory is scanned (non-recursively) for ``.eqn``/``.blif``/
    ``.v`` files; a netlist file is a single-design campaign; any
    other file is read as a manifest.
    """
    target = Path(target)
    if target.is_dir():
        paths = sorted(
            path
            for path in target.iterdir()
            if path.suffix in NETLIST_READERS and path.is_file()
        )
        if not paths:
            raise CampaignError(f"no netlists (.eqn/.blif/.v) in {target}")
        return paths
    if not target.exists():
        raise CampaignError(f"campaign target {target} does not exist")
    if target.suffix in NETLIST_READERS:
        return [target]
    paths = []
    for raw in target.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        path = Path(line)
        if not path.is_absolute():
            path = target.parent / path
        paths.append(path)
    if not paths:
        raise CampaignError(f"manifest {target} lists no netlists")
    return paths


# ----------------------------------------------------------------------
# Per-netlist worker (runs in pool processes; must stay module-level)
# ----------------------------------------------------------------------

@GC_PAUSE
def _process_netlist(task: Dict[str, Any]) -> Dict[str, Any]:
    """Audit one netlist; returns the JSON-safe report record.

    Errors are caught and reported as a record, never raised: one
    broken design must not kill a thousand-netlist campaign.  The
    mode runs through :func:`~repro.service.pipeline.run_mode` under
    :func:`run_supervised` — transient failures retry per the task's
    policy, engine failures walk the fallback ladder when enabled, and
    an exhausted budget yields a ``status: "quarantined"`` record with
    a structured reason.  Deterministic failures (parse errors,
    term-limit verdicts, a failing engine without fallback) keep
    their single-attempt ``status: "error"`` record, whose ``cache``
    is ``miss`` whenever a cache is configured.  The whole call runs
    under :data:`~repro.netlist.netlist.GC_PAUSE`.
    """
    from repro.service.cache import ResultCache

    path = Path(task["path"])
    mode = task["mode"]
    engine = task["engine"]
    fallback = bool(task.get("fallback"))
    policy: RetryPolicy = task.get("retry_policy") or RetryPolicy()
    started = time.perf_counter()
    record: Dict[str, Any] = {
        "path": str(path),
        "netlist": path.stem,
        "mode": mode,
        "engine": engine,
        "status": "ok",
        "cache": "off",
    }
    cache = (
        ResultCache(task["cache_dir"]) if task["cache_dir"] is not None
        else None
    )
    # Under a forked campaign pool the worker inherits the coordinator's
    # active registry (and any JSONL sink handle, which appends
    # atomically), so per-netlist spans from every worker land in the
    # same trace; counters stay per-process.
    telemetry = _telemetry.current()
    span = telemetry.span(
        "campaign.netlist", netlist=path.stem, mode=mode, engine=engine
    )
    span.__enter__()
    deadline = Deadline(
        wall_s=task.get("deadline_s"),
        max_rss_bytes=task.get("max_rss_bytes"),
    )
    try:
        if path.suffix not in NETLIST_READERS:
            raise CampaignError(f"unknown netlist format {path.suffix!r}")

        ladder = engine_ladder(engine, fallback=fallback)

        # A warm rerun whose file stat matches the fingerprint memo
        # never parses the netlist unless something must be computed.
        if cache is not None:
            source = fingerprint_file(path, cache)
        else:
            source = NetlistFile(path)
            source.gates = len(source.load())
        record["gates"] = source.gates
        record["fingerprint"] = source.fingerprint

        def work(eng: Optional[str]) -> None:
            # What the record reports if this attempt fails.
            record["cache"] = "off" if cache is None else "miss"
            if mode != "diagnose":
                record["resumed_bits"] = 0
            outcome = run_mode(
                mode,
                source.load,
                source.fingerprint,
                cache,
                engine=eng,
                term_limit=task["term_limit"],
                checkpoint=task["checkpoint"],
                deadline=deadline if deadline.armed else None,
            )
            record.update(outcome.fields(), cache=outcome.cache)
            if outcome.resumed_bits is not None:
                record["resumed_bits"] = outcome.resumed_bits

        with deadline:
            supervised = run_supervised(
                work,
                engines=ladder,
                policy=policy,
                deadline=deadline if deadline.armed else None,
                telemetry=telemetry,
                label=path.stem,
            )
        record["engine_used"] = supervised.engine_used
        if supervised.fallback_reason is not None:
            record["fallback_reason"] = supervised.fallback_reason
        if supervised.attempts > 1:
            record["attempts"] = supervised.attempts
    except Quarantined as poison:
        record["status"] = "quarantined"
        record["reason"] = poison.reason
        record["error"] = poison.reason.get("error")
        telemetry.counter("campaign.errors")
    except Exception as error:  # noqa: BLE001 - campaign must survive
        record["status"] = "error"
        record["error"] = f"{type(error).__name__}: {error}"
        telemetry.counter("campaign.errors")
    span.annotate(status=record["status"], cache=record["cache"])
    span.__exit__(None, None, None)
    telemetry.counter("campaign.netlists")
    record["wall_time_s"] = time.perf_counter() - started
    return record


def _supervised_worker(task: Dict[str, Any], conn) -> None:
    """Child-process entry for one supervised netlist task.

    Enters a chaos scope keyed by netlist × submission attempt, so an
    injected ``crash_worker`` schedule is deterministic per submission
    but *fresh* on resubmission — a crashed-and-resubmitted netlist
    draws new faults instead of replaying the fatal one forever.  The
    scope keys on the file *name*, not the full path, so a seeded
    schedule reproduces across checkouts and temp directories.
    """
    chaos = _chaos.get_chaos()
    chaos.enter_scope(
        f"{Path(task['path']).name}:{task.get('submission', 1)}"
    )
    chaos.crash()  # pre-work crash site: death before any progress
    record = _process_netlist(task)
    try:
        conn.send(record)
        conn.close()
    except (BrokenPipeError, OSError):  # pragma: no cover - parent gone
        pass


@dataclass
class _WorkerHandle:
    process: Any
    conn: Any
    index: int
    task: Dict[str, Any]
    submission: int
    started: float


# ----------------------------------------------------------------------
# The campaign driver
# ----------------------------------------------------------------------

@dataclass
class CampaignReport:
    """Everything a finished campaign produced."""

    records: List[Dict[str, Any]]
    report_path: Optional[Path]
    wall_time_s: float
    mode: str
    engine: str

    @property
    def ok(self) -> int:
        return sum(1 for r in self.records if r["status"] == "ok")

    @property
    def errors(self) -> int:
        return sum(1 for r in self.records if r["status"] != "ok")

    @property
    def quarantined(self) -> int:
        return sum(
            1
            for r in self.records
            if r["status"] in ("quarantined", "worker_died")
        )

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.records if r.get("cache") == "hit")

    @property
    def failing(self) -> List[str]:
        """Designs that audited as not equivalent / not clean."""
        bad = []
        for record in self.records:
            if record["status"] != "ok":
                bad.append(record["netlist"])
            elif record.get("equivalent") is False:
                bad.append(record["netlist"])
            elif record.get("clean") is False:
                bad.append(record["netlist"])
        return bad

    def summary(self) -> str:
        where = f" -> {self.report_path}" if self.report_path else ""
        quarantined = (
            f" ({self.quarantined} quarantined)" if self.quarantined else ""
        )
        return (
            f"campaign ({self.mode}, engine={self.engine}): "
            f"{self.ok}/{len(self.records)} ok, "
            f"{self.cache_hits} cache hits, "
            f"{self.errors} errors{quarantined}, "
            f"{self.wall_time_s:.2f} s{where}"
        )


class CampaignRunner:
    """Configured batch runner; :meth:`run` executes one campaign."""

    def __init__(
        self,
        mode: str = "audit",
        engine: str = DEFAULT_ENGINE,
        # perfbench/worker.py still passes ``jobs=1`` and ``fused``; both go
        # with the benchmark change that retires its ``cold-fused`` workload.
        jobs: int = 1,
        workers: int = 1,
        term_limit: Optional[int] = None,
        cache_dir: Optional[PathLike] = None,
        use_cache: bool = True,
        checkpoint: bool = True,
        fused: bool = False,
        telemetry: Optional["_telemetry.Telemetry"] = None,
        retry_policy: Optional[RetryPolicy] = None,
        retries: Optional[int] = None,
        deadline_s: Optional[float] = None,
        max_rss_bytes: Optional[int] = None,
        fallback: bool = False,
    ):
        if mode not in MODES:
            raise ValueError(f"unknown campaign mode {mode!r}")
        if jobs != 1:
            raise ValueError(f"jobs must be 1, got {jobs!r}")
        if engine not in registered_engines():
            # A name no engine answers to is a configuration error, not
            # a per-netlist failure.
            get_engine(engine)  # canonical "unknown engine" error
        self.mode = mode
        #: Telemetry registry campaign spans/counters report to
        #: (default: the active one at :meth:`run` time).
        self.telemetry = telemetry
        self.engine = engine
        self.workers = max(1, workers)
        self.term_limit = term_limit
        #: Per-netlist supervision: attempt budget/backoff (``retries``
        #: is shorthand for ``RetryPolicy(max_attempts=retries)``),
        #: wall/RSS deadline, and engine-ladder fallback.
        if retry_policy is None:
            retry_policy = (
                RetryPolicy(max_attempts=max(1, retries))
                if retries is not None
                else RetryPolicy()
            )
        self.retry_policy = retry_policy
        self.deadline_s = deadline_s
        self.max_rss_bytes = max_rss_bytes
        self.fallback = fallback
        if use_cache:
            from repro.service.cache import default_cache_dir

            self.cache_dir: Optional[str] = str(
                Path(cache_dir) if cache_dir is not None
                else default_cache_dir()
            )
        else:
            self.cache_dir = None
        self.checkpoint = checkpoint and use_cache

    def _task(self, path: Path) -> Dict[str, Any]:
        return {
            "path": str(path),
            "mode": self.mode,
            "engine": self.engine,
            "term_limit": self.term_limit,
            "cache_dir": self.cache_dir,
            "checkpoint": self.checkpoint,
            "retry_policy": self.retry_policy,
            "deadline_s": self.deadline_s,
            "max_rss_bytes": self.max_rss_bytes,
            "fallback": self.fallback,
        }

    def run(
        self,
        target: Union[PathLike, Sequence[PathLike]],
        report_path: Optional[PathLike] = None,
    ) -> CampaignReport:
        """Run the campaign; streams JSONL records to ``report_path``."""
        if isinstance(target, (str, os.PathLike)):
            paths = discover_netlists(target)
        else:
            paths = [Path(p) for p in target]
        report_file = Path(report_path) if report_path is not None else None
        if report_file is not None:
            report_file.parent.mkdir(parents=True, exist_ok=True)
            report_file.write_text("", encoding="utf-8")  # fresh campaign

        started = time.perf_counter()
        records: List[Dict[str, Any]] = []

        def emit(record: Dict[str, Any]) -> None:
            records.append(record)
            if report_file is not None:
                atomic_append_line(
                    report_file, json.dumps(record, sort_keys=True)
                )

        tasks = [self._task(path) for path in paths]
        tel = _telemetry.resolve(self.telemetry)
        with _telemetry.use(tel), tel.span(
            "campaign",
            mode=self.mode,
            engine=self.engine,
            netlists=len(paths),
            workers=self.workers,
        ):
            if self.workers == 1 or len(tasks) == 1:
                for task in tasks:
                    emit(_process_netlist(task))
            else:
                self._run_supervised_pool(tasks, emit, tel)
                # Deterministic report order regardless of completion
                # order.
                order = {str(path): idx for idx, path in enumerate(paths)}
                records.sort(key=lambda record: order[record["path"]])
                if report_file is not None:
                    atomic_write_text(
                        report_file,
                        "".join(
                            json.dumps(record, sort_keys=True) + "\n"
                            for record in records
                        ),
                    )
        return CampaignReport(
            records=records,
            report_path=report_file,
            wall_time_s=time.perf_counter() - started,
            mode=self.mode,
            engine=self.engine,
        )

    # -- supervised multi-worker scheduler ------------------------------

    def _run_supervised_pool(self, tasks, emit, tel) -> None:
        """Process-per-task scheduling with death detection.

        Unlike a shared ``Pool.imap_unordered`` — where a SIGKILLed
        worker's task simply never completes and the iterator hangs —
        each in-flight netlist owns one forked process and one result
        pipe.  Liveness is observed two ways: the pipe (a result, or
        EOF when the child died mid-task) and ``Process.is_alive`` /
        ``exitcode``.  A dead worker's netlist is resubmitted up to
        the retry policy's attempt budget — resuming from whatever
        per-bit checkpoints the dead worker persisted — and then
        recorded as ``status: "worker_died"``.
        """
        import multiprocessing
        from multiprocessing import connection as mp_connection

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX
            context = multiprocessing.get_context()

        max_submissions = max(1, self.retry_policy.max_attempts)
        # Hard wall for a stuck worker: generous multiple of the
        # cooperative deadline (which the child enforces itself); no
        # deadline means no hard kill.
        kill_after = (
            self.deadline_s * 2 + 5.0 if self.deadline_s is not None else None
        )

        pending: List[tuple] = [
            (index, task, 1) for index, task in enumerate(tasks)
        ]
        pending.reverse()  # pop() from the front of the original order
        running: Dict[Any, _WorkerHandle] = {}

        def spawn() -> None:
            while pending and len(running) < self.workers:
                index, task, submission = pending.pop()
                task = dict(task, submission=submission)
                parent_conn, child_conn = context.Pipe(duplex=False)
                process = context.Process(
                    target=_supervised_worker,
                    args=(task, child_conn),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                running[parent_conn] = _WorkerHandle(
                    process=process,
                    conn=parent_conn,
                    index=index,
                    task=task,
                    submission=submission,
                    started=time.monotonic(),
                )

        def reap(handle: _WorkerHandle, record: Optional[Dict[str, Any]]) -> None:
            handle.conn.close()
            handle.process.join()
            if record is not None:
                emit(record)
                return
            exitcode = handle.process.exitcode
            if handle.submission < max_submissions:
                tel.counter("resilience.retry")
                pending.append(
                    (handle.index, handle.task, handle.submission + 1)
                )
                return
            tel.counter("resilience.quarantined")
            task = handle.task
            emit(
                {
                    "path": task["path"],
                    "netlist": Path(task["path"]).stem,
                    "mode": task["mode"],
                    "engine": task["engine"],
                    "status": "worker_died",
                    "error": (
                        f"worker died (exitcode {exitcode}) "
                        f"on submission {handle.submission}/{max_submissions}"
                    ),
                    "reason": {
                        "kind": "worker_died",
                        "exitcode": exitcode,
                        "submissions": handle.submission,
                    },
                    "cache": "off" if task["cache_dir"] is None else "miss",
                    "wall_time_s": time.monotonic() - handle.started,
                }
            )

        while pending or running:
            spawn()
            ready = mp_connection.wait(list(running), timeout=0.1)
            for conn in ready:
                handle = running.pop(conn)
                try:
                    record = conn.recv()
                except (EOFError, OSError):
                    record = None  # died mid-task (pipe EOF)
                reap(handle, record)
            # Liveness sweep: a worker can die without its pipe ever
            # becoming ready in this round; don't wait on it forever.
            for conn, handle in list(running.items()):
                if handle.process.is_alive():
                    if (
                        kill_after is not None
                        and time.monotonic() - handle.started > kill_after
                    ):
                        handle.process.terminate()
                        handle.process.join()
                        running.pop(conn)
                        reap(handle, None)
                    continue
                running.pop(conn)
                record = None
                if conn.poll():
                    try:  # result sent just before the process exited
                        record = conn.recv()
                    except (EOFError, OSError):
                        record = None
                reap(handle, record)


def run_campaign(
    target: Union[PathLike, Sequence[PathLike]],
    report_path: Optional[PathLike] = None,
    **options: Any,
) -> CampaignReport:
    """One-shot convenience wrapper over :class:`CampaignRunner`.

    >>> import tempfile, pathlib
    >>> from repro.gen.mastrovito import generate_mastrovito
    >>> from repro.netlist.eqn_io import write_eqn
    >>> work = pathlib.Path(tempfile.mkdtemp())
    >>> write_eqn(generate_mastrovito(0b1011), work / "m3.eqn")
    >>> report = run_campaign(work, cache_dir=work / "cache")
    >>> report.ok, report.records[0]["polynomial"]
    (1, 'x^3 + x + 1')
    """
    return CampaignRunner(**options).run(target, report_path=report_path)
