"""Parallel per-output-bit extraction driver.

The paper's headline: an n-bit GF multiplier can be reverse engineered
in n threads, because Theorem 2 makes each output bit's rewriting
independent.  The C++ original uses 16 hardware threads; in CPython
threads cannot speed up this CPU-bound workload, so the driver uses a
``multiprocessing`` pool (fork start method when available, so the
netlist is shared copy-on-write) and falls back to sequential execution
for ``jobs=1`` or tiny netlists.

The result of a run is an :class:`ExtractionRun`: the per-bit canonical
expressions, per-bit :class:`~repro.rewrite.backward.RewriteStats`
(Figure 4 plots the per-bit runtimes), and aggregate wall-clock/peak
statistics in the units of Tables I-IV.
"""

from __future__ import annotations

import os
import time
from collections.abc import Mapping as MappingABC
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

if TYPE_CHECKING:  # runtime import would cycle through repro.engine
    from repro.engine.base import ConeExpression

from repro import telemetry as _telemetry
from repro.engine.registry import DEFAULT_ENGINE
from repro.gf2.polynomial import Gf2Poly
from repro.netlist.netlist import Netlist
from repro.rewrite.backward import RewriteStats

# Worker-global netlist, installed once per process by the initializer.
_WORKER_NETLIST: Optional[Netlist] = None
_WORKER_TERM_LIMIT: Optional[int] = None
_WORKER_ENGINE: str = "reference"


def _worker_init(
    netlist: Netlist, term_limit: Optional[int], engine: str
) -> None:
    global _WORKER_NETLIST, _WORKER_TERM_LIMIT, _WORKER_ENGINE
    _WORKER_NETLIST = netlist
    _WORKER_TERM_LIMIT = term_limit
    _WORKER_ENGINE = engine
    # Precompute the topological order once per worker; it is cached on
    # the netlist and shared by every cone extraction.
    netlist.gate_order()


def _worker_rewrite(
    output: str,
) -> Tuple[str, "ConeExpression", RewriteStats]:
    assert _WORKER_NETLIST is not None
    expression, stats = _resolve_engine(_WORKER_ENGINE).rewrite_cone(
        _WORKER_NETLIST, output, term_limit=_WORKER_TERM_LIMIT
    )
    return output, expression, stats


def _resolve_engine(engine):
    """Resolve an engine selector (lazy import to avoid a cycle)."""
    from repro.engine import get_engine

    return get_engine(engine)


class LazyExpressions(MappingABC):
    """Output → :class:`Gf2Poly` map, decoded from backend cones on
    first access.

    This is the decode boundary of the engine architecture: a packed
    backend's expressions stay packed until somebody actually reads
    them as polynomials — extract-only flows (Algorithm 2 membership,
    packed verification) never pay for decoding.
    """

    __slots__ = ("_cones", "_cache")

    def __init__(self, cones: Mapping[str, "ConeExpression"]):
        self._cones = cones
        self._cache: Dict[str, Gf2Poly] = {}

    def __getitem__(self, key: str) -> Gf2Poly:
        poly = self._cache.get(key)
        if poly is None:
            poly = self._cones[key].decode()
            self._cache[key] = poly
        return poly

    def __iter__(self) -> Iterator[str]:
        return iter(self._cones)

    def __len__(self) -> int:
        return len(self._cones)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MappingABC):
            return dict(self.items()) == dict(other.items())
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"LazyExpressions({dict(self.items())!r})"


@dataclass
class ExtractionRun:
    """Per-bit expressions and the paper's aggregate metrics."""

    netlist_name: str
    expressions: Mapping[str, Gf2Poly]
    stats: Dict[str, RewriteStats]
    jobs: int
    wall_time_s: float
    cpu_time_s: float
    peak_terms: int
    peak_memory_bytes: Optional[int] = None
    #: Backend that produced the run (see :mod:`repro.engine`).
    engine: str = DEFAULT_ENGINE
    #: Backend-native expressions (``ConeExpression`` per output);
    #: Algorithm 2 and the verifier consult these so packed backends
    #: never decode just to answer a membership/equality question.
    cones: Dict[str, "ConeExpression"] = field(default_factory=dict)
    #: Where each bit came from when a cone cache was in play:
    #: ``"cone_hit"`` (served from the per-cone cache), ``"computed"``
    #: (rewritten this run), or ``"checkpoint"`` (resumed by
    #: :mod:`repro.service.jobs`).  Empty when no cone cache was
    #: consulted.
    cache_provenance: Dict[str, str] = field(default_factory=dict)

    def per_bit_runtimes(self) -> List[Tuple[int, float]]:
        """(bit position, runtime) series — the Figure 4 data."""
        series = []
        for output, stats in self.stats.items():
            digits = "".join(ch for ch in output if ch.isdigit())
            position = int(digits) if digits else 0
            series.append((position, stats.runtime_s))
        return sorted(series)

    @property
    def total_iterations(self) -> int:
        return sum(stats.iterations for stats in self.stats.values())


#: Checkpoint hook: called with ``(output, cone, stats)`` as soon as a
#: bit's rewriting completes (in completion order, from the coordinating
#: process).  See :mod:`repro.service.jobs`.
ResultHook = Callable[[str, "ConeExpression", RewriteStats], None]


def extract_expressions(
    netlist: Netlist,
    outputs: Optional[List[str]] = None,
    jobs: int = 1,
    term_limit: Optional[int] = None,
    measure_memory: bool = False,
    engine: str = DEFAULT_ENGINE,
    on_result: Optional[ResultHook] = None,
    cache=None,
    fused: bool = False,
    telemetry: Optional["_telemetry.Telemetry"] = None,
    fused_chunk: Optional[int] = None,
) -> ExtractionRun:
    """Extract the canonical GF(2) expression of every output bit.

    ``jobs`` is the paper's thread count (its experiments use 16);
    ``jobs=0`` means one worker per CPU.  ``term_limit`` bounds the
    intermediate expression size per bit, converting runaway runs into
    :class:`~repro.rewrite.backward.TermLimitExceeded` — the paper's
    "MO" outcome.  ``measure_memory`` additionally tracks the
    ``tracemalloc`` peak (sequential runs only; it measures this
    process).  ``engine`` selects the rewriting backend (see
    :mod:`repro.engine`); results are backend-independent.

    ``on_result`` is the checkpoint hook of :mod:`repro.service.jobs`:
    it fires in the coordinating process the moment each bit finishes
    (completion order, not bit order), so a killed run loses at most
    the bits still in flight.  The returned run is independent of the
    hook and of completion order.

    ``cache`` (a :class:`repro.service.cache.ResultCache`) serves the
    per-cone tier: the requested outputs are partitioned by Merkle
    cone digest (:func:`repro.service.fingerprint.cone_fingerprints`);
    cached bits are served under a ``cone.cached`` span, only the dirty
    ones are rewritten and stored back — Theorem 1 makes the entries
    engine-neutral — and the run, bit-identical to a cold one, carries
    per-bit :attr:`ExtractionRun.cache_provenance`.  The dirty cones'
    one-time compile then runs in the coordinating process before any
    rewriting, so forked workers inherit the program copy-on-write.

    ``fused=True`` rewrites every requested cone through the engine's
    multi-root entry point in this process: a backend with a fused
    substitution sweep (the numpy ``vector`` engine) amortizes the
    DAG walk, model lookups and cancellation sorts over all m bits in
    one tagged bit-matrix, while backends without one degrade cleanly
    to their per-bit loop.  ``jobs`` is ignored (the sweep is the
    parallelism); results are bit-identical to a per-bit run, and the
    ``on_result`` hook still fires once per bit — after the sweep, in
    request order.  ``fused_chunk`` splits the sweep into sweeps of at
    most that many outputs, the hook firing after each: the
    checkpoint granularity of :mod:`repro.service.jobs`.  The chunks
    share one compile and one cone-cache partition.

    ``telemetry`` selects the :class:`repro.telemetry.Telemetry`
    registry this run reports to (default: the active one).  The whole
    run is one ``extract`` span; engine ``compile``/``cone``/``sweep``
    spans nest under it, and ``measure_memory`` rides on the span's
    tracemalloc handling — nested-measurement safe, stopped even when
    a bit raises.
    """
    chosen = list(outputs) if outputs is not None else list(netlist.outputs)
    if fused:
        jobs = 1  # the fused sweep is single-process by construction
    if jobs == 0:
        jobs = os.cpu_count() or 1
    jobs = max(1, min(jobs, len(chosen)))
    backend = _resolve_engine(engine)

    tracking = measure_memory and jobs == 1
    tel = _telemetry.resolve(telemetry)
    results: List[Tuple[str, "ConeExpression", RewriteStats]] = []
    # The span is the timed region: engines deep below resolve the
    # same registry through use(), and the tracemalloc peak rides on
    # the span (nested-measurement safe, stopped even on a raise).
    with _telemetry.use(tel), tel.span(
        "extract",
        memory=tracking,
        netlist=netlist.name,
        engine=backend.name,
        bits=len(chosen),
        jobs=jobs,
        fused=fused,
    ) as span:
        started_cpu = time.process_time()

        # Cone-cache partition: serve every output whose Merkle cone
        # digest already has a stored result, and dispatch only the
        # dirty remainder.  The digests are memoized on the netlist
        # (one AIG lowering per netlist, usually paid by the caller's
        # fingerprint) and read inside the span, so the warm path's
        # true cost is what the trace shows.
        dirty = chosen
        cone_digests: Optional[Dict[str, str]] = None
        hit_outputs: List[str] = []
        if cache is not None and chosen:
            from repro.engine.reference import ReferenceExpression
            from repro.service.cache import stats_from_json
            from repro.service.fingerprint import cone_fingerprints

            cone_digests = cone_fingerprints(netlist)
            entries = {}
            for output in chosen:
                digest = cone_digests.get(output)
                if digest is None:
                    continue
                entry = cache.get_cone(digest)
                if entry is not None:
                    entries[output] = entry
            dirty = [o for o in chosen if o not in entries]
            hit_outputs = [o for o in chosen if o in entries]
            if entries:
                with tel.span(
                    "cone.cached",
                    netlist=netlist.name,
                    bits=len(entries),
                ):
                    for output in hit_outputs:
                        entry = entries[output]
                        cone = ReferenceExpression.from_json(
                            entry["expression"]
                        )
                        stats = stats_from_json(entry["stats"])
                        results.append((output, cone, stats))
                        if on_result is not None:
                            on_result(output, cone, stats)
            jobs = max(1, min(jobs, len(dirty)))

        def store_cones(items) -> None:
            # Store back what this run actually rewrote, in the
            # engine-neutral encoded form (Theorem 1: every backend
            # produces the same canonical expression, so the entry is
            # valid for all of them).
            if cone_digests is None:
                return
            schema = getattr(backend, "compile_schema", None)
            for output, cone, st in items:
                digest = cone_digests.get(output)
                if digest is None:
                    continue
                cache.put_cone(
                    digest,
                    output,
                    cone.to_json(),
                    st,
                    engine=backend.name,
                    compile_schema=schema,
                )

        # Backward rewriting of a bit only ever consults its own
        # transitive fan-in (Theorem 2), so when the cache served part
        # of the run the backend is handed just the dirty cones'
        # sub-netlist: a compiling engine then prices the *edit*, not
        # the design — on a single-gate ECO of a NAND-mapped m=64
        # multiplier that is one cone's compile instead of 50k gates.
        # The canonical expressions extracted from the restriction are
        # identical to the full netlist's.
        work = netlist
        if hit_outputs and dirty:
            work = netlist.restrict(dirty)

        if cache is not None and dirty:
            # Compile inside the timed region and in the *coordinating*
            # process, so forked workers inherit the program
            # copy-on-write.  A fully cone-cached run skips the
            # compile entirely — that is the warm ECO path.
            backend.prepare(work)

        if not dirty:
            pass  # every requested cone was served from the cache
        elif fused:
            step = max(1, fused_chunk or len(dirty))
            for start in range(0, len(dirty), step):
                batch = dirty[start : start + step]
                cones_by_output = backend.rewrite_cones(
                    work, batch, term_limit=term_limit
                )
                fresh = []
                for output in batch:
                    expression, stats = cones_by_output[output]
                    fresh.append((output, expression, stats))
                    if on_result is not None:
                        on_result(output, expression, stats)
                results.extend(fresh)
                # Each chunk's cones are stored as it completes, so a
                # run killed mid-sweep keeps the chunks it finished.
                store_cones(fresh)
        elif jobs == 1:
            work.gate_order()
            for output in dirty:
                expression, stats = backend.rewrite_cone(
                    work, output, term_limit=term_limit
                )
                results.append((output, expression, stats))
                if on_result is not None:
                    on_result(output, expression, stats)
        else:
            # Workers re-resolve the backend from its registry name, so
            # an injected instance that the registry does not resolve
            # back to would be silently replaced — reject that instead.
            from repro.engine import EngineError, get_engine

            try:
                registered = get_engine(backend.name)
            except EngineError:
                registered = None
            if registered is not backend:
                raise EngineError(
                    f"engine {backend!r} is not resolvable from the "
                    f"registry by name; register_engine() it (or pass "
                    f"the registered name) to use jobs > 1"
                )
            context = _pool_context()
            with context.Pool(
                processes=jobs,
                initializer=_worker_init,
                initargs=(work, term_limit, backend.name),
            ) as pool:
                # Unordered iteration so the checkpoint hook observes
                # each completion as it happens; re-sorted to the
                # requested output order below for deterministic run
                # composition.
                for item in pool.imap_unordered(_worker_rewrite, dirty):
                    results.append(item)
                    if on_result is not None:
                        on_result(*item)

        if not fused and dirty:
            rewritten = set(dirty)
            store_cones([item for item in results if item[0] in rewritten])

        # Deterministic composition regardless of hit/dirty interleave
        # and pool completion order.
        position = {output: idx for idx, output in enumerate(chosen)}
        results.sort(key=lambda item: position[item[0]])

        wall = span.elapsed()
        cpu = time.process_time() - started_cpu
    peak_memory = span.peak_bytes if tracking else None

    # Decode boundary: the run's expressions read as Gf2Poly but are
    # decoded lazily from the backend-native cones, which Algorithm 2
    # and the verifier consult directly.
    cones = {output: cone for output, cone, _ in results}
    expressions = LazyExpressions(cones)
    stats = {output: st for output, _, st in results}
    hit_set = set(hit_outputs)
    provenance = (
        {
            output: "cone_hit" if output in hit_set else "computed"
            for output, _, _ in results
        }
        if cache is not None
        else {}
    )
    return ExtractionRun(
        netlist_name=netlist.name,
        expressions=expressions,
        stats=stats,
        jobs=jobs,
        wall_time_s=wall,
        cpu_time_s=cpu,
        peak_terms=max((st.peak_terms for st in stats.values()), default=0),
        peak_memory_bytes=peak_memory,
        engine=backend.name,
        cones=cones,
        cache_provenance=provenance,
    )


def _pool_context():
    """Prefer fork (copy-on-write netlist sharing) where available.

    ``multiprocessing`` is imported here, on the ``jobs>1`` path, so a
    sequential run never loads it.
    """
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()
