"""Per-output-bit extraction driver.

The paper's headline: an n-bit GF multiplier can be reverse engineered
in n threads, because Theorem 2 makes each output bit's rewriting
independent.  The C++ original uses 16 hardware threads.  This port
rewrites the bits one after another in the calling process: a
``multiprocessing`` pool over the bits was measured slower than the
sequential loop on a 2-vCPU host at every field size tried (up to flat
Mastrovito m=571, see the README), so it was retired.

The result of a run is an :class:`ExtractionRun`: the per-bit canonical
expressions, per-bit :class:`~repro.rewrite.backward.RewriteStats`
(Figure 4 plots the per-bit runtimes), and aggregate wall-clock/peak
statistics in the units of Tables I-IV.
"""

from __future__ import annotations

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
#: bit's rewriting completes.  See :mod:`repro.service.jobs`.
ResultHook = Callable[[str, "ConeExpression", RewriteStats], None]


def extract_expressions(
    netlist: Netlist,
    outputs: Optional[List[str]] = None,
    term_limit: Optional[int] = None,
    measure_memory: bool = False,
    engine: str = DEFAULT_ENGINE,
    on_result: Optional[ResultHook] = None,
    cache=None,
    telemetry: Optional["_telemetry.Telemetry"] = None,
) -> ExtractionRun:
    """Extract the canonical GF(2) expression of every output bit.

    ``term_limit`` bounds the intermediate expression size per bit,
    converting runaway runs into
    :class:`~repro.rewrite.backward.TermLimitExceeded` — the paper's
    "MO" outcome.  ``measure_memory`` additionally tracks the
    ``tracemalloc`` peak.  ``engine`` selects the rewriting backend
    (see :mod:`repro.engine`); results are backend-independent.

    ``on_result`` is the checkpoint hook of :mod:`repro.service.jobs`:
    it fires the moment each bit finishes, so a killed run loses at
    most the bit in flight.  The returned run is independent of the
    hook.

    ``cache`` (a :class:`repro.service.cache.ResultCache`) serves the
    per-cone tier: the requested outputs are partitioned by Merkle
    cone digest (:func:`repro.service.fingerprint.cone_fingerprints`);
    cached bits are served under a ``cone.cached`` span, only the dirty
    ones are rewritten and stored back — Theorem 1 makes the entries
    engine-neutral — and the run, bit-identical to a cold one, carries
    per-bit :attr:`ExtractionRun.cache_provenance`.

    ``telemetry`` selects the :class:`repro.telemetry.Telemetry`
    registry this run reports to (default: the active one).  The whole
    run is one ``extract`` span; the engine's one-time ``compile``
    span and its per-bit ``cone`` spans are its children, and ``measure_memory`` rides on the span's
    tracemalloc handling — nested-measurement safe, stopped even when
    a bit raises.
    """
    chosen = list(outputs) if outputs is not None else list(netlist.outputs)
    backend = _resolve_engine(engine)

    tel = _telemetry.resolve(telemetry)
    results: List[Tuple[str, "ConeExpression", RewriteStats]] = []
    # The span is the timed region: engines deep below resolve the
    # same registry through use(), and the tracemalloc peak rides on
    # the span (nested-measurement safe, stopped even on a raise).
    with _telemetry.use(tel), tel.span(
        "extract",
        memory=measure_memory,
        netlist=netlist.name,
        engine=backend.name,
        bits=len(chosen),
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

        if dirty:
            # The one-time compile gets its own span, a sibling of the
            # first ``cone`` rather than a child of it.  A fully
            # cone-cached run skips it: that is the warm ECO path.
            backend.prepare(work)
            work.gate_order()
            for output in dirty:
                expression, stats = backend.rewrite_cone(
                    work, output, term_limit=term_limit
                )
                results.append((output, expression, stats))
                if on_result is not None:
                    on_result(output, expression, stats)

        if cone_digests is not None and dirty:
            # Store back what this run actually rewrote, in the
            # engine-neutral encoded form (Theorem 1: every backend
            # produces the same canonical expression, so the entry is
            # valid for all of them).
            rewritten = set(dirty)
            schema = getattr(backend, "compile_schema", None)
            for output, cone, st in results:
                digest = cone_digests.get(output)
                if output not in rewritten or digest is None:
                    continue
                cache.put_cone(
                    digest,
                    output,
                    cone.to_json(),
                    st,
                    engine=backend.name,
                    compile_schema=schema,
                )

        # Deterministic composition regardless of hit/dirty interleave.
        position = {output: idx for idx, output in enumerate(chosen)}
        results.sort(key=lambda item: position[item[0]])

        wall = span.elapsed()
        cpu = time.process_time() - started_cpu
    peak_memory = span.peak_bytes if measure_memory else None

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
        wall_time_s=wall,
        cpu_time_s=cpu,
        peak_terms=max((st.peak_terms for st in stats.values()), default=0),
        peak_memory_bytes=peak_memory,
        engine=backend.name,
        cones=cones,
        cache_provenance=provenance,
    )

