"""Per-layer tracing for the benchmark's traced runs.

:class:`LayerProbe` wraps each layer's public functions with
``repro.telemetry`` spans and records them, together with the spans
the service already emits (``compile``, ``cone``, ``sweep``,
``extract``, ``cone.cached``, ``campaign.netlist``), into a JSONL
trace.  Nothing inside the package is changed: the wrappers replace
module attributes for the lifetime of the probe and are removed by
:meth:`LayerProbe.uninstall`.

:func:`layer_metrics` turns that trace into the per-layer metrics.  A
layer's time is its *self* time: the span's wall time minus the wall
time of the layer spans nested directly inside it, so the layers
partition the request wall and ``service.unattributed_frac`` is what
no layer covers.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro import telemetry as _telemetry

#: Bench-side span around each timed request.
REQUEST_SPAN = "bench.request"

#: Span name -> layer.  The first group are spans this module adds;
#: the second are spans the service emits on its own.
LAYER_OF_SPAN = {
    "netlist.parse": "netlist.parse",
    "aig.strash": "aig.strash",
    "fingerprint": "fingerprint",
    "jobs.checkpoint": "jobs.checkpoint",
    "extract.algorithm2": "extract.algorithm2",
    "extract.verify": "extract.verify",
    "extract.diagnose": "extract.diagnose",
    "cache.get": "cache.get",
    "cache.put": "cache.put",
    "compile": "engine.compile",
    "cone": "engine.rewrite",
    "sweep": "engine.rewrite",
    "extract": "rewrite.extract",
}

#: Every per-layer metric a traced run reports, with its unit.
LAYER_METRICS = {
    "netlist.parse_s": "s",
    "netlist.parse_calls": "count",
    "netlist.gates_per_s": "1/s",
    "aig.strash_s": "s",
    "aig.strash_calls": "count",
    "fingerprint.s": "s",
    "fingerprint.calls": "count",
    "engine.compile_s": "s",
    "engine.compile_calls": "count",
    "engine.rewrite_s": "s",
    "rewrite.extract_self_s": "s",
    "rewrite.cone_hit_ratio": "ratio",
    "jobs.checkpoint_s": "s",
    "extract.algorithm2_s": "s",
    "extract.verify_s": "s",
    "extract.diagnose_self_s": "s",
    "extract.counterexample_ratio": "ratio",
    "cache.get_s": "s",
    "cache.get_calls": "count",
    "cache.get_bytes": "bytes",
    "cache.put_s": "s",
    "cache.put_calls": "count",
    "cache.put_bytes": "bytes",
    "cache.hit_ratio": "ratio",
    "service.unattributed_frac": "ratio",
    "telemetry.overhead_frac": "ratio",
}


def _size(path: Optional[Path]) -> int:
    try:
        return os.stat(path).st_size if path is not None else 0
    except OSError:
        return 0


class LayerProbe:
    """Installs the layer wrappers and collects the trace."""

    def __init__(self, trace_path: Path):
        self.trace_path = Path(trace_path)
        #: span id -> bytes a cache span read or wrote itself.
        self.cache_bytes: Dict[int, int] = {}
        self._restore: List[tuple] = []
        self._sink: Optional[_telemetry.JsonlSink] = None

    # -- wrapping ---------------------------------------------------------

    def _span_call(
        self,
        func: Callable,
        span_name: str,
        annotate: Optional[Callable[[Any], dict]] = None,
        measure: Optional[Callable[..., int]] = None,
    ) -> Callable:
        cache_bytes = self.cache_bytes

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with _telemetry.current().span(span_name, op=func.__name__) as span:
                result = func(*args, **kwargs)
                if annotate is not None:
                    span.annotate(**annotate(result))
            if measure is not None:  # outside the span: not layer time
                cache_bytes[span.span_id] = measure(result, *args, **kwargs)
            return result

        return wrapper

    def _patch_function(self, module, name: str, wrapper: Callable) -> None:
        original = getattr(module, name)
        replaced = wrapper(original)
        # Modules that imported the function by name hold their own
        # reference; swap every one of them.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replaced)
                    self._restore.append((mod, attr, original))

    def _patch_method(self, cls, name: str, wrapper: Callable) -> None:
        original = cls.__dict__[name]
        if isinstance(original, classmethod):
            replaced = classmethod(wrapper(original.__func__))
        else:
            replaced = wrapper(original)
        setattr(cls, name, replaced)
        self._restore.append((cls, name, original))

    def install(self) -> None:
        """Wrap every layer and start writing the trace."""
        # import_module, not ``import a.b as c``: the package
        # ``repro.extract`` re-exports a *function* named ``diagnose``
        # that shadows the submodule of the same name.
        diagnose_mod = importlib.import_module("repro.extract.diagnose")
        extractor_mod = importlib.import_module("repro.extract.extractor")
        verify_mod = importlib.import_module("repro.extract.verify")
        eqn_io = importlib.import_module("repro.netlist.eqn_io")
        fingerprint_mod = importlib.import_module("repro.service.fingerprint")
        jobs_mod = importlib.import_module("repro.service.jobs")
        runner_mod = importlib.import_module("repro.service.runner")
        # Imported for its by-name references, which get swapped too.
        importlib.import_module("repro.service.eco")
        from repro.aig.aig import Aig
        from repro.service.cache import ResultCache

        span = self._span_call

        self._patch_function(
            eqn_io, "read_eqn",
            lambda f: span(
                f, "netlist.parse", annotate=lambda r: {"gates": len(r)}
            ),
        )
        readers = runner_mod.NETLIST_READERS
        self._restore.append((readers, ".eqn", readers[".eqn"]))
        readers[".eqn"] = eqn_io.read_eqn
        for name in (
            "fingerprint_netlist", "cone_fingerprints", "fingerprint_with_cones"
        ):
            self._patch_function(
                fingerprint_mod, name, lambda f: span(f, "fingerprint")
            )
        self._patch_function(
            jobs_mod, "checkpointed_extract",
            lambda f: span(f, "jobs.checkpoint"),
        )
        self._patch_function(
            extractor_mod, "result_from_run",
            lambda f: span(f, "extract.algorithm2"),
        )
        self._patch_function(
            verify_mod, "verify_multiplier",
            lambda f: span(f, "extract.verify"),
        )
        self._patch_function(
            diagnose_mod, "diagnose",
            lambda f: span(
                f, "extract.diagnose",
                annotate=lambda r: {
                    "verdict": r.verdict.value,
                    "counterexample": r.counterexample is not None,
                },
            ),
        )
        self._patch_method(
            Aig, "from_netlist", lambda f: span(f, "aig.strash")
        )

        def hit(result):
            return {"hit": result is not None}

        def entry_size(path_of):
            def measure(result, cache, *args, **kwargs):
                return _size(path_of(cache, *args)) if result is not None else 0
            return measure

        def payload_size(result, *args, **kwargs):
            return len(result) if result is not None else 0

        gets = {
            "get": entry_size(lambda c, kind, key: c.path_for(kind, key)),
            "get_cone": entry_size(lambda c, digest: c.cone_path_for(digest)),
            "get_compiled": payload_size,
            "get_cone_compiled": payload_size,
            "get_extraction_summary": entry_size(
                lambda c, key: c.extraction_summary_path(key)
            ),
            "file_fingerprint": entry_size(
                lambda c, path: c._file_memo_path(path)
            ),
        }
        for name, measure in gets.items():
            self._patch_method(
                ResultCache, name,
                lambda f, measure=measure: span(
                    f, "cache.get", annotate=hit, measure=measure
                ),
            )

        def written(result, *args, **kwargs):
            return _size(result)

        def written_payload(result, cache, key, engine, schema, payload):
            return len(payload)

        puts = {
            "put": written,
            "put_cone": written,
            "put_compiled": written_payload,
            "put_cone_compiled": written_payload,
            # The main entry is counted by the nested ``put``.
            "put_extraction": lambda r, c, key, *a: _size(
                c.extraction_summary_path(key)
            ),
            "remember_file": lambda r, c, path, *a, **k: _size(
                c._file_memo_path(path)
            ),
        }
        for name, measure in puts.items():
            self._patch_method(
                ResultCache, name,
                lambda f, measure=measure: span(
                    f, "cache.put", measure=measure
                ),
            )

        self._sink = _telemetry.get_telemetry().add_sink(
            _telemetry.JsonlSink(self.trace_path)
        )

    def uninstall(self) -> None:
        """Restore every wrapped attribute and close the trace."""
        for owner, name, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._restore.clear()
        if self._sink is not None:
            _telemetry.get_telemetry().remove_sink(self._sink)
            self._sink.close()
            self._sink = None

    def request(self, **attrs: Any):
        """The span one timed request runs under."""
        return _telemetry.current().span(REQUEST_SPAN, **attrs)


# ----------------------------------------------------------------------
# Trace -> per-layer metrics
# ----------------------------------------------------------------------

def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    events: Iterable[Dict[str, Any]],
    cache_bytes: Dict[int, int],
    units: int,
) -> Dict[str, float]:
    """Per-layer metrics of the requests in ``events``.

    Times, call counts and bytes are per ``units`` (netlists, or edits
    on the ECO workload); ratios are over the whole trace.
    ``telemetry.overhead_frac`` needs the untraced twin run and is
    filled in by the caller.
    """
    pid = os.getpid()
    spans = {
        e["span_id"]: e
        for e in events
        if e.get("type") == "span" and e.get("pid") == pid
    }
    anchor: Dict[int, Optional[int]] = {}

    def layer_parent(span_id: int) -> Optional[int]:
        """Nearest enclosing layer or request span (None if neither)."""
        chain = []
        parent = spans[span_id].get("parent_id")
        while parent is not None and parent in spans:
            if parent in anchor:
                found = anchor[parent]
                break
            event = spans[parent]
            if event["name"] in LAYER_OF_SPAN or event["name"] == REQUEST_SPAN:
                found = parent
                break
            chain.append(parent)
            parent = event.get("parent_id")
        else:
            found = None
        # Non-layer spans on the way share the same anchor.
        for visited in chain:
            anchor[visited] = found
        return found

    inside_request: Dict[int, bool] = {}

    def in_request(span_id: Optional[int]) -> bool:
        if span_id is None:
            return False
        if span_id not in inside_request:
            event = spans[span_id]
            inside_request[span_id] = event["name"] == REQUEST_SPAN or (
                in_request(layer_parent(span_id))
            )
        return inside_request[span_id]

    covered: Dict[int, float] = {}
    layer_spans = []
    for span_id, event in spans.items():
        if event["name"] not in LAYER_OF_SPAN or not in_request(span_id):
            continue
        layer_spans.append(span_id)
        parent = layer_parent(span_id)
        covered[parent] = covered.get(parent, 0.0) + event["wall_s"]

    time_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    gates = 0
    cone_gets = cone_hits = gets = hits = 0
    not_equivalent = counterexamples = 0
    get_bytes = put_bytes = 0
    for span_id in layer_spans:
        event = spans[span_id]
        layer = LAYER_OF_SPAN[event["name"]]
        attrs = event.get("attrs") or {}
        self_s = event["wall_s"] - covered.get(span_id, 0.0)
        time_s[layer] = time_s.get(layer, 0.0) + self_s
        parent = layer_parent(span_id)
        nested = parent is not None and spans[parent]["name"] == event["name"]
        if not nested:  # a call is the outermost span of its layer
            calls[layer] = calls.get(layer, 0) + 1
        if layer == "netlist.parse":
            gates += attrs.get("gates", 0)
        elif layer == "cache.get":
            get_bytes += cache_bytes.get(span_id, 0)
            if attrs.get("op") == "get_cone":
                cone_gets += 1
                cone_hits += bool(attrs.get("hit"))
            if not nested:
                gets += 1
                hits += bool(attrs.get("hit"))
        elif layer == "cache.put":
            put_bytes += cache_bytes.get(span_id, 0)
        elif layer == "extract.diagnose":
            if attrs.get("verdict") == "not-equivalent":
                not_equivalent += 1
                counterexamples += bool(attrs.get("counterexample"))

    request_wall = sum(
        e["wall_s"] for e in spans.values() if e["name"] == REQUEST_SPAN
    )
    unattributed = sum(
        e["wall_s"] - covered.get(span_id, 0.0)
        for span_id, e in spans.items()
        if e["name"] == REQUEST_SPAN
    )

    def per_unit(value: float) -> float:
        return value / units

    return {
        "netlist.parse_s": per_unit(time_s.get("netlist.parse", 0.0)),
        "netlist.parse_calls": per_unit(calls.get("netlist.parse", 0)),
        "netlist.gates_per_s": _ratio(gates, time_s.get("netlist.parse", 0.0)),
        "aig.strash_s": per_unit(time_s.get("aig.strash", 0.0)),
        "aig.strash_calls": per_unit(calls.get("aig.strash", 0)),
        "fingerprint.s": per_unit(time_s.get("fingerprint", 0.0)),
        "fingerprint.calls": per_unit(calls.get("fingerprint", 0)),
        "engine.compile_s": per_unit(time_s.get("engine.compile", 0.0)),
        "engine.compile_calls": per_unit(calls.get("engine.compile", 0)),
        "engine.rewrite_s": per_unit(time_s.get("engine.rewrite", 0.0)),
        "rewrite.extract_self_s": per_unit(time_s.get("rewrite.extract", 0.0)),
        "rewrite.cone_hit_ratio": _ratio(cone_hits, cone_gets),
        "jobs.checkpoint_s": per_unit(time_s.get("jobs.checkpoint", 0.0)),
        "extract.algorithm2_s": per_unit(
            time_s.get("extract.algorithm2", 0.0)
        ),
        "extract.verify_s": per_unit(time_s.get("extract.verify", 0.0)),
        "extract.diagnose_self_s": per_unit(
            time_s.get("extract.diagnose", 0.0)
        ),
        "extract.counterexample_ratio": _ratio(counterexamples, not_equivalent),
        "cache.get_s": per_unit(time_s.get("cache.get", 0.0)),
        "cache.get_calls": per_unit(gets),
        "cache.get_bytes": per_unit(get_bytes),
        "cache.put_s": per_unit(time_s.get("cache.put", 0.0)),
        "cache.put_calls": per_unit(calls.get("cache.put", 0)),
        "cache.put_bytes": per_unit(put_bytes),
        "cache.hit_ratio": _ratio(hits, gets),
        "service.unattributed_frac": _ratio(unattributed, request_wall),
    }
