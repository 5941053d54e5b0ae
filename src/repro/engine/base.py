"""Engine interface: what every backward-rewriting backend provides.

An :class:`Engine` turns one output cone of a netlist into the
canonical GF(2) expression of that output bit.  Backends differ only in
their *internal* expression representation; the contract is:

* :meth:`Engine.rewrite_cone` returns a :class:`ConeExpression` — the
  backend-native form — plus the usual
  :class:`~repro.rewrite.backward.RewriteStats`;
* a :class:`ConeExpression` answers the two questions Algorithm 2 and
  the verifier ask (out-field membership, equality against a
  specification polynomial) *without* leaving the native representation,
  and :meth:`ConeExpression.decode`\\ s to a
  :class:`~repro.gf2.polynomial.Gf2Poly` at the API boundary;
* every backend signals failures with the reference exception types —
  :class:`~repro.rewrite.backward.BackwardRewriteError` for structural
  defects (same netlists fail on every backend) and
  :class:`~repro.rewrite.backward.TermLimitExceeded` when
  ``term_limit`` is exceeded; the limit bounds each backend's *own*
  intermediate representation, so the memory-out point may differ
  between backends.

Compiled programs
-----------------
Backends that precompile a netlist into a reusable *program* (bitpack,
aig, vector) derive from :class:`CompilingEngine`, which owns the
per-netlist weak cache, the pickle round-trip, and the
``compile_cache=`` hook: when a caller passes an object with the
``get_compiled`` / ``put_compiled`` contract of
:class:`repro.service.cache.ResultCache`, a freshly-compiled program
is stored under ``(fingerprint, engine, compile_schema)`` and the next
cold process loads it instead of recompiling — the one-time compile
tax becomes a once-*ever* tax per distinct structure.  Fingerprints
are strash-invariant while compiled programs may depend on internal
net names and gate order, so every serialized program carries an exact
:func:`netlist_token`; a cache entry whose token mismatches the
netlist in hand (same structure, different spelling) is recompiled
rather than mis-served.  ``compile_schema`` is each backend's own
layout version: bumping it retires every stored program of that
backend without touching the others.
"""

from __future__ import annotations

import abc
import contextlib
import hashlib
import itertools
import json
import pickle
from array import array
from operator import itemgetter
from typing import Any, ClassVar, Iterable, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

from repro import telemetry as _telemetry
from repro.gf2.monomial import Monomial
from repro.gf2.polynomial import Gf2Poly
from repro.netlist.netlist import Netlist
from repro.rewrite.backward import RewriteStats


class EngineError(ValueError):
    """Unknown engine name or invalid engine registration."""


def cone_span(engine: "Engine", output: str):
    """The ``"cone"`` telemetry span of one ``rewrite_cone`` call.

    Engines delegate special cases to a parent class's ``rewrite_cone``
    (the vector engine's flat path reuses the aig path verbatim); when
    the caller is already inside this cone's span, the open span is
    reused instead of double-counting the same work as a nested twin.
    """
    telemetry = _telemetry.current()
    active = telemetry.active_span()
    if (
        active is not None
        and active.name == "cone"
        and active.attrs.get("output") == output
    ):
        return contextlib.nullcontext(active)
    return telemetry.span("cone", engine=engine.name, output=output)


class ConeExpression(abc.ABC):
    """A backend-native canonical expression of one output bit."""

    @abc.abstractmethod
    def decode(self) -> Gf2Poly:
        """Convert to the reference representation (API boundary)."""

    @abc.abstractmethod
    def term_count(self) -> int:
        """Number of monomials (the paper's expression-size metric)."""

    @abc.abstractmethod
    def contains_products(self, products: Iterable[Monomial]) -> bool:
        """Algorithm 2 line 6: is every given monomial present?"""

    @abc.abstractmethod
    def equals_poly(self, poly: Gf2Poly) -> bool:
        """Equality against a specification polynomial (verifier)."""


class Engine(abc.ABC):
    """One backward-rewriting backend."""

    #: Registry name of the backend (e.g. ``"reference"``).
    name: ClassVar[str] = ""

    #: Layout version of the backend's compiled program; ``None`` for
    #: backends that do not compile (see :class:`CompilingEngine`).
    compile_schema: ClassVar[Optional[int]] = None

    @abc.abstractmethod
    def rewrite_cone(
        self,
        netlist: Netlist,
        output: str,
        trace: bool = False,
        term_limit: Optional[int] = None,
        compile_cache: Optional[Any] = None,
    ) -> Tuple[ConeExpression, RewriteStats]:
        """Algorithm 1 on one output cone, in native representation.

        ``compile_cache`` (anything with the ``get_compiled`` /
        ``put_compiled`` contract of
        :class:`repro.service.cache.ResultCache`) lets compiling
        backends load/store their compiled program; non-compiling
        backends ignore it.
        """

    def rewrite_cones(
        self,
        netlist: Netlist,
        outputs: Iterable[str],
        term_limit: Optional[int] = None,
        compile_cache: Optional[Any] = None,
    ) -> "dict[str, Tuple[ConeExpression, RewriteStats]]":
        """Algorithm 1 on several output cones of one netlist.

        The default implementation is the per-bit loop — one
        :meth:`rewrite_cone` call per output, in request order — so
        every backend supports the multi-root entry point.  Backends
        with a genuinely *fused* substitution sweep (the numpy
        ``vector`` engine rewrites all cones in one tagged bit-matrix)
        override this; callers reach it through ``fused=True`` on
        :func:`repro.rewrite.parallel.extract_expressions` and degrade
        cleanly to this loop everywhere else.
        """
        # Forward the cache only when one was given, mirroring
        # :meth:`rewrite`: ad-hoc backends written against the
        # pre-cache rewrite_cone signature keep working.
        extra = (
            {"compile_cache": compile_cache}
            if compile_cache is not None
            else {}
        )
        return {
            output: self.rewrite_cone(
                netlist, output, term_limit=term_limit, **extra
            )
            for output in outputs
        }

    def rewrite(
        self,
        netlist: Netlist,
        output: str,
        trace: bool = False,
        term_limit: Optional[int] = None,
        compile_cache: Optional[Any] = None,
    ) -> Tuple[Gf2Poly, RewriteStats]:
        """Algorithm 1 with the result decoded to :class:`Gf2Poly`."""
        # Forward the cache only when one was given: injected ad-hoc
        # backends written against the pre-cache rewrite_cone
        # signature keep working as long as no cache is involved.
        extra = (
            {"compile_cache": compile_cache}
            if compile_cache is not None
            else {}
        )
        expression, stats = self.rewrite_cone(
            netlist, output, trace=trace, term_limit=term_limit, **extra
        )
        return expression.decode(), stats

    def prepare(
        self, netlist: Netlist, compile_cache: Optional[Any] = None
    ) -> None:
        """Warm whatever per-netlist state the backend keeps (no-op
        here; compiling backends ensure their program is ready so that
        forked workers inherit it copy-on-write)."""

    def finalize(
        self, netlist: Netlist, compile_cache: Optional[Any] = None
    ) -> None:
        """Persist per-netlist state grown during rewriting (no-op
        here; see :meth:`CompilingEngine.finalize`)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def _gather(items: Sequence[Any], indices: Sequence[int]) -> Tuple[Any, ...]:
    """``tuple(items[i] for i in indices)`` in one C-level call."""
    if len(indices) < 2:  # itemgetter of one index returns no tuple
        return tuple(items[index] for index in indices)
    return itemgetter(*indices)(items)


def netlist_token(netlist: Netlist) -> str:
    """Exact-content token of a netlist (ports, gates, order, names).

    Content fingerprints are deliberately strash-*invariant*, but a
    compiled program may bake in topological gate positions and
    internal net names — properties two same-fingerprint netlists can
    disagree on.  The token ties a serialized program to the exact
    netlist it was compiled from, so a fingerprint collision between
    structural twins degrades to a recompile, never to a mis-served
    program.  Computed once per netlist and memoized in
    :meth:`Netlist.memo <repro.netlist.netlist.Netlist.memo>`: every
    store and load of the same netlist's program reuses it.

    It hashes an unambiguous encoding of the integer core in
    topological order: the port and gate counts, each gate's arity and
    type code, then the names — inputs, outputs, the nets the gates drive
    and the nets they read — NUL-separated, or as one JSON list if a
    name holds a NUL.  Net ids and insertion order do not enter, so a
    netlist and its ``format_eqn`` round trip share one token.
    """
    memo = netlist.memo()
    token = memo.get("token")
    if token is not None:
        return token
    # Whole-list C-level passes and one hash: this runs on every warm
    # program load, where per-gate work would dominate the load.
    names = netlist.net_names
    order = netlist.gate_order()
    fanins = _gather(netlist.gate_fanins, order)
    reads = _gather(names, list(itertools.chain.from_iterable(fanins)))
    strings = netlist.inputs + netlist.outputs
    strings += _gather(names, _gather(netlist.gate_outputs, order))
    strings += reads
    digest = hashlib.sha256(b"netlist-token-2")
    counts = [len(netlist.inputs), len(netlist.outputs), len(order)]
    digest.update(array("q", counts))
    digest.update(array("q", list(map(len, fanins))))
    digest.update(bytes(_gather(netlist.gate_codes, order)))
    text = "\x00".join(strings)
    if text.count("\x00") == len(strings) - 1:
        digest.update(b"\x00")
    else:
        digest.update(b"\x01")
        text = json.dumps(strings)
    digest.update(text.encode("utf-8", "surrogatepass"))
    token = memo["token"] = digest.hexdigest()
    return token


#: Sentinel distinguishing "never persisted to a cache" from a stored
#: marker that happens to be ``None`` (backends without markers).
_UNSTORED = object()


class CompilingEngine(Engine):
    """Shared machinery for backends with a per-netlist compile step.

    Subclasses implement :meth:`_compile` (netlist → program object;
    the program must expose ``n_gates`` for the in-memory staleness
    check and must pickle) and set :attr:`Engine.compile_schema`.
    Everything else — the weak in-process cache, the serialized
    envelope, token validation, the ``compile_cache`` round-trip — is
    inherited.  The bitpack, aig and vector programs all compile the
    netlist's memoized live AIG, so none of them strashes again.
    """

    #: Cache key namespace for stored programs.  Defaults to the
    #: engine name; backends that compile the very same program
    #: (``aig`` and ``vector`` both compile a ``_CompiledAig``) share
    #: the key so a campaign never compiles the same structure twice
    #: even across those backends.  bitpack's program has the same
    #: layout but other contents (its own flat bounds, direct-fanin
    #: models), so it keeps its own key and schema.
    compile_key: ClassVar[str] = ""

    def __init__(self) -> None:
        self._compiled: "WeakKeyDictionary[Netlist, Any]" = (
            WeakKeyDictionary()
        )
        self._stored_marker: "WeakKeyDictionary[Netlist, Any]" = (
            WeakKeyDictionary()
        )

    @abc.abstractmethod
    def _compile(self, netlist: Netlist) -> Any:
        """Build the backend's compiled program for one netlist."""

    def _program_marker(self, compiled: Any) -> Optional[Any]:
        """State marker deciding whether :meth:`finalize` re-stores.

        ``None`` (the default) means the program never grows after
        compilation.  Backends whose program accretes reusable state
        during rewriting (the aig/vector engines build cut models
        lazily) return a cheap marker that changes when it does.
        """
        del compiled
        return None

    def _compiled_for(
        self, netlist: Netlist, compile_cache: Optional[Any] = None
    ) -> Any:
        compiled = self._compiled.get(netlist)
        if compiled is not None and compiled.n_gates == len(netlist):
            if (
                compile_cache is not None
                and self._stored_marker.get(netlist, _UNSTORED)
                is _UNSTORED
            ):
                # Compiled earlier without any cache in play; a cache
                # has appeared, so persist the program now — otherwise
                # "once ever" would silently mean "once per process".
                self._store(netlist, compiled, compile_cache)
            return compiled
        compiled = None
        # The span covers the cache load *and* the compile: a warm
        # load is the compile phase of that run, just a cheap one.
        with _telemetry.current().span(
            "compile", engine=self.name, gates=len(netlist)
        ) as span:
            if compile_cache is not None:
                compiled = self._load_compiled(netlist, compile_cache)
            fresh = compiled is None
            if fresh:
                compiled = self._compile(netlist)
            span.annotate(cached=not fresh)
        self._compiled[netlist] = compiled
        if compile_cache is not None:
            if fresh:
                self._store(netlist, compiled, compile_cache)
            else:
                self._stored_marker[netlist] = self._program_marker(
                    compiled
                )
        return compiled

    def _store(
        self, netlist: Netlist, compiled: Any, compile_cache: Any
    ) -> None:
        compile_cache.put_compiled(
            netlist,
            self.compile_key or self.name,
            self.compile_schema,
            self.serialize_compiled(netlist, compiled),
        )
        self._stored_marker[netlist] = self._program_marker(compiled)

    def _load_compiled(
        self, netlist: Netlist, compile_cache: Any
    ) -> Optional[Any]:
        payload = compile_cache.get_compiled(
            netlist, self.compile_key or self.name, self.compile_schema
        )
        if payload is None:
            return None
        compiled = self.deserialize_compiled(netlist, payload)
        if compiled is None:
            # The read counted as a hit, but the payload was unusable
            # (token mismatch, corruption) and a recompile follows —
            # let the cache's stats reflect that.
            rejected = getattr(compile_cache, "note_compile_rejected", None)
            if rejected is not None:
                rejected()
        return compiled

    def serialize_compiled(self, netlist: Netlist, compiled: Any) -> bytes:
        """Pickle the program together with its exact-netlist token."""
        return pickle.dumps(
            (netlist_token(netlist), compiled),
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    def deserialize_compiled(
        self, netlist: Netlist, payload: bytes
    ) -> Optional[Any]:
        """The stored program, or ``None`` when it does not fit.

        A corrupt payload or a token mismatch (a structural twin with
        different internal naming hit the same fingerprint) degrades
        to a recompile.
        """
        try:
            token, compiled = pickle.loads(payload)
        except Exception:  # noqa: BLE001 - any corruption means miss
            return None
        if token != netlist_token(netlist):
            return None
        if getattr(compiled, "n_gates", None) != len(netlist):
            return None
        return compiled

    def prepare(
        self, netlist: Netlist, compile_cache: Optional[Any] = None
    ) -> None:
        """Ensure the compiled program exists (loading it from
        ``compile_cache`` when possible, storing it when fresh)."""
        self._compiled_for(netlist, compile_cache)

    def finalize(
        self, netlist: Netlist, compile_cache: Optional[Any] = None
    ) -> None:
        """Re-store the program if rewriting grew it since the last
        store (lazily built cut models travel with the program, so the
        next cold process skips rebuilding them too).  A no-op for
        backends whose programs are complete at compile time."""
        if compile_cache is None:
            return
        compiled = self._compiled.get(netlist)
        if compiled is None:
            return
        marker = self._program_marker(compiled)
        stored = self._stored_marker.get(netlist, _UNSTORED)
        if stored is not _UNSTORED and (marker is None or marker == stored):
            return
        self._store(netlist, compiled, compile_cache)
