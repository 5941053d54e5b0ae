"""Backend registry: name → engine factory, with availability probes.

The rest of the system selects a backend by name (``engine="bitpack"``
in the library API, ``--engine bitpack`` on the CLI); the registry maps
those names to lazily-constructed singleton :class:`Engine` instances.
Third-party backends register themselves with :func:`register_engine`
— the only requirement is the :class:`~repro.engine.base.Engine`
interface and exception contract.

Backends with optional dependencies (``vector`` needs numpy) register
unconditionally with a **probe** — a callable returning ``None`` when
the backend is usable or a human-readable reason when it is not.  :func:`available_engines`
lists only the usable ones (so differential suites and benchmarks
iterate exactly what runs here), :func:`registered_engines` lists
everything, and :func:`engine_availability` maps every registered name
to its reason.  Asking for a registered-but-unusable engine fails with
the *reason* ("numpy is not installed …"), not with "unknown engine" —
the difference between an actionable error and a confusing one.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple, Union

from repro.engine.base import Engine, EngineError

#: The backend used when callers do not ask for one explicitly.
DEFAULT_ENGINE = "reference"

#: Graceful-degradation ladder, most capable first.  When fallback is
#: enabled, an unavailable or runtime-failing backend degrades to the
#: next rung that is *usable* (per :func:`engine_availability`); every
#: rung produces bit-identical results, so degradation trades only
#: speed, never answers.
FALLBACK_LADDER: Tuple[str, ...] = ("vector", "bitpack", "reference")


def fallback_chain(engine: str) -> Tuple[str, ...]:
    """The degradation ladder starting at ``engine``.

    An engine on the ladder degrades to the rungs *below* it; an
    unknown/custom engine degrades to the whole built-in ladder (most
    capable first).  The chain always starts with ``engine`` itself
    and never repeats a name.

    >>> fallback_chain("vector")
    ('vector', 'bitpack', 'reference')
    >>> fallback_chain("reference")
    ('reference',)
    """
    if engine in FALLBACK_LADDER:
        index = FALLBACK_LADDER.index(engine)
        return FALLBACK_LADDER[index:]
    return (engine,) + FALLBACK_LADDER

_FACTORIES: Dict[str, Callable[[], Engine]] = {}
_INSTANCES: Dict[str, Engine] = {}
_PROBES: Dict[str, Callable[[], Optional[str]]] = {}


def register_engine(
    name: str,
    factory: Callable[[], Engine],
    overwrite: bool = False,
    probe: Optional[Callable[[], Optional[str]]] = None,
) -> None:
    """Register a backend factory under ``name``.

    ``overwrite=False`` protects the built-in backends from accidental
    shadowing; pass ``True`` to deliberately replace one.  ``probe``
    (optional) reports why the backend is unusable — ``None`` for
    usable — and is consulted on every listing/resolution, so a
    dependency installed mid-process is picked up.
    """
    if not name:
        raise EngineError("engine name must be non-empty")
    if name in _FACTORIES and not overwrite:
        raise EngineError(f"engine {name!r} is already registered")
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)
    if probe is not None:
        _PROBES[name] = probe
    else:
        _PROBES.pop(name, None)


def _unavailable_reason(name: str) -> Optional[str]:
    probe = _PROBES.get(name)
    if probe is None:
        return None
    return probe()


def available_engines() -> Tuple[str, ...]:
    """*Usable* backend names, sorted (probes passing)."""
    return tuple(
        sorted(
            name
            for name in _FACTORIES
            if _unavailable_reason(name) is None
        )
    )


def registered_engines() -> Tuple[str, ...]:
    """Every registered backend name, sorted, usable or not."""
    return tuple(sorted(_FACTORIES))


def engine_availability() -> Dict[str, Optional[str]]:
    """Every registered name → why it is unusable (``None`` = usable).

    The diagnostics surface: the CLI and the HTTP API render this so
    an operator can see *why* an engine is missing from the usable set.
    """
    return {
        name: _unavailable_reason(name)
        for name in sorted(_FACTORIES)
    }


def get_engine(engine: Union[str, Engine, None]) -> Engine:
    """Resolve a backend: a name, an :class:`Engine`, or ``None``.

    ``None`` resolves to :data:`DEFAULT_ENGINE`.  Instances pass
    through untouched, so callers can inject ad-hoc backends without
    registering them.  A registered name whose probe fails raises the
    probe's reason — actionable, unlike "unknown engine".
    """
    if engine is None:
        engine = DEFAULT_ENGINE
    if isinstance(engine, Engine):
        return engine
    try:
        factory = _FACTORIES[engine]
    except (KeyError, TypeError):
        raise EngineError(
            f"unknown engine {engine!r}; "
            f"available: {', '.join(available_engines())}"
        ) from None
    reason = _unavailable_reason(engine)
    if reason is not None:
        raise EngineError(
            f"engine {engine!r} is unavailable: {reason}"
        )
    instance = _INSTANCES.get(engine)
    if instance is None:
        instance = factory()
        _INSTANCES[engine] = instance
    return instance


def engine_name(engine: Union[str, Engine, None]) -> str:
    """The registry name a backend selector resolves to."""
    if engine is None:
        return DEFAULT_ENGINE
    if isinstance(engine, Engine):
        return engine.name or type(engine).__name__
    return engine
