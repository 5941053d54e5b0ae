"""Backend registry: name → engine factory.

The rest of the system selects a backend by name (``engine="bitpack"``
in the library API, ``--engine bitpack`` on the CLI); the registry maps
those names to lazily-constructed singleton :class:`Engine` instances.
Third-party backends register themselves with :func:`register_engine`
— the only requirement is the :class:`~repro.engine.base.Engine`
interface and exception contract.  Every registered backend is usable:
both built-ins are pure Python, so there is nothing to probe at
startup, and a backend that fails at run time degrades down
:data:`FALLBACK_LADDER` where the caller asks for it.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple, Union

from repro.engine.base import Engine, EngineError

#: The backend used when callers do not ask for one explicitly.
#: ``reference`` stays the oracle and the last fallback rung; the paper
#: tables pin it because its ``peak_terms`` is the paper's memory proxy.
DEFAULT_ENGINE = "bitpack"

#: Graceful-degradation ladder, most capable first.  When fallback is
#: enabled, a backend that fails at run time degrades to the next
#: registered rung; every rung produces bit-identical results, so
#: degradation trades only speed, never answers.
FALLBACK_LADDER: Tuple[str, ...] = ("bitpack", "reference")


def fallback_chain(engine: str) -> Tuple[str, ...]:
    """The degradation ladder starting at ``engine``.

    An engine on the ladder degrades to the rungs *below* it; an
    unknown/custom engine degrades to the whole built-in ladder (most
    capable first).  The chain always starts with ``engine`` itself
    and never repeats a name.

    >>> fallback_chain("bitpack")
    ('bitpack', 'reference')
    >>> fallback_chain("reference")
    ('reference',)
    """
    if engine in FALLBACK_LADDER:
        index = FALLBACK_LADDER.index(engine)
        return FALLBACK_LADDER[index:]
    return (engine,) + FALLBACK_LADDER

_FACTORIES: Dict[str, Callable[[], Engine]] = {}
_INSTANCES: Dict[str, Engine] = {}


def register_engine(
    name: str,
    factory: Callable[[], Engine],
    overwrite: bool = False,
) -> None:
    """Register a backend factory under ``name``.

    ``overwrite=False`` protects the built-in backends from accidental
    shadowing; pass ``True`` to deliberately replace one.
    """
    if not name:
        raise EngineError("engine name must be non-empty")
    if name in _FACTORIES and not overwrite:
        raise EngineError(f"engine {name!r} is already registered")
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def registered_engines() -> Tuple[str, ...]:
    """Every registered backend name, sorted."""
    return tuple(sorted(_FACTORIES))


def engine_availability() -> Dict[str, None]:
    """Every registered name → ``None`` (no backend has a probe).

    Kept only because the benchmark's readiness script
    (``perfbench/ready.py``) imports it; use :func:`registered_engines`.
    """
    return {name: None for name in registered_engines()}


def get_engine(engine: Union[str, Engine, None]) -> Engine:
    """Resolve a backend: a name, an :class:`Engine`, or ``None``.

    ``None`` resolves to :data:`DEFAULT_ENGINE`.  Instances pass
    through untouched, so callers can inject ad-hoc backends without
    registering them.
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
            f"available: {', '.join(registered_engines())}"
        ) from None
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
