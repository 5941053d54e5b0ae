"""Lazy re-exports (PEP 562) for the package ``__init__`` modules.

A package maps each public name to the module that defines it
(``"module"``, or ``"module:attribute"`` to re-export under another
name) and binds the pair this module builds::

    _EXPORTS = {"read_eqn": "repro.netlist.eqn_io", ...}
    __all__ = list(_EXPORTS)
    __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

A name's module is imported on first access and the value is cached in
the package namespace, so later lookups are plain attribute hits and a
bare ``import repro`` loads no code that a request does not run.
``__all__`` stays a list of every name, so ``from package import *``
resolves them all, and ``dir()`` lists them before they are loaded.

A package must not lazily export a name that is also one of its
submodules: importing the submodule binds the package attribute to the
module, which would then shadow the export.  Such a name is imported
eagerly (``repro.extract`` does so for ``diagnose``).
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, MutableMapping, Tuple


def lazy_exports(
    namespace: MutableMapping[str, Any], exports: Dict[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of a lazy package."""
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        source = exports.get(name)
        if source is None:
            if not name.startswith("__"):
                # A submodule nothing has imported yet: attribute access
                # loads it, as the eager imports used to.
                try:
                    return importlib.import_module(f"{package}.{name}")
                except ModuleNotFoundError as error:
                    if error.name != f"{package}.{name}":
                        raise
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        module, _, attribute = source.partition(":")
        value = getattr(importlib.import_module(module), attribute or name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
