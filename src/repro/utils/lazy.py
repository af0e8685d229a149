"""Package namespaces whose names are imported on first access."""

from __future__ import annotations

import importlib
from typing import Any, Callable, Mapping, Sequence


def lazy_exports(package: str, exports: Mapping[str, Sequence[str]]) -> Callable[[str], Any]:
    """Return a module ``__getattr__`` that imports each exported name on first access.

    ``exports`` maps a submodule of ``package`` to the names the package
    re-exports from it.  Bound as the package's ``__getattr__``, importing
    the package imports none of its submodules, and ``from package import
    name`` imports only the one defining ``name`` — so a process that serves
    a model never loads the modules that fit one.
    """
    home = {name: f"{package}.{module}" for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = home.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return getattr(importlib.import_module(module), name)

    return __getattr__
