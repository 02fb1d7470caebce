"""Lazy package exports (PEP 562).

A package ``__init__`` declares where each public name lives instead of
importing it, so ``import repro.serve`` costs nothing until a name is
used, and a process loads only the modules it actually touches.
"""

from __future__ import annotations

from importlib import import_module


def lazy_exports(package: str, namespace: dict, exports: dict, submodules=()):
    """Module-level ``__getattr__`` and ``__dir__`` for a package.

    ``exports`` maps a module (relative to ``package``) to the names the
    package re-exports from it; ``submodules`` are re-exported modules.
    The first access imports the name and caches it in ``namespace`` (the
    package globals), so ``__getattr__`` runs at most once per name.
    """
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        if name in submodules:
            value = import_module(f"{package}.{name}")
        elif name in origin:
            value = getattr(import_module(origin[name], package), name)
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *origin, *submodules})

    return __getattr__, __dir__
