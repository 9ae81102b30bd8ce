"""Lazy package exports (PEP 562).

Every package ``__init__`` in :mod:`repro` re-exports the public names
of its submodules, but importing a package must not import those
submodules: a ``repro disasm`` process would otherwise load the
generator, the linter, the fleet and the obs store just to reach the
disassembler.  A package declares which submodule defines each name,
and the name is imported on first attribute access::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "container": ("Binary", "Section"),
        "loader": ("TestCase",),
    })

``from pkg import Name``, ``pkg.Name`` and ``from pkg import *`` behave
as with eager imports; an unknown name raises :class:`AttributeError`.
"""

from __future__ import annotations

import importlib
import sys
import types
from collections.abc import Callable, Iterable


class _LazyPackage(types.ModuleType):
    """Module type of a package with lazy exports.

    Importing submodule ``pkg.x`` binds attribute ``x`` of ``pkg`` to
    the submodule.  Where ``x`` is also an exported name (``aggregate``
    in :mod:`repro.fleet` is both a function and a submodule), the
    export keeps the name, as it did when packages imported eagerly.
    """

    def __setattr__(self, name: str, value) -> None:
        if (isinstance(value, types.ModuleType)
                and value.__name__ == f"{self.__name__}.{name}"
                and name in self.__dict__.get("_lazy_exports", ())):
            return
        super().__setattr__(name, value)


def lazy_exports(package: str, submodules: dict[str, Iterable[str]]
                 ) -> tuple[Callable[[str], object], Callable[[], list[str]],
                            list[str]]:
    """``(__getattr__, __dir__, __all__)`` for package ``package``.

    ``submodules`` maps a submodule name (relative to ``package``) to
    the public names it defines; ``__all__`` lists them in that order.
    """
    where = {name: sub for sub, names in submodules.items()
             for name in names}
    module = sys.modules[package]
    module._lazy_exports = where
    module.__class__ = _LazyPackage

    def __getattr__(name: str):
        sub = where.get(name)
        if sub is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{sub}"), name)
        setattr(module, name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(module.__dict__) | set(where))

    return __getattr__, __dir__, list(where)
