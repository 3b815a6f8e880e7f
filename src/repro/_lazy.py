"""Lazy package exports (PEP 562): a name's module loads on first use.

A package ``__init__`` declares which module provides each public name;
importing the package then costs nothing, and ``repro-gap --help`` or a
``flow`` run loads only the modules it touches.
"""

from __future__ import annotations

import importlib
import sys


def attach(package: str, exports: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__, __all__)`` resolving ``exports`` lazily.

    ``exports`` maps a module to the names it provides.  A name that is
    the module itself (``{"repro.par.memo": ("memo",)}``) resolves to the
    module.  A resolved value is cached in the package namespace, so
    only the first access pays.
    """
    origin = {name: module for module, names in exports.items()
              for name in names}

    def __getattr__(name: str):
        if name not in origin:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(origin[name])
        value = (module if module.__name__ == f"{package}.{name}"
                 else getattr(module, name))
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | origin.keys())

    return __getattr__, __dir__, list(origin)
