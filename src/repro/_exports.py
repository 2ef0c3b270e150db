"""Lazy package re-exports: a name is imported the first time it is read.

Every package ``__init__`` in ``repro`` is its docstring plus one table::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "csr": ("Graph", "GraphBuilder"),
        "delta": ("EdgeDelta", "apply_edge_updates"),
    })

The first read of ``pkg.Graph`` imports ``pkg.csr`` (PEP 562 module
``__getattr__``) and stores ``Graph`` in the package's globals, so every
later read is a plain attribute lookup.  A process therefore loads only
the modules it uses.  A submodule mapped to ``None`` is exported as
itself (the top-level package lists its subpackages that way).
``__all__`` is the table's names in order, so ``from pkg import *``
imports every submodule the table names.  Imports nothing from
``repro``.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, table: Mapping[str, Optional[Sequence[str]]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """The ``(__getattr__, __dir__, __all__)`` of ``package`` from ``table``."""
    owner: Dict[str, str] = {}
    for submodule, names in table.items():
        for name in (submodule,) if names is None else names:
            if name in owner:
                raise ValueError(f"{package}: {name!r} is exported twice")
            owner[name] = submodule

    def __getattr__(name: str) -> Any:
        submodule = owner.get(name)
        if submodule is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f"{package}.{submodule}")
        value = module if table[submodule] is None else getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(vars(sys.modules[package]).keys() | owner.keys())

    return __getattr__, __dir__, list(owner)
