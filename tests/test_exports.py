"""Package ``__init__`` files are lazy re-export tables (:mod:`repro._exports`).

Two contracts:

* **isolation** — a process loads only the modules it uses: importing one
  entry point in a fresh interpreter leaves the unrelated subpackages
  unloaded, and a leaf module imports nothing else from ``repro``;
* **integrity** — the public API is what the eager imports gave: every
  name in a package's ``__all__`` reads as the object its submodule
  binds under that name, ``dir()`` lists it, and ``from pkg import *``
  binds exactly ``__all__``.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

SUBPACKAGES = sorted(m.name for m in pkgutil.iter_modules(repro.__path__) if m.ispkg)
PACKAGES = ["repro"] + sorted(
    m.name for m in pkgutil.walk_packages(repro.__path__, "repro.") if m.ispkg
)


def _loaded_after(statement):
    """The ``repro`` modules a fresh interpreter holds after ``statement``."""
    code = (
        f"import json, sys\n{statement}\n"
        "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'repro']))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def _subpackages(modules):
    return {m.split(".")[1] for m in modules if "." in m}


@pytest.mark.parametrize(
    "statement, unrelated",
    [
        ("from repro.graph.store import *",
         {"gnn", "serve", "matching", "tlag", "tlav", "core", "cluster", "fsm",
          "parallel", "check"}),
        ("import repro.gnn.train",
         {"serve", "matching", "tlag", "tlav", "core", "fsm", "parallel", "check"}),
        ("from repro.matching import *",
         {"gnn", "serve", "tlag", "tlav", "core", "cluster", "fsm", "parallel",
          "check", "resilience"}),
        ("from repro.serve import *",
         {"gnn", "tlag", "tlav", "core", "cluster", "fsm", "parallel", "check"}),
        ("import repro.__main__",
         {"gnn", "serve", "tlag", "tlav", "cluster", "fsm", "parallel", "check",
          "obs", "resilience"}),
    ],
    ids=["graph.store", "gnn.train", "matching", "serve", "__main__"],
)
def test_entry_point_loads_no_unrelated_subpackage(statement, unrelated):
    loaded = _subpackages(_loaded_after(statement))
    assert not loaded & unrelated, sorted(loaded & unrelated)


@pytest.mark.parametrize("leaf", ["repro._exports", "repro.lru", "repro.sim"])
def test_leaf_module_imports_nothing_from_repro(leaf):
    assert set(_loaded_after(f"import {leaf}")) == {"repro", "repro._exports", leaf}


def test_top_level_lists_every_subpackage():
    assert set(SUBPACKAGES) <= set(repro.__all__)
    for name in SUBPACKAGES:
        assert getattr(repro, name) is sys.modules[f"repro.{name}"]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_is_its_submodules_object(package):
    pkg = importlib.import_module(package)
    submodules = {m.name for m in pkgutil.iter_modules(pkg.__path__)}
    listed = set(dir(pkg))
    for name in pkg.__all__:
        assert name in listed, name
        value = getattr(pkg, name)
        assert vars(pkg)[name] is value  # resolved once, then a plain global
        if package == "repro" or name.startswith("__"):
            continue
        assert name not in submodules, f"{package}.{name} shadows a submodule"
        owners = [
            module for key, module in list(sys.modules.items())
            if key.startswith(f"{package}.") and getattr(module, name, None) is value
        ]
        assert owners, f"{package}.{name} is bound by no submodule"


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_binds_exactly_all(package):
    namespace = {}
    exec(f"from {package} import *", namespace)
    namespace.pop("__builtins__")
    pkg = sys.modules[package]
    assert set(namespace) == set(pkg.__all__)
    assert all(namespace[name] is getattr(pkg, name) for name in pkg.__all__)


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.graph.no_such_name
    assert not hasattr(repro.graph, "no_such_name")
