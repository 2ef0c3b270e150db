"""Oracle registry for differential correctness checking.

The tutorial's central claim is that every engine family computes the
*same answers* by different means; this repository reproduces that with
redundant implementations (in-memory vs out-of-core vs vectorized vs
distributed TLAV, interpreted vs compiled matching, serial vs parallel
backends).  GraphD [55] and the quantization literature both define
correctness against the in-memory/exact reference — bit-identical where
the computation is deterministic, bounded-error where it is lossy.

This module is the *declaration* layer: every redundant-implementation
pair in the codebase registers itself here as a :class:`Check`, naming

* the **equivalence relation** it promises (``bit_identical``,
  ``permutation`` of an unordered result set, ``bounded_error`` for
  quantization/staleness, or ``invariant`` for single-implementation
  structural properties such as CSR well-formedness);
* a seeded **workload generator** drawing parameters from
  :mod:`repro.graph.generators`;
* **shrink floors** — the per-parameter minimums the greedy shrinker in
  :mod:`repro.check.shrink` may reduce a failing workload toward.

Checks live in per-subsystem ``checks`` modules
(``repro.tlav.checks``, ``repro.matching.checks``, ...) so each engine
family owns its own oracle declarations; :func:`load_all` imports them
all and returns the populated global :data:`REGISTRY`.
"""

from __future__ import annotations

import importlib
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "BIT_IDENTICAL",
    "PERMUTATION",
    "BOUNDED_ERROR",
    "INVARIANT",
    "Check",
    "CheckRegistry",
    "REGISTRY",
    "pair",
    "invariant",
    "load_all",
    "case_rng",
]

# Equivalence relations an oracle pair may promise.
BIT_IDENTICAL = "bit_identical"
PERMUTATION = "permutation"
BOUNDED_ERROR = "bounded_error"
# Structural property of a single implementation (not a pair).
INVARIANT = "invariant"

_RELATIONS = (BIT_IDENTICAL, PERMUTATION, BOUNDED_ERROR, INVARIANT)

SUITES = ("quick", "full")

#: Modules that declare checks.  Importing them populates REGISTRY.
CHECK_MODULES = (
    "repro.graph.checks",
    "repro.graph.store.checks",
    "repro.tlav.checks",
    "repro.tlag.checks",
    "repro.fsm.checks",
    "repro.matching.checks",
    "repro.gnn.checks",
    "repro.parallel.checks",
    "repro.resilience.checks",
    "repro.serve.checks",
)


@dataclass
class Check:
    """One registered differential check.

    ``gen(rng)`` draws a workload parameter dict; ``run(params)``
    executes both sides (or the invariant) and returns a list of
    violation messages — empty means the equivalence held.  Any
    exception raised by ``run`` is itself a violation (a crash on one
    side of a pair is the strongest kind of divergence).
    """

    name: str
    subsystem: str
    relation: str
    gen: Callable[[np.random.Generator], Dict]
    run: Callable[[Dict], List[str]]
    floors: Dict[str, float] = field(default_factory=dict)
    suites: Tuple[str, ...] = SUITES
    description: str = ""

    @property
    def kind(self) -> str:
        return "invariant" if self.relation == INVARIANT else "pair"

    def __post_init__(self) -> None:
        if self.relation not in _RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")
        for suite in self.suites:
            if suite not in SUITES:
                raise ValueError(f"unknown suite {suite!r}")


class CheckRegistry:
    """Name-keyed collection of :class:`Check` declarations."""

    def __init__(self) -> None:
        self._checks: Dict[str, Check] = {}

    # -- registration ------------------------------------------------------

    def add(self, check: Check) -> Check:
        if check.name in self._checks:
            raise ValueError(f"duplicate check {check.name!r}")
        self._checks[check.name] = check
        return check

    def pair(
        self,
        name: str,
        subsystem: str,
        relation: str,
        gen: Callable[[np.random.Generator], Dict],
        floors: Optional[Dict[str, float]] = None,
        suites: Tuple[str, ...] = SUITES,
        description: str = "",
    ) -> Callable[[Callable[[Dict], List[str]]], Callable[[Dict], List[str]]]:
        """Decorator registering an oracle-pair ``run`` function."""
        if relation == INVARIANT:
            raise ValueError("use .invariant() for invariant checks")

        def deco(run: Callable[[Dict], List[str]]):
            self.add(Check(
                name=name, subsystem=subsystem, relation=relation, gen=gen,
                run=run, floors=dict(floors or {}), suites=suites,
                description=description or (run.__doc__ or "").strip(),
            ))
            return run

        return deco

    def invariant(
        self,
        name: str,
        subsystem: str,
        gen: Callable[[np.random.Generator], Dict],
        floors: Optional[Dict[str, float]] = None,
        suites: Tuple[str, ...] = SUITES,
        description: str = "",
    ) -> Callable[[Callable[[Dict], List[str]]], Callable[[Dict], List[str]]]:
        """Decorator registering a structural-invariant ``run`` function."""

        def deco(run: Callable[[Dict], List[str]]):
            self.add(Check(
                name=name, subsystem=subsystem, relation=INVARIANT, gen=gen,
                run=run, floors=dict(floors or {}), suites=suites,
                description=description or (run.__doc__ or "").strip(),
            ))
            return run

        return deco

    # -- lookup ------------------------------------------------------------

    def get(self, name: str) -> Check:
        try:
            return self._checks[name]
        except KeyError:
            raise KeyError(
                f"unknown check {name!r}; known: {sorted(self._checks)}"
            ) from None

    def select(
        self,
        suite: Optional[str] = None,
        names: Optional[Sequence[str]] = None,
        subsystems: Optional[Sequence[str]] = None,
    ) -> List[Check]:
        """Checks filtered by suite membership, name, and subsystem."""
        chosen = [self.get(n) for n in names] if names else list(self)
        if suite is not None:
            chosen = [c for c in chosen if suite in c.suites]
        if subsystems:
            chosen = [c for c in chosen if c.subsystem in subsystems]
        return chosen

    def pairs(self, suite: Optional[str] = None) -> List[Check]:
        return [c for c in self.select(suite) if c.kind == "pair"]

    def invariants(self, suite: Optional[str] = None) -> List[Check]:
        return [c for c in self.select(suite) if c.kind == "invariant"]

    def subsystems(self) -> List[str]:
        return sorted({c.subsystem for c in self})

    def __iter__(self) -> Iterator[Check]:
        return iter(sorted(self._checks.values(), key=lambda c: c.name))

    def __len__(self) -> int:
        return len(self._checks)

    def __contains__(self, name: str) -> bool:
        return name in self._checks


#: The process-wide registry every ``checks`` module populates.
REGISTRY = CheckRegistry()

pair = REGISTRY.pair
invariant = REGISTRY.invariant


def load_all() -> CheckRegistry:
    """Import every subsystem's ``checks`` module; returns REGISTRY."""
    for module in CHECK_MODULES:
        importlib.import_module(module)
    return REGISTRY


def case_rng(check_name: str, seed: int, case: int = 0) -> np.random.Generator:
    """Deterministic per-(check, seed, case) generator.

    Keyed on a stable hash of the check's *name* rather than its
    position in the registry, so adding or removing checks never
    perturbs the workloads other checks draw.
    """
    return np.random.default_rng(
        [np.uint32(zlib.crc32(check_name.encode())), np.uint32(seed), np.uint32(case)]
    )
