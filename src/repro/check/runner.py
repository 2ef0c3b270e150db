"""Execution of the differential check suites.

:func:`run_suite` draws seeded workloads for every registered check,
runs them, optionally shrinks failures to minimal reproducers, and
returns a :class:`CheckReport` that renders to the ``repro check``
CLI table or ``--json`` payload.  :func:`run_corpus` replays the
pinned reproducers committed under ``tests/check/corpus/`` — every bug
the harness ever flushed out stays a permanent regression test.

All outcomes are also published through :mod:`repro.obs` as ``check.*``
metrics (``check.cases`` / ``check.failures`` counters tagged by
subsystem, a ``check.ok`` gauge, and one ``check.case`` span per
executed case), so CI dashboards see the gate the same way they see
every other engine.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..obs import MetricsRegistry, StatsViewMixin, Tracer, json_safe
from .registry import CheckRegistry, Check, REGISTRY, case_rng, load_all
from .shrink import ShrinkResult, shrink_case

__all__ = [
    "CaseResult",
    "CheckReport",
    "run_case",
    "run_suite",
    "run_corpus",
    "save_case",
    "load_case",
    "default_corpus_dir",
]


@dataclass
class CaseResult:
    """One executed (check, params) case."""

    check: str
    subsystem: str
    kind: str
    relation: str
    params: Dict
    violations: List[str] = field(default_factory=list)
    error: Optional[str] = None
    seconds: float = 0.0
    case: int = 0
    source: str = "generated"  # or "corpus"
    shrunk: Optional[Dict] = None
    shrink_evals: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations and self.error is None

    def as_dict(self) -> Dict[str, Any]:
        out = {
            "check": self.check,
            "subsystem": self.subsystem,
            "kind": self.kind,
            "relation": self.relation,
            "params": self.params,
            "ok": self.ok,
            "violations": self.violations,
            "error": self.error,
            "seconds": round(self.seconds, 4),
            "case": self.case,
            "source": self.source,
        }
        if self.shrunk is not None:
            out["shrunk"] = self.shrunk
            out["shrink_evals"] = self.shrink_evals
        return out


@dataclass
class CheckReport(StatsViewMixin):
    """Aggregated outcome of a suite or corpus run."""

    suite: str
    seed: int
    results: List[CaseResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def cases(self) -> int:
        return len(self.results)

    @property
    def failures(self) -> int:
        return sum(not r.ok for r in self.results)

    @property
    def pairs_run(self) -> int:
        return len({r.check for r in self.results if r.kind == "pair"})

    @property
    def invariants_run(self) -> int:
        return len({r.check for r in self.results if r.kind == "invariant"})

    def subsystems(self) -> List[str]:
        return sorted({r.subsystem for r in self.results})

    def failing(self) -> List[CaseResult]:
        return [r for r in self.results if not r.ok]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "ok": self.ok,
            "cases": self.cases,
            "failures": self.failures,
            "pairs_run": self.pairs_run,
            "invariants_run": self.invariants_run,
            "subsystems": self.subsystems(),
            "results": [r.as_dict() for r in self.results],
        }


def run_case(
    check: Check,
    params: Dict,
    case: int = 0,
    source: str = "generated",
    obs: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
) -> CaseResult:
    """Execute one check on pinned params; exceptions become failures."""
    result = CaseResult(
        check=check.name, subsystem=check.subsystem, kind=check.kind,
        relation=check.relation, params=dict(params), case=case, source=source,
    )
    span = (
        tracer.span("check.case", check=check.name, case=case)
        if tracer is not None else None
    )
    start = time.perf_counter()
    try:
        result.violations = list(check.run(dict(params)))
    except Exception as exc:
        result.error = f"{type(exc).__name__}: {exc}"
    result.seconds = time.perf_counter() - start
    if span is not None:
        span.set("ok", result.ok)
        span.__exit__(None, None, None)
    if obs is not None:
        obs.counter("check.cases", "differential cases executed").inc(
            tag=check.subsystem
        )
        if not result.ok:
            obs.counter("check.failures", "differential cases failed").inc(
                tag=check.subsystem
            )
    return result


def run_suite(
    suite: str = "full",
    seed: int = 0,
    cases: int = 1,
    shrink_failures: bool = False,
    names: Optional[Sequence[str]] = None,
    subsystems: Optional[Sequence[str]] = None,
    registry: Optional[CheckRegistry] = None,
    obs: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    max_shrink_evals: int = 120,
) -> CheckReport:
    """Run every selected check on ``cases`` seeded workloads each."""
    registry = registry if registry is not None else load_all()
    report = CheckReport(suite=suite, seed=seed)
    for check in registry.select(
        suite=None if names else suite, names=names, subsystems=subsystems
    ):
        for case in range(cases):
            params = check.gen(case_rng(check.name, seed, case))
            result = run_case(
                check, params, case=case, obs=obs, tracer=tracer
            )
            if not result.ok and shrink_failures and check.floors:
                shrunk: ShrinkResult = shrink_case(
                    check, params, max_evals=max_shrink_evals
                )
                result.shrunk = shrunk.params
                result.shrink_evals = shrunk.evals
            report.results.append(result)
    _publish(report, obs)
    return report


def _publish(report: CheckReport, obs: Optional[MetricsRegistry]) -> None:
    if obs is None:
        return
    obs.gauge("check.ok", "1 when the last check run passed").set(
        1.0 if report.ok else 0.0
    )
    obs.gauge("check.pairs_run", "distinct oracle pairs executed").set(
        float(report.pairs_run)
    )
    obs.gauge("check.invariants_run", "distinct invariants executed").set(
        float(report.invariants_run)
    )


# ----------------------------------------------------------------------
# Corpus: pinned minimal reproducers
# ----------------------------------------------------------------------


def default_corpus_dir() -> str:
    """``tests/check/corpus`` relative to a repo checkout, if present."""
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    return os.path.join(root, "tests", "check", "corpus")


def save_case(
    path: str, check: str, params: Dict, note: str = ""
) -> str:
    """Write one corpus reproducer as JSON; returns the path."""
    payload = {"check": check, "params": json_safe(params), "note": note}
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_case(path: str) -> Dict:
    with open(path) as handle:
        payload = json.load(handle)
    for key in ("check", "params"):
        if key not in payload:
            raise ValueError(f"corpus file {path} missing {key!r}")
    return payload


def run_corpus(
    corpus_dir: Optional[str] = None,
    registry: Optional[CheckRegistry] = None,
    obs: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
) -> CheckReport:
    """Replay every pinned reproducer in ``corpus_dir``."""
    registry = registry if registry is not None else load_all()
    corpus_dir = corpus_dir or default_corpus_dir()
    report = CheckReport(suite="corpus", seed=-1)
    if not os.path.isdir(corpus_dir):
        return report
    for name in sorted(os.listdir(corpus_dir)):
        if not name.endswith(".json"):
            continue
        payload = load_case(os.path.join(corpus_dir, name))
        check = registry.get(payload["check"])
        result = run_case(
            check, payload["params"], source=f"corpus:{name}",
            obs=obs, tracer=tracer,
        )
        report.results.append(result)
    _publish(report, obs)
    return report
