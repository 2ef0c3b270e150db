"""Suite execution, reporting, corpus replay, and check.* metrics."""

from __future__ import annotations

import json

import pytest

from repro.check.registry import (
    BIT_IDENTICAL,
    INVARIANT,
    Check,
    CheckRegistry,
)
from repro.check.runner import (
    CheckReport,
    load_case,
    run_case,
    run_corpus,
    run_suite,
    save_case,
)
from repro.obs import MetricsRegistry, Tracer


def make_registry() -> CheckRegistry:
    reg = CheckRegistry()
    reg.add(Check(
        name="t.pass", subsystem="alpha", relation=BIT_IDENTICAL,
        gen=lambda rng: {"n": int(rng.integers(1, 100))},
        run=lambda params: [],
    ))
    reg.add(Check(
        name="t.fail_big", subsystem="alpha", relation=INVARIANT,
        gen=lambda rng: {"n": 64},
        run=lambda params: ["too big"] if params["n"] >= 10 else [],
        floors={"n": 1},
    ))
    reg.add(Check(
        name="t.crash", subsystem="beta", relation=BIT_IDENTICAL,
        gen=lambda rng: {"n": 1},
        run=lambda params: (_ for _ in ()).throw(RuntimeError("boom")),
        suites=("full",),
    ))
    return reg


class TestRunCase:
    def test_ok_case(self):
        check = make_registry().get("t.pass")
        result = run_case(check, {"n": 5})
        assert result.ok and result.violations == [] and result.error is None

    def test_violations_captured(self):
        check = make_registry().get("t.fail_big")
        result = run_case(check, {"n": 50})
        assert not result.ok and result.violations == ["too big"]

    def test_exception_becomes_error(self):
        check = make_registry().get("t.crash")
        result = run_case(check, {"n": 1})
        assert not result.ok
        assert "RuntimeError: boom" in result.error

    def test_metrics_emitted(self):
        obs = MetricsRegistry()
        tracer = Tracer()
        reg = make_registry()
        run_case(reg.get("t.pass"), {"n": 5}, obs=obs, tracer=tracer)
        run_case(reg.get("t.crash"), {"n": 1}, obs=obs, tracer=tracer)
        assert obs.counter("check.cases", "").value(tag="alpha") == 1
        assert obs.counter("check.cases", "").value(tag="beta") == 1
        assert obs.counter("check.failures", "").value(tag="beta") == 1
        spans = tracer.find("check.case")
        assert len(spans) == 2
        assert spans[0].attrs["ok"] is True
        assert spans[1].attrs["ok"] is False


class TestRunSuite:
    def test_quick_suite_skips_full_only_checks(self):
        report = run_suite(suite="quick", registry=make_registry())
        assert {r.check for r in report.results} == {"t.pass", "t.fail_big"}

    def test_full_suite_runs_everything(self):
        report = run_suite(suite="full", registry=make_registry())
        assert report.cases == 3
        assert report.failures == 2
        assert not report.ok

    def test_pairs_and_invariants_counted_distinctly(self):
        report = run_suite(suite="full", registry=make_registry(), cases=2)
        assert report.pairs_run == 2  # t.pass, t.crash
        assert report.invariants_run == 1  # t.fail_big
        assert report.cases == 6

    def test_cases_draw_distinct_workloads(self):
        report = run_suite(suite="quick", registry=make_registry(), cases=4)
        drawn = [
            r.params["n"] for r in report.results if r.check == "t.pass"
        ]
        assert len(set(drawn)) > 1

    def test_shrink_failures_attaches_reproducer(self):
        report = run_suite(
            suite="quick", registry=make_registry(), shrink_failures=True
        )
        (failing,) = [r for r in report.results if r.check == "t.fail_big"]
        assert failing.shrunk == {"n": 10}
        assert failing.shrink_evals > 0

    def test_names_filter(self):
        report = run_suite(registry=make_registry(), names=["t.pass"])
        assert {r.check for r in report.results} == {"t.pass"}

    def test_subsystems_filter(self):
        report = run_suite(
            suite="full", registry=make_registry(), subsystems=["beta"]
        )
        assert {r.check for r in report.results} == {"t.crash"}

    def test_ok_gauge_published(self):
        obs = MetricsRegistry()
        run_suite(suite="full", registry=make_registry(), obs=obs)
        assert obs.gauge("check.ok", "").value() == 0.0
        assert obs.gauge("check.pairs_run", "").value() == 2.0
        assert obs.gauge("check.invariants_run", "").value() == 1.0

    def test_report_as_dict_json_serializable(self):
        report = run_suite(suite="full", registry=make_registry())
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["cases"] == 3
        assert payload["subsystems"] == ["alpha", "beta"]


class TestCorpus:
    def test_save_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "case.json")
        save_case(path, "t.pass", {"n": 3}, note="why")
        payload = load_case(path)
        assert payload == {"check": "t.pass", "params": {"n": 3}, "note": "why"}

    def test_load_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"params": {}}))
        with pytest.raises(ValueError, match="missing"):
            load_case(str(path))

    def test_run_corpus_replays_pinned_cases(self, tmp_path):
        save_case(str(tmp_path / "a.json"), "t.pass", {"n": 3})
        save_case(str(tmp_path / "b.json"), "t.fail_big", {"n": 10})
        report = run_corpus(str(tmp_path), registry=make_registry())
        assert report.suite == "corpus"
        assert report.cases == 2
        assert report.failures == 1
        sources = {r.source for r in report.results}
        assert sources == {"corpus:a.json", "corpus:b.json"}

    def test_run_corpus_ignores_non_json(self, tmp_path):
        (tmp_path / "README.md").write_text("not a case")
        save_case(str(tmp_path / "a.json"), "t.pass", {"n": 3})
        report = run_corpus(str(tmp_path), registry=make_registry())
        assert report.cases == 1

    def test_missing_corpus_dir_is_empty_report(self, tmp_path):
        report = run_corpus(
            str(tmp_path / "nope"), registry=make_registry()
        )
        assert report.cases == 0 and report.ok


class TestCheckReport:
    def test_report_is_a_stats_view(self):
        report = CheckReport(suite="quick", seed=0)
        assert report.as_dict()["ok"] is True
