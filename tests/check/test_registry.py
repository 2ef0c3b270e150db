"""The oracle registry: declarations, selection, seeded workloads."""

from __future__ import annotations

import numpy as np
import pytest

from repro.check import (
    BIT_IDENTICAL,
    INVARIANT,
    REGISTRY,
    Check,
    CheckRegistry,
    case_rng,
    load_all,
)
from repro.check.registry import SUITES


@pytest.fixture(scope="module")
def registry() -> CheckRegistry:
    return load_all()


class TestLoadAll:
    def test_covers_required_subsystems(self, registry):
        assert {"tlav", "tlag", "fsm", "matching", "gnn", "parallel"} <= set(
            registry.subsystems()
        )

    def test_simulated_schedule_oracles_gate_ci(self, registry):
        """The four oracles over repro.sim's clients run in the CI suite."""
        quick = {c.name for c in registry.select(suite="quick")}
        assert {
            "fsm.prefixfpm.workers_vs_serial",
            "fsm.mni.parallel_vs_serial",
            "tlag.cliques.distributed_vs_shared",
            "tlag.schedule.work_conserved",
        } <= quick

    def test_at_least_twelve_pairs_in_full_suite(self, registry):
        """The acceptance floor: >= 12 oracle pairs in the full suite."""
        assert len(registry.pairs("full")) >= 12

    def test_every_relation_is_declared(self, registry):
        for check in registry:
            assert check.relation in (
                "bit_identical", "permutation", "bounded_error", "invariant"
            )

    def test_every_check_in_a_known_suite(self, registry):
        for check in registry:
            assert check.suites
            assert set(check.suites) <= set(SUITES)

    def test_quick_is_a_subset_of_full(self, registry):
        quick = {c.name for c in registry.select(suite="quick")}
        full = {c.name for c in registry.select(suite="full")}
        assert quick <= full

    def test_floors_name_real_parameters(self, registry):
        """Every floor key must appear in the check's own workloads."""
        for check in registry:
            params = check.gen(case_rng(check.name, 0, 0))
            for key in check.floors:
                assert key in params, f"{check.name}: floor {key!r} unused"

    def test_load_all_idempotent(self, registry):
        assert load_all() is REGISTRY
        assert len(load_all()) == len(registry)


class TestRegistryMechanics:
    def _check(self, name="t.example", relation=BIT_IDENTICAL, **kw):
        return Check(
            name=name, subsystem="t", relation=relation,
            gen=lambda rng: {"n": int(rng.integers(1, 10))},
            run=lambda params: [], **kw,
        )

    def test_duplicate_name_rejected(self):
        reg = CheckRegistry()
        reg.add(self._check())
        with pytest.raises(ValueError, match="duplicate"):
            reg.add(self._check())

    def test_unknown_relation_rejected(self):
        with pytest.raises(ValueError, match="unknown relation"):
            self._check(relation="close_enough")

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            self._check(suites=("nightly",))

    def test_pair_decorator_refuses_invariant_relation(self):
        reg = CheckRegistry()
        with pytest.raises(ValueError, match="invariant"):
            reg.pair("x", "t", INVARIANT, gen=lambda rng: {})

    def test_select_by_name_subsystem_suite(self):
        reg = CheckRegistry()
        reg.add(self._check("a.one"))
        reg.add(self._check("b.two", suites=("full",)))
        assert [c.name for c in reg.select(suite="quick")] == ["a.one"]
        assert [c.name for c in reg.select(names=["b.two"])] == ["b.two"]
        assert [c.name for c in reg.select(subsystems=["t"])] == [
            "a.one", "b.two"
        ]

    def test_get_unknown_name(self):
        with pytest.raises(KeyError, match="unknown check"):
            CheckRegistry().get("nope")


class TestCaseRng:
    def test_deterministic(self):
        a = case_rng("some.check", 3, 1).integers(0, 1 << 30, size=8)
        b = case_rng("some.check", 3, 1).integers(0, 1 << 30, size=8)
        assert np.array_equal(a, b)

    def test_keyed_on_name_seed_and_case(self):
        base = case_rng("some.check", 3, 1).integers(0, 1 << 30, size=8)
        for other in (
            case_rng("other.check", 3, 1),
            case_rng("some.check", 4, 1),
            case_rng("some.check", 3, 2),
        ):
            assert not np.array_equal(base, other.integers(0, 1 << 30, size=8))

    def test_workloads_stable_across_registry_growth(self):
        """Adding checks must not perturb another check's workloads."""
        registry = load_all()
        check = registry.get("graph.csr.well_formed")
        before = check.gen(case_rng(check.name, 0, 0))
        registry  # ordering-independent: keyed on name, not position
        after = check.gen(case_rng(check.name, 0, 0))
        assert before == after
