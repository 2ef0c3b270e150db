"""The measured cost model behind ``backend="auto"``.

Pinned properties: a call with no serial measurement runs serial, an
unmeasured pool is tried once wherever its best case could win and is
judged on its own measured rate after that, a cold pool pays the
measured cold start, a degraded executor stays serial, calibration is
a pure EWMA fold (same observations -> same decisions, so auto mode is
deterministic), the model never changes the span layout, and the
process-wide default model persists across executors within a session.
"""

import numpy as np
import pytest

from repro.graph.generators import barabasi_albert
from repro.obs import MetricsRegistry
from repro.parallel import (
    CostModel,
    ParallelExecutor,
    default_cost_model,
    reset_default_cost_model,
)
from repro.parallel.chunking import chunk_spans
from repro.parallel.costmodel import ALPHA, COLD_START
from repro.parallel.executor import _fn_key


def _span_vertices(graph, span):
    lo, hi = span
    return hi - lo


def _span_bounds(graph, span):
    return span


def _decisions(obs):
    return obs.counter("parallel.auto_decisions").series()


@pytest.fixture(autouse=True)
def fresh_default_model():
    reset_default_cost_model()
    yield
    reset_default_cost_model()


class TestEstimates:
    def test_no_serial_measurement_runs_serial(self):
        model = CostModel()
        assert model.choose("k", items=10_000, workers=8, cold=False) == "serial"
        # A process rate alone is no reference: serial still runs first.
        model.observe("k", "process", items=100, wall=0.01)
        assert model.choose("k", items=10_000, workers=8, cold=False) == "serial"

    @pytest.mark.parametrize("process_wall, kept", [(0.2, False), (0.05, True)])
    def test_unmeasured_process_is_tried_once_then_judged(self, process_wall, kept):
        model = CostModel()
        model.observe("k", "serial", items=100, wall=0.1)
        # Best case serial / workers undercuts serial on a warm, shared pool.
        assert model.choose("k", items=100, workers=4, cold=False) == "process"
        model.observe("k", "process", items=100, wall=process_wall)
        want = "process" if kept else "serial"
        assert model.choose("k", items=100, workers=4, cold=False) == want

    def test_cold_start_is_charged_until_measured(self):
        model = CostModel()
        model.observe("k", "serial", items=100, wall=0.1)
        assert model.snapshot()["cold_start"] == COLD_START
        # 0.025 s best case + the 0.25 s seed loses to 0.1 s serial.
        assert model.choose("k", items=100, workers=4, cold=True) == "serial"
        assert model.choose("k", items=100, workers=4, cold=False) == "process"
        # Measured 10 ms warm-ups of another fan-out fold into the seed.
        model.observe("j", "process", items=10, wall=0.02, warmup=0.01)
        expected = (1 - ALPHA) * COLD_START + ALPHA * 0.01
        assert model.snapshot()["cold_start"] == pytest.approx(expected)
        for _ in range(4):
            model.observe("j", "process", items=10, wall=0.02, warmup=0.01)
            expected = (1 - ALPHA) * expected + ALPHA * 0.01
        assert model.snapshot()["cold_start"] == pytest.approx(expected)
        # Now the measured warm-ups, not the seed, set the charge: a
        # cold pool wins.
        assert model.choose("k", items=100, workers=4, cold=True) == "process"

    def test_ties_break_toward_the_simpler_backend(self):
        model = CostModel()
        model.observe("k", "serial", items=10, wall=0.1)
        # One worker: the best case equals serial exactly.
        assert model.choose("k", items=10, workers=1, cold=False) == "serial"
        model.observe("k", "process", items=10, wall=0.1)
        assert model.choose("k", items=10, workers=4, cold=False) == "serial"

    def test_warmup_excluded_from_calibration(self):
        model = CostModel()
        model.observe("k", "serial", items=100, wall=0.2)
        # 1s of wall, but 0.9s was one-time pool spawn: a warm repeat
        # costs 0.1s, and that is the rate the model must learn.
        model.observe("k", "process", items=100, wall=1.0, warmup=0.9)
        assert model.snapshot()["wall_per_item"]["k|process"] == pytest.approx(1e-3)
        assert model.choose("k", items=100, workers=4, cold=False) == "process"


class TestAutoExecutor:
    def test_degraded_executor_never_picks_process(self):
        graph = barabasi_albert(120, 3, seed=4)
        model = CostModel()
        # A serial rate so slow that even a cold pool would win.
        model.observe(_fn_key(_span_vertices), "serial", items=1, wall=1.0)
        obs = MetricsRegistry()
        with ParallelExecutor(
            backend="auto", workers=2, obs=obs, cost_model=model,
        ) as ex:
            assert model.choose(
                _fn_key(_span_vertices), graph.num_vertices, 2, cold=True
            ) == "process"
            ex._degrade()  # what repeated pool losses leave behind
            for _ in range(3):
                ex.map_spans(_span_vertices, graph, graph.num_vertices)
        assert _decisions(obs) == {"backend=serial": 3}


class TestDeterminism:
    def test_same_observations_same_decisions(self):
        rng = np.random.default_rng(7)
        trace = [
            (
                f"fn{int(rng.integers(3))}",
                ("serial", "process")[int(rng.integers(2))],
                int(rng.integers(1, 1000)),
                float(rng.uniform(1e-4, 1e-1)),
            )
            for _ in range(40)
        ]
        decisions = []
        for _ in range(2):
            model = CostModel()
            run = []
            for key, backend, items, busy in trace:
                model.observe(key, backend, items=items, wall=busy * 1.5)
                run.append(
                    model.choose(key, items=items, workers=4, cold=busy > 0.05)
                )
            decisions.append(run)
        assert decisions[0] == decisions[1]

    def test_auto_executor_is_deterministic_at_fixed_seed(self):
        graph = barabasi_albert(400, 3, seed=11)

        def run_once():
            obs = MetricsRegistry()
            with ParallelExecutor(
                backend="auto", workers=2, obs=obs,
                cost_model=CostModel(),
            ) as ex:
                results = []
                for _ in range(3):
                    results.append(
                        ex.map_spans(_span_vertices, graph, graph.num_vertices)
                    )
            return results, _decisions(obs)

        first_results, first_counts = run_once()
        second_results, second_counts = run_once()
        assert first_results == second_results
        assert first_counts == second_counts
        assert sum(first_counts.values()) == 3

    def test_calibration_never_changes_the_spans(self):
        graph = barabasi_albert(400, 3, seed=11)
        model = CostModel()
        # Nearly free items: a model that sized spans by measured work
        # would now cut one span per worker.
        model.observe("k", "serial", items=1000, wall=1e-6)
        want = chunk_spans(graph.num_vertices, None, 2)
        with ParallelExecutor(
            backend="auto", workers=2, cost_model=model,
        ) as ex:
            for _ in range(3):
                assert ex.map_spans(_span_bounds, graph, graph.num_vertices) == want
        assert len(want) == 8

    def test_first_auto_call_runs_serial(self):
        graph = barabasi_albert(120, 3, seed=2)
        obs = MetricsRegistry()
        with ParallelExecutor(
            backend="auto", workers=2, obs=obs,
            cost_model=CostModel(),
        ) as ex:
            ex.map_spans(_span_vertices, graph, graph.num_vertices)
            assert obs.counter("parallel.auto_decisions").value(backend="serial") == 1


class TestCalibrationPersistence:
    def test_default_model_is_shared_across_executors(self):
        graph = barabasi_albert(150, 3, seed=5)
        with ParallelExecutor(backend="serial") as ex:
            assert ex.cost_model is default_cost_model()
            ex.map_spans(_span_vertices, graph, graph.num_vertices)
            seen = ex.cost_model.observations
        assert seen >= 1
        with ParallelExecutor(backend="auto", workers=2) as later:
            # A later executor in the same session starts calibrated.
            assert later.cost_model is default_cost_model()
            assert later.cost_model.observations == seen

    def test_reset_forgets_calibration(self):
        model = default_cost_model()
        model.observe("k", "serial", items=10, wall=0.1)
        reset_default_cost_model()
        assert default_cost_model().observations == 0
        assert default_cost_model() is not model

    def test_snapshot_exposes_model_state(self):
        model = CostModel()
        model.observe("k", "serial", items=10, wall=0.1)
        snap = model.snapshot()
        assert snap["observations"] == 1
        assert snap["cold_start"] == COLD_START
        assert snap["wall_per_item"]["k|serial"] == pytest.approx(0.01)
