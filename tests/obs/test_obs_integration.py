"""End-to-end: engines emit into a shared registry, views stay consistent."""

import numpy as np
import pytest

from repro.core.pipeline import Pipeline, PipelineResult, stages
from repro.gnn.models import NodeClassifier
from repro.gnn.train import train_full_graph
from repro.graph.generators import barabasi_albert, planted_partition
from repro.graph.partition import hash_partition
from repro.obs import MetricsRegistry, Tracer
from repro.tlag.distributed import DistributedTaskEngine
from repro.tlag.engine import TaskEngine
from repro.tlag.programs import TriangleProgram


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert(150, 3, seed=11)


class TestTLAGCountersMatchEngineStats:
    """The refactor's contract: registry counters ARE the stats."""

    def test_serial_engine(self, graph):
        obs = MetricsRegistry()
        engine = TaskEngine(
            graph, TriangleProgram(), num_workers=4, task_budget=32,
            collect_results=False, obs=obs,
        )
        engine.run()
        stats = engine.stats
        assert stats.tasks_executed > 0
        assert obs.counter("tlag.tasks_executed").total == stats.tasks_executed
        assert obs.counter("tlag.tasks_forked").total == stats.tasks_forked
        assert obs.counter("tlag.steals").total == stats.steals
        assert obs.counter("tlag.total_ops").total == stats.total_ops
        assert obs.gauge("tlag.peak_pending_tasks").value() == \
            stats.peak_pending_tasks
        busy = obs.gauge("tlag.worker_busy")
        assert [int(busy.value(worker=w)) for w in range(4)] == \
            stats.worker_busy
        # The task-ops histogram saw every task exactly once.
        assert obs.histogram("tlag.task_ops").count() == stats.tasks_executed

    def test_distributed_engine(self, graph):
        obs = MetricsRegistry()
        engine = DistributedTaskEngine(
            graph, TriangleProgram(), hash_partition(graph, 3),
            task_budget=32, collect_results=False, obs=obs,
        )
        engine.run()
        assert engine.tasks_executed > 0
        assert obs.counter("tlag.tasks_executed").total == \
            engine.tasks_executed
        assert obs.counter("tlag.steals").total == engine.steals
        # Cache counters agree with the per-worker CacheStats views.
        reads = obs.counter("tlag.cache.reads")
        assert reads.value(kind="local") == \
            sum(s.local_reads for s in engine.cache_stats)
        assert reads.value(kind="hit") == \
            sum(s.cache_hits for s in engine.cache_stats)
        assert reads.value(kind="pull") == \
            sum(s.remote_pulls for s in engine.cache_stats)
        assert obs.counter("tlag.cache.bytes_pulled").total == \
            sum(s.bytes_pulled for s in engine.cache_stats)

    def test_distributed_network_shares_the_registry(self, graph):
        obs = MetricsRegistry()
        engine = DistributedTaskEngine(
            graph, TriangleProgram(), hash_partition(graph, 3),
            cache_capacity=2, collect_results=False, obs=obs,
        )
        engine.run()
        # One snapshot holds engine AND network counters.
        assert engine.network.registry is obs
        assert "cluster.messages" in obs
        assert "tlag.tasks_executed" in obs
        assert obs.counter("cluster.bytes").total == \
            engine.network.stats.total_bytes

    def test_run_span_carries_simulated_makespan(self, graph):
        tracer = Tracer()
        engine = TaskEngine(
            graph, TriangleProgram(), num_workers=4, task_budget=32,
            collect_results=False, tracer=tracer,
        )
        engine.run()
        (span,) = tracer.find("tlag.run")
        assert span.finished
        assert span.sim_duration == engine.stats.makespan


class TestPipelineResult:
    def test_run_accepts_graph_directly(self, graph):
        result = Pipeline([stages.pagerank_scores(iterations=5)]).run(graph)
        assert isinstance(result, PipelineResult)
        assert result.graph is graph
        assert "scores" in result
        assert len(result["scores"]) == graph.num_vertices

    def test_rejects_unknown_input(self):
        with pytest.raises(TypeError):
            Pipeline([]).run(42)

    def test_per_stage_spans_and_metrics(self, graph):
        obs = MetricsRegistry()
        result = Pipeline(
            [stages.pagerank_scores(iterations=5),
             stages.structural_vertex_features()],
            obs=obs,
        ).run(graph)
        assert [s.name for s in result.spans] == \
            ["stage:pagerank", "stage:topology-features"]
        assert set(result.stage_seconds) == \
            {"stage:pagerank", "stage:topology-features"}
        assert result.total_seconds == sum(result.stage_seconds.values())
        assert obs.counter("core.pipeline.stages").total == 2
        assert obs.histogram("core.pipeline.stage_seconds").count(
            stage="pagerank") == 1

    def test_spans_nest_under_ambient_tracer(self, graph):
        tracer = Tracer()
        pipe = Pipeline([stages.pagerank_scores(iterations=5)], tracer=tracer)
        with tracer.span("outer"):
            pipe.run(graph)
        (outer,) = tracer.roots
        assert [c.name for c in outer.children] == ["stage:pagerank"]


class TestGNNTrainingEmission:
    def test_train_report_mirrors_into_registry(self):
        g, labels = planted_partition(3, 16, p_in=0.25, p_out=0.02, seed=3)
        n = g.num_vertices
        rng = np.random.default_rng(0)
        features = np.eye(3)[labels] + rng.normal(0, 1.0, size=(n, 3))
        train_mask = np.zeros(n, dtype=bool)
        train_mask[rng.permutation(n)[:24]] = True

        obs = MetricsRegistry()
        report = train_full_graph(
            NodeClassifier(3, 8, 3, seed=0), g, features=features, labels=labels,
            train_mask=train_mask, epochs=5, lr=0.05, obs=obs,
        )
        assert report.steps == 5
        assert obs.counter("gnn.train.steps").total == report.steps
        assert obs.counter("gnn.train.gathered_features").total == \
            report.gathered_features
        assert obs.histogram("gnn.train.loss").count() == 5
