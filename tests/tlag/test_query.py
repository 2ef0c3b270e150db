"""Interactive query serving (G-thinkerQ)."""

import pytest

from repro.graph.generators import barabasi_albert, random_labeled_graph
from repro.matching.backtrack import count_matches
from repro.matching.pattern import (
    PatternGraph,
    clique_pattern,
    diamond_pattern,
    path_pattern,
    triangle_pattern,
)
from repro.tlag.query import Query, QueryServer


@pytest.fixture
def graph():
    return barabasi_albert(120, 3, seed=7)


class TestQueryResults:
    def test_single_query_correct(self, graph):
        server = QueryServer(graph, num_workers=4)
        server.submit(Query(triangle_pattern()))
        results = server.serve()
        assert results[0].embeddings == count_matches(graph, triangle_pattern())

    def test_multiple_queries_all_correct(self, graph):
        patterns = [triangle_pattern(), path_pattern(3), diamond_pattern()]
        server = QueryServer(graph, num_workers=4)
        for p in patterns:
            server.submit(Query(p))
        results = server.serve()
        for res, p in zip(results, patterns):
            assert res.embeddings == count_matches(graph, p)

    def test_sequential_baseline_same_answers(self, graph):
        patterns = [triangle_pattern(), diamond_pattern()]
        shared = QueryServer(graph, num_workers=2)
        seq = QueryServer(graph, num_workers=2)
        for p in patterns:
            shared.submit(Query(p))
            seq.submit(Query(p))
        a = shared.serve()
        b = seq.run_sequentially()
        assert [r.embeddings for r in a] == [r.embeddings for r in b]

    def test_labeled_query_spawns_filtered(self):
        g = random_labeled_graph(60, 0.15, num_vertex_labels=2, seed=1)
        pattern = PatternGraph.from_edges([(0, 1)], vertex_labels=[0, 1])
        server = QueryServer(g, num_workers=2)
        server.submit(Query(pattern))
        results = server.serve()
        assert results[0].embeddings == count_matches(g, pattern)


class TestScheduling:
    def test_short_query_finishes_before_long_one(self, graph):
        """The C15 claim: fair sharing lets small queries overtake."""
        long_query = Query(diamond_pattern())   # heavy
        short_query = Query(path_pattern(2))    # trivial
        server = QueryServer(graph, num_workers=2)
        server.submit(long_query)
        server.submit(short_query)
        results = server.serve()
        assert results[1].completion_time <= results[0].completion_time

    def test_shared_mean_response_not_worse(self, graph):
        patterns = [diamond_pattern(), path_pattern(2), triangle_pattern()]
        shared = QueryServer(graph, num_workers=2)
        seq = QueryServer(graph, num_workers=2)
        for p in patterns:
            shared.submit(Query(p))
            seq.submit(Query(p))
        mean_shared = sum(r.completion_time for r in shared.serve()) / 3
        mean_seq = sum(r.completion_time for r in seq.run_sequentially()) / 3
        assert mean_shared <= mean_seq * 1.1

    def test_arrival_times_respected(self, graph):
        server = QueryServer(graph, num_workers=2)
        server.submit(Query(triangle_pattern(), arrival=0))
        server.submit(Query(path_pattern(2), arrival=10**9))
        results = server.serve()
        assert results[1].completion_time >= 10**9

    def test_response_time_is_relative_to_arrival(self, graph):
        """A late arrival's response time is what *it* waited, not the
        raw completion clock."""
        server = QueryServer(graph, num_workers=2)
        server.submit(Query(triangle_pattern(), arrival=0))
        server.submit(Query(path_pattern(2), arrival=10**9))
        early, late = server.serve()
        assert early.response_time == early.completion_time
        assert late.response_time == late.completion_time - 10**9
        # The trivial query did not "wait" a billion ops.
        assert late.response_time < 10**6

    def test_sequential_response_time_relative_too(self, graph):
        server = QueryServer(graph, num_workers=2)
        server.submit(Query(triangle_pattern(), arrival=500))
        (result,) = server.run_sequentially()
        assert result.arrival == 500
        assert result.response_time == result.completion_time - 500


    def test_query_with_no_anchor_completes_on_arrival(self):
        """No data vertex carries the first pattern label: nothing to
        match, so the answer is ready when the query arrives — never
        before it (a completion stamped 0 made response_time negative
        and dragged the shared mean down)."""
        from repro.graph.csr import Graph

        g = Graph.from_edges(
            [(0, 1), (1, 2), (2, 3)], vertex_labels=[0, 1, 0, 1]
        )
        matching = PatternGraph.from_edges([(0, 1)], vertex_labels=[0, 1])
        absent = PatternGraph.from_edges([(0, 1)], vertex_labels=[7, 7])
        for mode in ("serve", "run_sequentially"):
            server = QueryServer(g, num_workers=2)
            server.submit(Query(matching, arrival=0))
            server.submit(Query(absent, arrival=50))
            hit, miss = getattr(server, mode)()
            assert hit.embeddings == 3 and miss.embeddings == 0
            assert (miss.completion_time, miss.response_time) == (50, 0)
            assert hit.response_time > 0
            shared = "shared" if mode == "serve" else "sequential"
            assert server.stats.mean_response(shared) == hit.response_time / 2


class TestObservability:
    def test_stats_view_counts_queries_and_tasks(self, graph):
        server = QueryServer(graph, num_workers=2)
        server.submit(Query(triangle_pattern()))
        server.submit(Query(path_pattern(2)))
        results = server.serve()
        stats = server.stats
        assert stats.submitted == 2
        assert stats.completed == 2
        assert stats.tasks_executed > 0
        assert stats.total_work == sum(r.work for r in results)
        assert stats.mean_response("shared") == pytest.approx(
            sum(r.response_time for r in results) / 2
        )

    def test_shared_registry_accumulates(self, graph):
        from repro.obs import MetricsRegistry

        obs = MetricsRegistry()
        for _ in range(2):
            server = QueryServer(graph, num_workers=2, obs=obs)
            server.submit(Query(triangle_pattern()))
            server.serve()
        assert obs.counter("tlag.query.submitted").total == 2
        assert obs.counter("tlag.query.completed").total == 2

    def test_serve_emits_span(self, graph):
        from repro.obs import Tracer

        tracer = Tracer()
        server = QueryServer(graph, num_workers=2, tracer=tracer)
        server.submit(Query(triangle_pattern()))
        results = server.serve()
        (span,) = tracer.find("tlag.query.serve")
        assert span.attrs["mode"] == "shared"
        assert span.attrs["queries"] == 1
        assert span.sim_end == results[0].completion_time
