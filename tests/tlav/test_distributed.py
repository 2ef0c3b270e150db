"""Distributed TLAV execution: correctness vs the single-process engine
and partition-sensitive traffic accounting."""

import numpy as np
import pytest

from repro.graph.generators import barabasi_albert, grid_graph
from repro.graph.partition import (
    hash_partition,
    metis_like_partition,
    range_partition,
)
from repro.tlav.algorithms import (
    BFSProgram,
    PageRankProgram,
    SSSPProgram,
    WCCProgram,
    pagerank,
    wcc,
)
from repro.tlav.distributed import DistributedPregel, run_distributed
from repro.tlav.engine import Aggregator, PregelEngine


@pytest.fixture
def graph():
    return barabasi_albert(150, 3, seed=4)


class TestCorrectness:
    @pytest.mark.parametrize("num_parts", [1, 2, 4, 7])
    def test_wcc_matches_single_process(self, graph, num_parts):
        partition = hash_partition(graph, num_parts)
        values, _ = run_distributed(graph, WCCProgram(), partition)
        expected = wcc(graph)
        assert values == expected.tolist()

    def test_bfs_matches(self, graph):
        partition = metis_like_partition(graph, 3, seed=0)
        values, _ = run_distributed(
            graph, BFSProgram(0), partition, max_supersteps=200
        )
        single = PregelEngine(graph, BFSProgram(0), max_supersteps=200).run()
        assert values == single

    def test_pagerank_matches(self, graph):
        partition = range_partition(graph, 4)
        aggs = {"dangling": Aggregator(reduce=lambda a, b: a + b)}
        values, _ = run_distributed(
            graph,
            PageRankProgram(iterations=10),
            partition,
            aggregators=aggs,
            max_supersteps=12,
        )
        expected = pagerank(graph, iterations=10)
        assert np.allclose(values, expected)

    def test_sssp_matches(self, graph):
        partition = hash_partition(graph, 5)
        values, _ = run_distributed(
            graph, SSSPProgram(0), partition, max_supersteps=300
        )
        single = PregelEngine(graph, SSSPProgram(0), max_supersteps=300).run()
        assert values == single


class TestTraffic:
    def test_single_worker_all_local(self, graph):
        partition = hash_partition(graph, 1)
        _, stats = run_distributed(graph, WCCProgram(), partition)
        assert stats.messages_remote == 0
        assert stats.messages_local > 0

    def test_better_partition_less_remote_traffic(self):
        g = grid_graph(12, 12)
        _, stats_hash = run_distributed(g, WCCProgram(), hash_partition(g, 4))
        _, stats_metis = run_distributed(
            g, WCCProgram(), metis_like_partition(g, 4, seed=0)
        )
        assert stats_metis.bytes_remote < stats_hash.bytes_remote

    def test_combiner_reduces_remote_messages(self, graph):
        partition = hash_partition(graph, 4)
        engine_on = DistributedPregel(
            graph, WCCProgram(), partition, combine_remote=True
        )
        engine_on.run()
        engine_off = DistributedPregel(
            graph, WCCProgram(), partition, combine_remote=False
        )
        engine_off.run()
        # Same answers...
        assert engine_on.values == engine_off.values
        # ...less traffic with combining.
        assert (
            engine_on.network.stats.bytes_remote
            <= engine_off.network.stats.bytes_remote
        )

    def test_link_matrix_dimensions(self, graph):
        partition = hash_partition(graph, 3)
        _, stats = run_distributed(graph, WCCProgram(), partition)
        assert stats.link_bytes.shape == (3, 3)
        assert np.all(np.diag(stats.link_bytes) == 0)


class _SendTo(WCCProgram):
    """WCC that also mails one fixed (possibly bad) vertex at superstep 0."""

    def __init__(self, dst):
        self.dst = dst

    def compute(self, ctx, messages):
        if ctx.superstep == 0 and ctx.vertex == 0:
            ctx.send(self.dst, 0)
        super().compute(ctx, messages)


ENGINES = {
    "single": lambda g, program: PregelEngine(g, program),
    "distributed": lambda g, program: DistributedPregel(
        g, program, hash_partition(g, 3)
    ),
}


class TestDestinations:
    @pytest.mark.parametrize("kind", sorted(ENGINES))
    @pytest.mark.parametrize("where", ["negative", "past_end"])
    def test_message_to_missing_vertex_raises(self, graph, kind, where):
        dst = -1 if where == "negative" else graph.num_vertices
        engine = ENGINES[kind](graph, _SendTo(dst))
        with pytest.raises(ValueError, match="nonexistent vertex"):
            engine.run()


class TestSharedLoop:
    def test_distributed_run_records_history_and_metrics(self, graph):
        single = PregelEngine(graph, WCCProgram())
        single.run()
        engine = DistributedPregel(graph, WCCProgram(), hash_partition(graph, 1))
        engine.run()
        # One worker combines exactly what the single engine combines.
        assert [s.as_dict() for s in engine.history] == [
            s.as_dict() for s in single.history
        ]
        sent = engine.obs.counter("tlav.messages_sent")
        assert sent.value() == engine.total_messages
        # Each combined box crosses the network as one message.
        assert engine.network.stats.messages_local == engine.total_messages_delivered
