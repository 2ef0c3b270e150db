"""Distributed TLAG: pull-and-cache correctness and traffic."""

import pytest

from repro.graph.generators import barabasi_albert, erdos_renyi
from repro.graph.partition import hash_partition, metis_like_partition
from repro.matching.backtrack import count_matches
from repro.matching.cliques import maximal_cliques
from repro.matching.pattern import diamond_pattern, triangle_pattern
from repro.tlag.distributed import DistributedTaskEngine
from repro.tlag.engine import TaskEngine
from repro.tlag.programs import (
    KCliqueProgram,
    MatchProgram,
    MaximalCliqueProgram,
)


@pytest.fixture
def graph():
    return barabasi_albert(180, 3, seed=8)


@pytest.fixture
def partition(graph):
    return hash_partition(graph, 4)


class TestCorrectness:
    def test_maximal_cliques_match_shared_memory(self, graph, partition):
        engine = DistributedTaskEngine(
            graph, MaximalCliqueProgram(), partition, task_budget=40
        )
        assert sorted(engine.run()) == sorted(maximal_cliques(graph))

    def test_matching_counts(self, graph, partition):
        for pattern in (triangle_pattern(), diamond_pattern()):
            engine = DistributedTaskEngine(
                graph, MatchProgram(pattern), partition,
                collect_results=False,
            )
            engine.run()
            assert engine.result_count == count_matches(graph, pattern)

    def test_kclique_with_tiny_cache(self, graph, partition):
        engine = DistributedTaskEngine(
            graph, KCliqueProgram(3), partition, cache_capacity=4
        )
        reference = TaskEngine(graph, KCliqueProgram(3), num_workers=2)
        assert sorted(engine.run()) == sorted(reference.run())

    @pytest.mark.parametrize("num_parts", [1, 2, 6])
    def test_partition_count_invariant(self, graph, num_parts):
        engine = DistributedTaskEngine(
            graph,
            MatchProgram(triangle_pattern()),
            hash_partition(graph, num_parts),
            collect_results=False,
        )
        engine.run()
        assert engine.result_count == count_matches(graph, triangle_pattern())


class TestTraffic:
    def test_single_worker_no_pulls(self, graph):
        engine = DistributedTaskEngine(
            graph, MatchProgram(triangle_pattern()),
            hash_partition(graph, 1), collect_results=False,
        )
        engine.run()
        stats = engine.aggregate_cache_stats()
        assert stats.remote_pulls == 0
        assert stats.local_reads > 0

    def test_cache_cuts_pull_bytes(self, graph, partition):
        """The G-thinker vertex-cache claim."""
        cached = DistributedTaskEngine(
            graph, MaximalCliqueProgram(), partition,
            cache_capacity=512, collect_results=False,
        )
        cached.run()
        uncached = DistributedTaskEngine(
            graph, MaximalCliqueProgram(), partition,
            cache_capacity=0, collect_results=False,
        )
        uncached.run()
        a = cached.aggregate_cache_stats()
        b = uncached.aggregate_cache_stats()
        assert a.bytes_pulled < b.bytes_pulled / 2
        assert a.hit_rate > 0.5
        assert b.cache_hits == 0

    def test_better_partition_fewer_remote_reads(self, graph):
        def pulls(partition):
            engine = DistributedTaskEngine(
                graph, MatchProgram(triangle_pattern()), partition,
                cache_capacity=0, collect_results=False,
            )
            engine.run()
            return engine.aggregate_cache_stats().remote_pulls

        assert pulls(metis_like_partition(graph, 4, seed=0)) <= pulls(
            hash_partition(graph, 4)
        )

    def test_network_tags(self, graph, partition):
        engine = DistributedTaskEngine(
            graph, MaximalCliqueProgram(), partition,
            cache_capacity=64, task_budget=30,
        )
        engine.run()
        tags = engine.network.stats.by_tag
        assert tags.get("adj-pull", 0) > 0

    def test_total_reads_conserved(self, graph, partition):
        # Cache on/off changes *where* reads resolve, not how many the
        # program makes.
        runs = []
        for capacity in (0, 512):
            engine = DistributedTaskEngine(
                graph, MatchProgram(triangle_pattern()), partition,
                cache_capacity=capacity, collect_results=False, steal=False,
            )
            engine.run()
            runs.append(engine.aggregate_cache_stats().total_reads)
        assert runs[0] == runs[1]
