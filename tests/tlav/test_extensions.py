"""The presenter-lineage TLAV systems: Pregel+ mirroring, LWCP fault
tolerance, GraphD-style bounded-memory paging (via the shard store),
Quegel query batching."""

import numpy as np
import pytest

from repro.graph.csr import Graph
from repro.graph.generators import barabasi_albert, grid_graph, path_graph
from repro.graph.partition import hash_partition, metis_like_partition
from repro.graph.properties import bfs_levels
from repro.graph.store import build_store, open_store
from repro.resilience import FaultPlan
from repro.tlav import (
    CheckpointedEngine,
    PointQuery,
    QuegelEngine,
    message_cost,
    mirroring_plan,
    optimal_threshold,
    pagerank,
    wcc,
)
from repro.tlav.algorithms import PageRankProgram, SSSPProgram, WCCProgram
from repro.tlav.engine import Aggregator, PregelEngine


@pytest.fixture
def graph():
    return barabasi_albert(150, 3, seed=6)


class TestMirroring:
    def test_plan_selects_by_degree(self, graph):
        partition = hash_partition(graph, 4)
        plan = mirroring_plan(graph, partition, degree_threshold=10)
        for v in plan.mirrors:
            assert graph.degree(v) >= 10

    def test_mirrors_only_on_remote_neighbor_workers(self, graph):
        partition = hash_partition(graph, 4)
        plan = mirroring_plan(graph, partition, degree_threshold=5)
        for v, workers in plan.mirrors.items():
            own = int(partition.assignment[v])
            assert own not in workers
            neighbor_workers = {
                int(partition.assignment[int(w)]) for w in graph.neighbors(v)
            }
            assert workers <= neighbor_workers

    def test_mirroring_never_increases_messages(self, graph):
        partition = hash_partition(graph, 4)
        for threshold in (2, 5, 10, 50):
            plan = mirroring_plan(graph, partition, threshold)
            baseline, with_plan = message_cost(graph, partition, plan)
            assert with_plan <= baseline

    def test_hub_mirroring_cuts_traffic(self, graph):
        """The Pregel+ claim: mirroring hubs reduces broadcast traffic."""
        partition = hash_partition(graph, 8)
        plan = mirroring_plan(graph, partition, degree_threshold=10)
        baseline, with_plan = message_cost(graph, partition, plan)
        assert plan.num_mirrored_vertices > 0
        assert with_plan < baseline

    def test_threshold_infinity_is_baseline(self, graph):
        partition = hash_partition(graph, 4)
        plan = mirroring_plan(graph, partition, degree_threshold=10**9)
        baseline, with_plan = message_cost(graph, partition, plan)
        assert with_plan == baseline

    def test_budget_limits_choice(self, graph):
        partition = hash_partition(graph, 4)
        unlimited, sweep = optimal_threshold(graph, partition, [2, 10, 10**9])
        assert unlimited == 2  # message-count-optimal: mirror everything
        tight, _ = optimal_threshold(
            graph, partition, [2, 10, 10**9],
            mirror_budget=sweep[10][1],
        )
        assert tight == 10  # the budget rules out full mirroring

    def test_impossible_budget_raises(self, graph):
        partition = hash_partition(graph, 4)
        with pytest.raises(ValueError):
            optimal_threshold(graph, partition, [2], mirror_budget=-1)


class TestFaultTolerance:
    def test_recovery_reproduces_failure_free_run(self, graph):
        reference = wcc(graph)
        for mode in ("light", "full"):
            engine = CheckpointedEngine(
                graph, WCCProgram(), checkpoint_interval=2, mode=mode,
                injector=FaultPlan().fail_superstep(3).build(),
            )
            values = engine.run()
            assert values == reference.tolist()
            assert engine.stats.failures == 1

    def test_no_failure_no_replay(self, graph):
        engine = CheckpointedEngine(graph, WCCProgram(), checkpoint_interval=3)
        engine.run()
        assert engine.stats.supersteps_replayed == 0
        assert engine.stats.checkpoints_taken >= 1

    def test_light_checkpoints_smaller_than_full(self, graph):
        """The LWCP claim: state-only checkpoints are cheaper."""
        agg = {"dangling": Aggregator(reduce=lambda a, b: a + b)}
        light = CheckpointedEngine(
            graph, PageRankProgram(iterations=8), checkpoint_interval=2,
            mode="light", aggregators=agg, max_supersteps=10,
        )
        light.run()
        full = CheckpointedEngine(
            graph, PageRankProgram(iterations=8), checkpoint_interval=2,
            mode="full", aggregators=agg, max_supersteps=10,
        )
        full.run()
        assert light.stats.checkpoint_bytes < full.stats.checkpoint_bytes

    def test_replay_bounded_by_interval(self, graph):
        engine = CheckpointedEngine(
            graph, WCCProgram(), checkpoint_interval=4,
            injector=FaultPlan().fail_superstep(6).build(),
        )
        engine.run()
        assert engine.stats.supersteps_replayed <= 4

    def test_failure_at_checkpoint_boundary_free(self, graph):
        engine = CheckpointedEngine(
            graph, WCCProgram(), checkpoint_interval=2,
            injector=FaultPlan().fail_superstep(2).build(),
        )
        values = engine.run()
        assert values == wcc(graph).tolist()
        assert engine.stats.supersteps_replayed == 0

    def test_invalid_configuration(self, graph):
        with pytest.raises(ValueError):
            CheckpointedEngine(graph, WCCProgram(), checkpoint_interval=0)
        with pytest.raises(ValueError):
            CheckpointedEngine(graph, WCCProgram(), mode="exotic")


class TestStoredEngine:
    """GraphD's regime via the shard store: bounded memory forces paging."""

    @pytest.fixture
    def store_path(self, graph, tmp_path):
        path = str(tmp_path / "store")
        build_store(graph, path, partition="hash", num_parts=4)
        return path

    def test_pagerank_matches_in_memory(self, graph, store_path):
        with open_store(store_path, cache_budget=0) as stored:
            values = pagerank(stored, iterations=8)
        assert np.allclose(values, pagerank(graph, iterations=8))

    def test_wcc_matches_in_memory(self, graph, store_path):
        with open_store(store_path, cache_budget=0) as stored:
            values = wcc(stored)
        assert np.asarray(values).tolist() == wcc(graph).tolist()

    def test_zero_budget_keeps_one_shard_resident(self, graph, store_path):
        with open_store(store_path, cache_budget=0) as stored:
            wcc(stored)
            stats = stored.cache.stats
            assert stats.evictions > 0
            assert len(stored.cache) <= 1

    def test_unbounded_budget_pages_each_shard_once(self, graph, store_path):
        with open_store(store_path) as stored:
            wcc(stored)
            stats = stored.cache.stats
            assert stats.evictions == 0
            assert stats.bytes_paged == stored.cache.resident_bytes
            assert stats.hits > stats.misses  # the cache actually serves

    def test_paged_bytes_scale_with_supersteps(self, graph, store_path):
        # One full structure pass = what the unbounded cache pages in total.
        with open_store(store_path) as stored:
            engine = PregelEngine(stored, WCCProgram(), max_supersteps=200)
            engine.run()
            one_pass = stored.cache.stats.bytes_paged
            supersteps = engine.superstep
        with open_store(store_path, cache_budget=0) as paged:
            engine = PregelEngine(paged, WCCProgram(), max_supersteps=200)
            engine.run()
            # The whole structure is re-paged (at least) once per superstep.
            assert paged.cache.stats.bytes_paged >= supersteps * one_pass


class TestQuegel:
    def test_distances_match_bfs(self, graph):
        engine = QuegelEngine(graph)
        rng = np.random.default_rng(1)
        pairs = [
            (int(rng.integers(150)), int(rng.integers(150))) for _ in range(6)
        ]
        for s, t in pairs:
            engine.submit(PointQuery(s, t))
        outcomes, _ = engine.run()
        for (s, t), outcome in zip(pairs, outcomes):
            expected = bfs_levels(graph, s)[t]
            got = outcome.distance if outcome.distance is not None else -1
            assert got == expected

    def test_unreachable_target(self):
        g = Graph.from_edges([(0, 1)], num_vertices=4)
        engine = QuegelEngine(g)
        engine.submit(PointQuery(0, 3))
        outcomes, _ = engine.run()
        assert outcomes[0].distance is None

    def test_source_equals_target(self, graph):
        engine = QuegelEngine(graph)
        engine.submit(PointQuery(5, 5))
        outcomes, _ = engine.run()
        assert outcomes[0].distance == 0

    def test_shared_overhead_beats_sequential(self, graph):
        """The Quegel claim: batching shares per-superstep overhead."""
        engine = QuegelEngine(graph, superstep_overhead=1.0)
        for s in range(0, 60, 10):
            engine.submit(PointQuery(s, s + 5))
        _, accounting = engine.run()
        assert accounting["shared_overhead"] < accounting["sequential_overhead"]
        assert accounting["overhead_saving"] > 0

    def test_out_of_range_query_rejected(self, graph):
        engine = QuegelEngine(graph)
        with pytest.raises(ValueError):
            engine.submit(PointQuery(0, 10**6))

    def test_queries_touch_few_vertices(self, graph):
        # Nearby targets retire early, touching a fraction of the graph.
        engine = QuegelEngine(graph)
        engine.submit(PointQuery(0, int(graph.neighbors(0)[0])))
        outcomes, _ = engine.run()
        assert outcomes[0].supersteps_used == 1


class TestStoredEngineContract:
    """Regression: paging handles honour the engine contract.

    Pre-fix, the retired out-of-core engine's ``neighbors()`` returned
    a plain list, so any program using array operations
    (RandomWalkProgram reads ``nbrs.size``) crashed.  Pinned in the
    differential corpus as ``tlav-stored-neighbors-contract.json``;
    the stored-graph handle must keep the contract under paging.
    """

    @pytest.fixture
    def small_graph(self):
        return barabasi_albert(24, 2, seed=9)

    @pytest.fixture
    def small_store(self, small_graph, tmp_path):
        path = str(tmp_path / "small-store")
        build_store(small_graph, path, partition="hash", num_parts=2)
        return path

    def test_neighbors_is_int64_ndarray(self, small_graph, small_store):
        from repro.tlav.engine import VertexProgram

        seen = {}

        class ProbeProgram(VertexProgram):
            def init(self, vertex, graph):
                return 0

            def compute(self, ctx, messages):
                seen[ctx.vertex] = ctx.neighbors()

        with open_store(small_store, cache_budget=0) as stored:
            engine = PregelEngine(stored, ProbeProgram(), max_supersteps=1)
            engine.run()
        nbrs = seen[0]
        assert isinstance(nbrs, np.ndarray)
        assert nbrs.dtype == np.int64
        assert nbrs.tolist() == small_graph.neighbors(0).tolist()

    def test_random_walks_match_in_memory_engine(
        self, small_graph, small_store
    ):
        from repro.tlav.algorithms import random_walks

        reference = random_walks(
            small_graph, walk_length=4, walks_per_vertex=2, seed=3
        )
        with open_store(small_store, cache_budget=0) as stored:
            walks = random_walks(
                stored, walk_length=4, walks_per_vertex=2, seed=3
            )
        assert walks == reference

    def test_paging_ledger_balances(self, small_graph, small_store):
        with open_store(small_store, cache_budget=0) as stored:
            wcc(stored)
            stats = stored.cache.stats
            assert stats.misses - stats.evictions == len(stored.cache)
            assert stats.bytes_paged > 0
