"""Dense (frontier-at-a-time) supersteps vs the per-vertex engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import GraphBuilder
from repro.graph.generators import barabasi_albert, erdos_renyi, grid_graph
from repro.graph.store import build_store, open_store
from repro.obs import MetricsRegistry
from repro.tlav import bfs_dense, pagerank_dense, wcc_dense
from repro.tlav.algorithms import bfs, pagerank, wcc


class TestPageRankDense:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical_to_engine(self, seed):
        # Not merely allclose: the dense scatter replays the engine's
        # additions in the same order (see repro.tlav.vectorized).
        g = erdos_renyi(120, 0.05, seed=seed)
        assert np.array_equal(
            pagerank_dense(g, iterations=12), pagerank(g, iterations=12)
        )

    def test_bit_identical_with_dangling_vertices(self):
        # A directed graph guarantees sinks, exercising the aggregator
        # fold order.
        g = erdos_renyi(80, 0.04, seed=5, directed=True)
        assert np.array_equal(pagerank_dense(g), pagerank(g))

    def test_bit_identical_when_most_vertices_dangle(self):
        # 10 of 200 vertices have out-edges: the dangling-mass fold sums
        # 190 terms per superstep, in the aggregator's ascending order.
        rng = np.random.default_rng(3)
        builder = GraphBuilder(directed=True)
        for u in range(10):
            for v in rng.choice(200, size=6, replace=False):
                builder.add_edge(u, int(v))
        g = builder.build(num_vertices=200)
        assert int((g.degrees() == 0).sum()) == 190
        assert np.array_equal(pagerank_dense(g, iterations=15), pagerank(g, iterations=15))

    def test_bit_identical_on_skewed_graph(self, small_ba):
        assert np.array_equal(pagerank_dense(small_ba), pagerank(small_ba))

    def test_scores_sum_to_one(self, small_er):
        assert pagerank_dense(small_er).sum() == pytest.approx(1.0)

    def test_records_superstep_counters(self, small_er):
        obs = MetricsRegistry()
        pagerank_dense(small_er, iterations=7, obs=obs)
        assert obs.get("tlav.dense.supersteps").total == 7
        assert (
            obs.get("tlav.dense.edges_processed").total
            == 7 * small_er.indices.size
        )


class TestBFSDense:
    @given(st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_equals_engine_bfs(self, seed):
        g = erdos_renyi(60, 0.06, seed=seed)
        assert np.array_equal(bfs_dense(g, 0), bfs(g, 0))

    def test_unreachable_vertices_stay_minus_one(self):
        g = grid_graph(4, 4)
        levels = bfs_dense(g, 0)
        assert levels.min() >= 0  # grid is connected
        sparse = erdos_renyi(40, 0.01, seed=3)
        assert np.array_equal(bfs_dense(sparse, 0), bfs(sparse, 0))

    @pytest.mark.parametrize("source", [-1, 60])
    def test_out_of_range_source_is_an_index_error(self, source):
        # A typed error at the entry point, not a numpy failure
        # ("negative dimensions") from inside the first gather.
        g = erdos_renyi(60, 0.06, seed=1)
        with pytest.raises(IndexError, match="source"):
            bfs_dense(g, source)

    def test_paged_bfs_requests_pages_per_partition_not_per_vertex(
        self, tmp_path
    ):
        """A hash partitioner scatters every frontier over all partitions;
        each level still asks for each partition's two shards once, so
        the page requests are bounded by the level count, not by ``n``."""
        parts, requested = 8, []
        for n in (400, 1600):
            g = barabasi_albert(n, 3, seed=7)
            manifest = build_store(
                g, tmp_path / f"g{n}", partition="hash", num_parts=parts
            )
            with open_store(
                tmp_path / f"g{n}", cache_budget=manifest.shard_bytes // 2
            ) as stored:
                levels = bfs_dense(stored, 0)
                stats = stored.cache_stats()
            assert np.array_equal(levels, bfs(g, 0))
            assert stats["evictions"] > 0  # the budget did force paging
            assert stats["pages_requested"] <= 2 * parts * (levels.max() + 1)
            requested.append(stats["pages_requested"])
        assert requested[1] < 2 * requested[0]  # 4x the vertices


class TestWCCDense:
    @given(st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_equals_engine_wcc(self, seed):
        g = erdos_renyi(50, 0.03, seed=seed)
        assert np.array_equal(wcc_dense(g), wcc(g))

    def test_skewed_graph(self):
        g = barabasi_albert(200, 2, seed=9)
        assert np.array_equal(wcc_dense(g), wcc(g))
