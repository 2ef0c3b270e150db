"""Warm-pool amortization: one spawn, one CSR copy, many fan-outs.

The PR 7 contract: a :class:`~repro.parallel.pool.WorkerPool` maps each
graph into shared memory exactly once per (pool, graph) pair, keeps the
futures pool warm across ``map_graph`` calls, and survives crash-path
rebuilds without re-copying the CSR.
"""

from multiprocessing import shared_memory

import pytest

from repro.graph.generators import barabasi_albert, erdos_renyi
from repro.obs import MetricsRegistry
from repro.parallel import (
    ParallelExecutor,
    WorkerPool,
    get_pool,
    pool_registry,
    shutdown_pools,
)


def _span_edges(graph, span):
    lo, hi = span
    return int(graph.indptr[hi] - graph.indptr[lo])


@pytest.fixture
def graph():
    return barabasi_albert(120, 3, seed=4)


def _segment_names(pool, graph):
    _, shared = pool._graphs.peek(id(graph))
    return shared.handle.cache_key()


class TestWorkerPool:
    def test_share_is_idempotent(self, graph):
        with WorkerPool("process", 1) as pool:
            first = pool.share(graph)
            second = pool.share(graph)
            assert second is first
            assert pool.shares == 1
            assert pool.share_hits == 1
            assert pool.last_share_seconds == 0.0
            assert pool.is_shared(graph)

    def test_lru_eviction_unlinks_segments(self):
        graphs = [erdos_renyi(30, 0.1, seed=s) for s in range(3)]
        with WorkerPool("process", 1, max_shared_graphs=2) as pool:
            names = []
            for g in graphs:
                pool.share(g)
                names.append(_segment_names(pool, g))
            assert not pool.is_shared(graphs[0])
            assert pool.is_shared(graphs[1]) and pool.is_shared(graphs[2])
            for name in names[0]:
                with pytest.raises(FileNotFoundError):
                    shared_memory.SharedMemory(name=name)

    def test_discard_is_idempotent(self, graph):
        with WorkerPool("process", 1) as pool:
            pool.share(graph)
            names = _segment_names(pool, graph)
            pool.discard(graph)
            pool.discard(graph)
            assert not pool.is_shared(graph)
            for name in names:
                with pytest.raises(FileNotFoundError):
                    shared_memory.SharedMemory(name=name)

    def test_rebuild_keeps_shared_graphs(self, graph):
        with WorkerPool("thread", 2) as pool:
            pool.executor()
            pool.share(graph)
            assert pool.warm
            pool.rebuild()
            assert not pool.warm
            # The crash-recovery promise: respawn workers, keep the CSR.
            assert pool.is_shared(graph)
            pool.executor()
            assert pool.cold_starts == 2

    def test_warm_executor_reports_zero_spinup(self):
        with WorkerPool("thread", 2) as pool:
            pool.executor()
            assert pool.last_spinup_seconds > 0.0
            pool.executor()
            assert pool.last_spinup_seconds == 0.0
            assert pool.cold_starts == 1

    def test_close_unlinks_everything(self, graph):
        pool = WorkerPool("process", 1)
        pool.share(graph)
        names = _segment_names(pool, graph)
        pool.close()
        pool.close()  # idempotent
        assert pool.shared_bytes == 0
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            WorkerPool("serial", 2)
        with pytest.raises(ValueError):
            WorkerPool("thread", 0)


class TestPoolRegistry:
    def test_get_pool_returns_the_same_instance(self):
        a = get_pool("thread", 3)
        b = get_pool("thread", 3)
        other = get_pool("thread", 2)
        try:
            assert a is b
            assert other is not a
            assert ("thread", 3) in pool_registry()
        finally:
            shutdown_pools()

    def test_shutdown_empties_the_registry(self):
        get_pool("thread", 2)
        shutdown_pools()
        assert pool_registry() == {}


class TestExecutorPoolReuse:
    """The tentpole: successive ``map_graph`` calls reuse pool + shm."""

    def test_same_segments_across_map_graph_calls(self, graph):
        obs = MetricsRegistry()
        with ParallelExecutor(
            backend="process", workers=2, chunk_size=32,
            obs=obs, reuse_pool=False,
        ) as ex:
            first = ex.map_graph(_span_edges, graph, ex.spans(graph.num_vertices))
            names = _segment_names(ex._pools["process"], graph)
            second = ex.map_graph(_span_edges, graph, ex.spans(graph.num_vertices))
            assert first == second
            # Same shm segments served both fan-outs: one publish, one reuse.
            assert _segment_names(ex._pools["process"], graph) == names
            assert obs.counter("parallel.shm_shares").value() == 1
            assert obs.counter("parallel.shm_reuses").value() == 1
            # And one pool spawn covered both calls.
            assert ex._pools["process"].cold_starts == 1

    def test_registry_pool_shared_across_executors(self, graph):
        shutdown_pools()
        try:
            with ParallelExecutor(backend="process", workers=2, chunk_size=32) as a:
                a.map_graph(_span_edges, graph, a.spans(graph.num_vertices))
                pool = pool_registry()[("process", 2)]
                spawned = pool.cold_starts
                assert pool.is_shared(graph)
            # close() leaves borrowed pools warm — the amortization.
            assert pool.warm
            with ParallelExecutor(backend="process", workers=2, chunk_size=32) as b:
                b.map_graph(_span_edges, graph, b.spans(graph.num_vertices))
                assert b._pools["process"] is pool
                assert pool.cold_starts == spawned
                assert pool.share_hits >= 1
        finally:
            shutdown_pools()

    def test_warmup_excluded_from_efficiency(self, graph):
        obs = MetricsRegistry()
        with ParallelExecutor(
            backend="process", workers=2, chunk_size=32,
            obs=obs, reuse_pool=False,
        ) as ex:
            ex.map_graph(_span_edges, graph, ex.spans(graph.num_vertices))
            warmup = obs.counter("parallel.warmup_seconds").value(backend="process")
            wall = obs.counter("parallel.wall_seconds").value(backend="process")
            busy = obs.counter("parallel.busy_seconds").value(backend="process")
            # Spawn + publish dominated this tiny fan-out; the efficiency
            # gauge must rate the steady state, not the setup.
            assert 0.0 < warmup < wall
            naive = busy / (wall * ex.workers)
            assert ex.efficiency >= naive
            assert 0.0 < ex.efficiency <= 1.0
