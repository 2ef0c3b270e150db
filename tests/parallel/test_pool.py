"""Warm-pool amortization: one spawn, one CSR copy, many fan-outs.

The contract: a :class:`~repro.parallel.pool.WorkerPool` maps each
graph into shared memory exactly once per (pool, graph) pair, keeps the
futures pool warm across ``map_spans`` calls, and survives crash-path
rebuilds without re-copying the CSR.  A process has at most one pool,
with one pinned worker per usable CPU, whatever the executors'
``workers``.
"""

import functools
import multiprocessing
import os
import time
from multiprocessing import shared_memory

import pytest

from repro.graph.generators import barabasi_albert, erdos_renyi
from repro.matching.triangles import triangle_count
from repro.obs import MetricsRegistry
from repro.parallel import (
    ParallelExecutor,
    WorkerPool,
    available_workers,
    get_pool,
    live_pool,
    shutdown_pools,
)
from repro.parallel.shm import MAX_SHARED_GRAPHS


def _span_edges(graph, span):
    lo, hi = span
    return int(graph.indptr[hi] - graph.indptr[lo])


@pytest.fixture
def graph():
    return barabasi_albert(120, 3, seed=4)


def _segment_names(pool, graph):
    _, shared = pool._graphs.peek(id(graph))
    return shared.handle.cache_key()


def _affinity(seconds):
    """Which worker ran this task, and the CPUs it may run on."""
    time.sleep(seconds)
    return os.getpid(), sorted(os.sched_getaffinity(0))


def _worker_affinities(pool):
    """``{pid: cpus}`` of every worker; sleeping tasks spread over all."""
    fpool = pool.executor()
    tasks = [fpool.submit(_affinity, 0.02) for _ in range(6 * pool.workers)]
    seen = dict(t.result(timeout=60) for t in tasks)
    assert len(seen) == pool.workers
    return seen


USABLE_CPUS = (
    sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
)


@pytest.fixture
def two_cpus():
    """Narrow this process to its first two usable CPUs for the test.

    Pools read the parent's affinity set when they start, so the rule is
    checked at a fixed CPU count whatever the box has.
    """
    if len(USABLE_CPUS) < 2:
        pytest.skip("pinning needs sched_setaffinity and 2 CPUs")
    os.sched_setaffinity(0, USABLE_CPUS[:2])
    try:
        yield USABLE_CPUS[:2]
    finally:
        os.sched_setaffinity(0, USABLE_CPUS)


class TestWorkerPool:
    def test_share_is_idempotent(self, graph):
        with WorkerPool() as pool:
            first = pool.share(graph)
            second = pool.share(graph)
            assert second is first
            assert pool.shares == 1
            assert pool.share_hits == 1
            assert pool.last_share_seconds == 0.0
            assert pool.is_shared(graph)

    def test_lru_eviction_unlinks_segments(self):
        graphs = [erdos_renyi(30, 0.1, seed=s) for s in range(MAX_SHARED_GRAPHS + 1)]
        with WorkerPool() as pool:
            names = []
            for g in graphs:
                pool.share(g)
                names.append(_segment_names(pool, g))
            assert not pool.is_shared(graphs[0])
            assert all(pool.is_shared(g) for g in graphs[1:])
            for name in names[0]:
                with pytest.raises(FileNotFoundError):
                    shared_memory.SharedMemory(name=name)

    def test_discard_is_idempotent(self, graph):
        with WorkerPool() as pool:
            pool.share(graph)
            names = _segment_names(pool, graph)
            pool.discard(graph)
            pool.discard(graph)
            assert not pool.is_shared(graph)
            for name in names:
                with pytest.raises(FileNotFoundError):
                    shared_memory.SharedMemory(name=name)

    def test_rebuild_keeps_shared_graphs(self, graph):
        with WorkerPool() as pool:
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
        with WorkerPool() as pool:
            pool.executor()
            assert pool.last_spinup_seconds > 0.0
            pool.executor()
            assert pool.last_spinup_seconds == 0.0
            assert pool.cold_starts == 1

    def test_close_unlinks_everything(self, graph):
        pool = WorkerPool()
        pool.share(graph)
        names = _segment_names(pool, graph)
        pool.close()
        pool.close()  # idempotent
        assert pool.shared_bytes == 0
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_size_is_the_usable_cpu_count(self, two_cpus):
        with WorkerPool() as pool:
            assert pool.workers == available_workers() == len(two_cpus)


class TestWorkerPinning:
    """Process workers get one CPU each, every time the pool spawns."""

    def test_each_worker_gets_its_own_cpu(self, two_cpus):
        with WorkerPool() as pool:
            assert sorted(_worker_affinities(pool).values()) == [[c] for c in two_cpus]

    def test_rebuild_pins_the_new_workers(self, two_cpus):
        with WorkerPool() as pool:
            before = _worker_affinities(pool)
            pool.rebuild()
            after = _worker_affinities(pool)
            assert not set(before) & set(after)
            assert sorted(after.values()) == [[c] for c in two_cpus]

    @pytest.mark.parametrize("workers", [1, 3], ids=["fewer", "more"])
    def test_executor_workers_do_not_size_the_pool(self, two_cpus, graph, workers):
        # ``workers`` only cuts spans; the fan-out runs on the one pool,
        # one pinned worker per CPU.
        shutdown_pools()
        try:
            with ParallelExecutor(backend="process", workers=workers) as ex:
                ex.map_spans(_span_edges, graph, graph.num_vertices)
            pool = live_pool()
            assert pool.workers == len(two_cpus)
            assert sorted(_worker_affinities(pool).values()) == [[c] for c in two_cpus]
        finally:
            shutdown_pools()


class TestPoolRegistry:
    def test_get_pool_returns_the_same_instance(self):
        a = get_pool()
        try:
            assert get_pool() is a
            assert live_pool() is a
        finally:
            shutdown_pools()

    def test_shutdown_empties_the_registry(self):
        get_pool()
        shutdown_pools()
        assert live_pool() is None
        shutdown_pools()  # idempotent


class TestExecutorPoolReuse:
    """Successive ``map_spans`` calls reuse pool + shm."""

    def test_same_segments_across_map_graph_calls(self, graph):
        obs = MetricsRegistry()
        with ParallelExecutor(
            backend="process", workers=2, chunk_size=32, obs=obs,
        ) as ex:
            first = ex.map_spans(_span_edges, graph, graph.num_vertices)
            pool = live_pool()
            names = _segment_names(pool, graph)
            spawned = pool.cold_starts
            second = ex.map_spans(_span_edges, graph, graph.num_vertices)
            assert first == second
            # Same shm segments served both fan-outs: one publish, one reuse.
            assert _segment_names(pool, graph) == names
            assert obs.counter("parallel.shm_shares").value() == 1
            assert obs.counter("parallel.shm_reuses").value() == 1
            # And the second call spawned nothing.
            assert pool.cold_starts == spawned

    def test_triangle_count_shares_its_orientation_once(self, graph):
        pool = get_pool()
        shares, hits = pool.shares, pool.share_hits
        with ParallelExecutor(backend="process", workers=2, chunk_size=32) as ex:
            first = triangle_count(graph, executor=ex)
            assert (pool.shares, pool.share_hits) == (shares + 1, hits)
            assert triangle_count(graph, executor=ex) == first
            assert (pool.shares, pool.share_hits) == (shares + 1, hits + 1)
            assert pool.is_shared(graph.orient_by_degree())

    def test_registry_pool_shared_across_executors(self, graph):
        shutdown_pools()
        try:
            with ParallelExecutor(backend="process", workers=2, chunk_size=32) as a:
                a.map_spans(_span_edges, graph, graph.num_vertices)
                pool = live_pool()
                spawned = pool.cold_starts
                assert pool.is_shared(graph)
            # close() leaves the pool warm — the amortization.
            assert pool.warm
            # Another worker count borrows the same pool.
            with ParallelExecutor(backend="process", workers=3, chunk_size=32) as b:
                b.map_spans(_span_edges, graph, graph.num_vertices)
                assert live_pool() is pool
                assert pool.cold_starts == spawned
                assert pool.share_hits >= 1
        finally:
            shutdown_pools()

    def test_warmup_excluded_from_efficiency(self, graph):
        obs = MetricsRegistry()
        shutdown_pools()
        try:
            with ParallelExecutor(
                backend="process", workers=2, chunk_size=32, obs=obs,
            ) as ex:
                ex.map_spans(_span_edges, graph, graph.num_vertices)
                warmup = obs.counter("parallel.warmup_seconds").value(backend="process")
                wall = obs.counter("parallel.wall_seconds").value(backend="process")
                busy = obs.counter("parallel.busy_seconds").value(backend="process")
                # Spawn + publish dominated this tiny fan-out; the efficiency
                # gauge must rate the steady state, not the setup.
                assert 0.0 < warmup < wall
                running = min(live_pool().workers, obs.counter("parallel.chunks").total)
                naive = busy / (wall * running)
                assert ex.efficiency >= naive
                assert 0.0 < ex.efficiency <= 1.0
        finally:
            shutdown_pools()

    def test_efficiency_divides_by_the_processes_that_can_run(self, graph):
        # One span keeps one process busy, however large the pool.
        obs = MetricsRegistry()
        wall = obs.counter("parallel.wall_seconds")
        busy = obs.counter("parallel.busy_seconds")
        with ParallelExecutor(
            backend="process", workers=2, chunk_size=graph.num_vertices, obs=obs,
        ) as ex:
            ex.map_spans(_span_edges, graph, graph.num_vertices)  # warm + share
            wall0, busy0 = wall.value(backend="process"), busy.value(backend="process")
            ex.map_spans(_span_edges, graph, graph.num_vertices)
            steady = wall.value(backend="process") - wall0
            one = busy.value(backend="process") - busy0
            assert ex.efficiency == pytest.approx(min(1.0, one / steady))


class TestOnePoolPerProcess:
    """Checks at many worker counts leave one CPU-sized pool behind."""

    def test_parallel_pairs_leave_one_pool_of_children(self):
        from repro.check.runner import run_suite

        report = run_suite(
            names=[
                "parallel.matching.auto_vs_serial",
                "parallel.matching.process_vs_serial",
                "parallel.pagerank_dense.process_vs_serial",
            ],
            cases=50, seed=0,
        )
        assert report.ok
        assert 0 < len(multiprocessing.active_children()) <= available_workers()

    def test_auto_check_runs_the_pool(self, monkeypatch):
        # The auto oracle must cover the process backend, not only serial.
        from repro.check.runner import run_suite
        from repro.parallel import checks

        obs = MetricsRegistry()
        monkeypatch.setattr(
            checks, "ParallelExecutor", functools.partial(ParallelExecutor, obs=obs)
        )
        report = run_suite(names=["parallel.matching.auto_vs_serial"], cases=20, seed=0)
        assert report.ok
        assert obs.counter("parallel.auto_decisions").value(backend="process") > 0
