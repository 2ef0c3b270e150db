"""Backend equivalence: serial and process give identical answers.

The determinism contract (DESIGN.md): with the same chunk layout, every
backend performs the same computation graph, so integer counts are equal
and floating-point vectors are *bit*-identical across backends.
"""

import contextlib
import json
import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import (
    barabasi_albert,
    erdos_renyi,
    random_labeled_graph,
)
from repro.matching.backtrack import MatchStats, count_matches
from repro.matching.pattern import (
    PatternGraph,
    clique_pattern,
    cycle_pattern,
    diamond_pattern,
)
from repro.matching.triangles import triangle_count
from repro.obs import MetricsRegistry
from repro.parallel import (
    CostModel,
    ParallelExecutor,
    SharedGraph,
    attach_graph,
    chunk_spans,
    default_chunk_size,
    available_workers,
    live_pool,
    resolve_backend,
    resolve_workers,
    shutdown_pools,
)
from repro.lru import LRU
from repro.parallel import shm
from repro.tlav import pagerank_dense

SEEDS = [0, 1, 2]


@pytest.fixture(scope="module")
def executors():
    """One executor per backend, identical chunking so results match."""
    execs = {
        "serial": ParallelExecutor(backend="serial", chunk_size=16),
        "process": ParallelExecutor(backend="process", workers=2, chunk_size=16),
    }
    yield execs
    for ex in execs.values():
        ex.close()


class TestCountMatchesEquivalence:
    def _assert_all_equal(self, graph, pattern, executors):
        expected = count_matches(graph, pattern)
        for name, ex in executors.items():
            assert count_matches(graph, pattern, executor=ex) == expected, name
        return expected

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cliques_on_random_graphs(self, seed, executors):
        g = erdos_renyi(80, 0.15, seed=seed)
        self._assert_all_equal(g, clique_pattern(4), executors)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cycles_on_skewed_graphs(self, seed, executors):
        g = barabasi_albert(120, 3, seed=seed)
        self._assert_all_equal(g, cycle_pattern(4), executors)

    def test_labeled_pattern(self, executors):
        g = random_labeled_graph(80, 0.12, num_vertex_labels=3, seed=7)
        pattern = PatternGraph.from_edges(
            [(0, 1), (1, 2), (2, 0)], vertex_labels=[0, 1, 2]
        )
        self._assert_all_equal(g, pattern, executors)

    def test_symmetric_pattern_with_restrictions(self, executors):
        # The diamond has a nontrivial automorphism group, so distinct
        # counting relies on symmetry-breaking restrictions; the parallel
        # fan-out must apply them identically in every chunk.
        g = erdos_renyi(70, 0.15, seed=11)
        self._assert_all_equal(g, diamond_pattern(), executors)

    def test_merged_worker_stats_equal_serial_stats(self, executors):
        # Every root's search subtree is chunk-independent, so the merged
        # per-worker counters must equal one serial pass over all roots.
        g = erdos_renyi(80, 0.15, seed=3)
        pattern = clique_pattern(4)
        serial = MatchStats()
        count_matches(g, pattern, stats=serial)
        for name, ex in executors.items():
            merged = MatchStats()
            count_matches(g, pattern, executor=ex, stats=merged)
            assert merged.as_dict() == serial.as_dict(), name

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_property_serial_and_process_agree(self, seed):
        g = erdos_renyi(50, 0.2, seed=seed)
        pattern = clique_pattern(3)
        expected = count_matches(g, pattern)
        with ParallelExecutor(backend="process", workers=2, chunk_size=7) as ex:
            assert count_matches(g, pattern, executor=ex) == expected


class TestTriangleEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_all_backends(self, seed, executors):
        g = barabasi_albert(250, 4, seed=seed)
        expected = triangle_count(g)
        for name, ex in executors.items():
            assert triangle_count(g, executor=ex) == expected, name


class TestPageRankDeterminism:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bit_identical_across_backends(self, seed, executors):
        g = erdos_renyi(150, 0.05, seed=seed)
        reference = pagerank_dense(g, iterations=10, executor=executors["serial"])
        got = pagerank_dense(g, iterations=10, executor=executors["process"])
        assert np.array_equal(got, reference)
        # The unchunked path folds partial sums in a different association
        # order, so it is close but not required to be bit-equal.
        solo = pagerank_dense(g, iterations=10)
        np.testing.assert_allclose(reference, solo, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", [300, 1000])
    def test_auto_bits_do_not_depend_on_history(self, n):
        # The first call calibrates the model on cheap scatter work; the
        # second must still cut the same spans, so both equal a process
        # executor's bits with the same workers.
        g = barabasi_albert(n, 3, seed=0)
        with ParallelExecutor(
            backend="process", workers=2, cost_model=CostModel()
        ) as ex:
            reference = pagerank_dense(g, iterations=10, executor=ex)
        with ParallelExecutor(
            backend="auto", workers=2, cost_model=CostModel()
        ) as auto:
            first = pagerank_dense(g, iterations=10, executor=auto)
            second = pagerank_dense(g, iterations=10, executor=auto)
        assert np.array_equal(first, second)
        assert np.array_equal(first, reference)


class TestAutoExploresProcess:
    def test_auto_tries_the_warm_pool_bit_for_bit(self):
        # A warm registry pool with the graph already shared and a model
        # that has measured serial only: auto's best case for the pool
        # (serial / workers) wins, so it explores process once, and the
        # run must equal the serial one exactly.
        g = erdos_renyi(80, 0.15, seed=5)
        pattern = clique_pattern(4)
        serial_stats = MatchStats()
        expected = count_matches(g, pattern, stats=serial_stats)
        with ParallelExecutor(
            backend="process", workers=2, chunk_size=16, cost_model=CostModel()
        ) as warm:
            count_matches(g, pattern, executor=warm)
        model = CostModel()
        with ParallelExecutor(
            backend="serial", chunk_size=16, cost_model=model
        ) as serial:
            count_matches(g, pattern, executor=serial)
        obs = MetricsRegistry()
        with ParallelExecutor(
            backend="auto", workers=2, chunk_size=16, obs=obs, cost_model=model
        ) as auto:
            merged = MatchStats()
            assert count_matches(g, pattern, executor=auto, stats=merged) == expected
        assert merged.as_dict() == serial_stats.as_dict()
        assert obs.counter("parallel.auto_decisions").series() == {
            "backend=process": 1
        }


class TestResolution:
    def test_backend_env_and_argument(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        assert resolve_backend() == "serial"
        assert resolve_backend("process") == "process"
        monkeypatch.delenv("REPRO_BACKEND")
        assert resolve_backend() == "auto"
        assert resolve_backend("auto") == "auto"
        with pytest.raises(ValueError):
            resolve_backend("gpu")

    def test_thread_is_not_a_backend(self, monkeypatch):
        # ``thread`` is not a backend, by argument or environment, and
        # the message names the valid choices.
        choices = r"\('serial', 'process', 'auto'\)"
        with pytest.raises(ValueError, match=choices):
            resolve_backend("thread")
        monkeypatch.setenv("REPRO_BACKEND", "thread")
        with pytest.raises(ValueError, match=choices):
            resolve_backend()
        with pytest.raises(ValueError, match=choices):
            ParallelExecutor()

    def test_workers_env_and_argument(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers() == 3
        assert resolve_workers(2) == 2
        with pytest.raises(ValueError):
            resolve_workers(0)

    def test_workers_env_must_be_an_integer(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "two")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_workers()
        # Many workers cut many spans but fork no more processes: the
        # one pool keeps one worker per usable CPU.
        monkeypatch.setenv("REPRO_WORKERS", str(3 * available_workers()))
        g = erdos_renyi(60, 0.1, seed=1)
        with ParallelExecutor(backend="process") as ex:
            assert ex.workers == 3 * available_workers()
            assert triangle_count(g, executor=ex) == triangle_count(g)
        assert len(multiprocessing.active_children()) <= available_workers()

    def test_serial_backend_reports_one_worker(self):
        with ParallelExecutor(backend="serial", workers=8) as ex:
            assert ex.workers == 1

    def test_executor_honours_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "process")
        monkeypatch.setenv("REPRO_WORKERS", "2")
        with ParallelExecutor() as ex:
            assert ex.backend == "process"
            assert ex.workers == 2


class TestChunking:
    @given(st.integers(0, 500), st.integers(1, 64), st.integers(1, 8))
    @settings(max_examples=50, deadline=None)
    def test_spans_partition_the_range(self, n, chunk, workers):
        spans = chunk_spans(n, chunk, workers)
        assert all(lo < hi for lo, hi in spans)
        flat = [i for lo, hi in spans for i in range(lo, hi)]
        assert flat == list(range(n))

    def test_default_size_oversubscribes_workers(self):
        # Enough chunks per worker that stealing/imbalance can average out.
        size = default_chunk_size(1000, 4)
        assert 1 <= size <= 1000
        assert len(chunk_spans(1000, None, 4)) >= 4

    def test_zero_items(self):
        assert chunk_spans(0, None, 4) == []


class TestSharedGraph:
    def test_round_trip_preserves_csr_and_labels(self):
        g = random_labeled_graph(
            50, 0.1, num_vertex_labels=3, num_edge_labels=2, seed=1
        )
        with SharedGraph(g) as shared:
            attached = attach_graph(shared.handle)
            assert attached.directed == g.directed
            assert np.array_equal(attached.indptr, g.indptr)
            assert np.array_equal(attached.indices, g.indices)
            for v in range(g.num_vertices):
                assert attached.vertex_label(v) == g.vertex_label(v)

    def test_close_is_idempotent(self):
        shared = SharedGraph(erdos_renyi(20, 0.2, seed=0))
        shared.close()
        shared.close()

    def test_worker_keeps_alternating_graphs_attached(self, monkeypatch):
        cache = LRU(shm.MAX_SHARED_GRAPHS)
        monkeypatch.setattr(shm, "_ATTACHED", cache)
        graphs = [erdos_renyi(20, 0.2, seed=s) for s in range(shm.MAX_SHARED_GRAPHS + 1)]
        with contextlib.ExitStack() as owners:
            handles = [owners.enter_context(SharedGraph(g)).handle for g in graphs]
            a, b = handles[0], handles[1]
            first, second = attach_graph(a), attach_graph(b)
            for _ in range(3):
                assert attach_graph(a) is first and attach_graph(b) is second
            assert (cache.misses, cache.hits) == (2, 6)
            segments = cache.peek(a.cache_key())[1]
            del first, second  # views into mappings about to be closed
            for handle in handles[2:]:  # a is now the least recently used
                attach_graph(handle)
            assert a.cache_key() not in cache and len(cache) == shm.MAX_SHARED_GRAPHS
            assert all(seg.buf is None for seg in segments)
            cache.clear()

    def test_evicted_graph_stays_mapped_while_held(self):
        # A graph a caller keeps past its eviction from the attach cache
        # must still read its arrays; unmapping them under it crashed the
        # process (SIGSEGV) instead.
        import subprocess
        import sys

        code = (
            "import contextlib, json, sys; sys.path.insert(0, 'src')\n"
            "from repro.graph.generators import erdos_renyi\n"
            "from repro.parallel.shm import MAX_SHARED_GRAPHS, SharedGraph, attach_graph\n"
            "graphs = [erdos_renyi(40, 0.2, seed=s) for s in range(MAX_SHARED_GRAPHS + 1)]\n"
            "with contextlib.ExitStack() as owners:\n"
            "    handles = [owners.enter_context(SharedGraph(g)).handle for g in graphs]\n"
            "    kept = attach_graph(handles[0])\n"
            "    for handle in handles[1:]:\n"
            "        attach_graph(handle)\n"
            "    rows = kept.indices.tolist()\n"
            "    head = kept.indices[:5]\n"
            "    del kept  # a view of the graph's array keeps its mapping too\n"
            "    print(json.dumps([rows, head.tolist(), graphs[0].indices.tolist()]))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, cwd=".",
        )
        assert done.returncode == 0, (done.returncode, done.stderr)
        rows, head, want = json.loads(done.stdout)
        assert rows == want and head == want[:5]


class TestObservability:
    def test_efficiency_gauge_and_counters(self):
        obs = MetricsRegistry()
        g = erdos_renyi(120, 0.05, seed=0)
        with ParallelExecutor(backend="serial", obs=obs) as ex:
            triangle_count(g, executor=ex)
            assert 0.0 < ex.efficiency <= 1.0
        assert obs.get("parallel.maps").total >= 1
        assert obs.get("parallel.chunks").total >= 1
        assert obs.get("parallel.workers").value(backend="serial") == 1

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_cpu_seconds_beside_busy_seconds(self, backend):
        # ``busy`` is in-chunk wall time, ``cpu`` the thread CPU time
        # measured inside it, so cpu can exceed busy only by clock skew.
        obs = MetricsRegistry()
        g = barabasi_albert(400, 4, seed=1)
        with ParallelExecutor(backend=backend, workers=2, obs=obs) as ex:
            triangle_count(g, executor=ex)
        chunks = obs.counter("parallel.chunks").value(backend=backend)
        busy = obs.counter("parallel.busy_seconds").value(backend=backend)
        cpu = obs.counter("parallel.cpu_seconds").value(backend=backend)
        assert chunks >= 1
        assert cpu > 0.0
        assert cpu <= busy + chunks * 1e-4


def _boom_task(graph, span):
    raise RuntimeError("chunk exploded")


class TestCrashTolerance:
    """Injected worker deaths: re-dispatch, pool rebuild, degradation."""

    def _graph(self):
        return barabasi_albert(150, 3, seed=2)

    def test_serial_redispatch(self):
        from repro.resilience import FaultPlan

        g = self._graph()
        expected = triangle_count(g)
        obs = MetricsRegistry()
        injector = FaultPlan(seed=1).crash_worker(chunk=0).build(obs)
        with ParallelExecutor(
            backend="serial", workers=2, obs=obs, injector=injector
        ) as ex:
            assert triangle_count(g, executor=ex) == expected
        assert obs.counter("resilience.redispatched_chunks").value(backend="serial") == 1

    def test_process_pool_rebuild_and_redispatch(self):
        from repro.resilience import FaultPlan

        g = self._graph()
        expected = triangle_count(g)
        obs = MetricsRegistry()
        injector = FaultPlan(seed=1).crash_worker(chunk=1).build(obs)
        with ParallelExecutor(
            backend="process", workers=2, obs=obs, injector=injector
        ) as ex:
            assert triangle_count(g, executor=ex) == expected
            assert ex.backend == "process"
            # The rebuilt pool keeps serving later fan-outs.
            assert triangle_count(g, executor=ex) == expected
        assert obs.counter("resilience.pool_failures").total == 1
        assert obs.counter("resilience.redispatched_chunks").total >= 1

    def test_degradation_after_repeated_pool_losses(self):
        from repro.parallel.executor import MAX_POOL_FAILURES
        from repro.resilience import FaultPlan

        g = self._graph()
        expected = triangle_count(g)
        obs = MetricsRegistry()
        injector = FaultPlan(seed=1).crash_worker(chunk=0, times=2).build(obs)
        model = CostModel()
        with ParallelExecutor(
            backend="process", workers=2, obs=obs, injector=injector,
            cost_model=model,
        ) as ex:
            assert triangle_count(g, executor=ex) == expected
            assert ex.backend == "serial"
            assert obs.gauge("resilience.degraded").value(to="serial") == 1
        assert obs.counter("resilience.pool_failures").total == MAX_POOL_FAILURES
        # The degraded fan-out's wall holds the pool losses: it is learned
        # as a rate of neither backend.
        assert model.observations == 0

    def test_degraded_pagerank_keeps_serial_bits(self):
        # The unfinished spans run serially in payload order and
        # ``workers`` stays, so the chunks (and the bits) are a serial
        # run's with the same chunk_size and workers.
        from repro.resilience import FaultPlan

        g = self._graph()
        with ParallelExecutor(backend="serial", workers=2, chunk_size=16) as ex:
            expected = pagerank_dense(g, iterations=5, executor=ex)
        injector = FaultPlan(seed=1).crash_worker(chunk=1, times=2).build()
        model = CostModel()
        with ParallelExecutor(
            backend="process", workers=2, chunk_size=16,
            injector=injector, cost_model=model,
        ) as ex:
            got = pagerank_dense(g, iterations=5, executor=ex)
            assert ex.backend == "serial"
            assert ex.workers == 2
        assert np.array_equal(got, expected)
        # Supersteps after the degraded one run serial and are learned.
        assert model.observations == 4
        assert not any(k.endswith("|process") for k in model.snapshot()["wall_per_item"])


class TestSharedMemoryHygiene:
    """No stale /dev/shm segments, whatever kills a fan-out."""

    def test_failing_chunk_releases_segments(self):
        g = erdos_renyi(80, 0.1, seed=0)
        ex = ParallelExecutor(backend="process", workers=2)
        names = [seg.name for seg in ex._share(g)._segments]
        assert names
        with pytest.raises(RuntimeError, match="chunk exploded"):
            ex.map_spans(_boom_task, g, g.num_vertices)
        # The failure path discarded the graph from the pool's registry.
        assert not live_pool().is_shared(g)
        from multiprocessing import shared_memory

        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        ex.close()

    def test_shutdown_pools_unlinks_segments(self):
        g = erdos_renyi(60, 0.1, seed=1)
        ex = ParallelExecutor(backend="process", workers=2)
        assert triangle_count(g, executor=ex) == triangle_count(g)
        names = [seg.name for seg in ex._share(g)._segments]
        shutdown_pools()
        from multiprocessing import shared_memory

        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_atexit_guard_sweeps_unclosed_owners(self):
        import subprocess
        import sys

        code = (
            "import sys; sys.path.insert(0, 'src')\n"
            "from repro.graph.generators import erdos_renyi\n"
            "from repro.parallel.shm import SharedGraph\n"
            "shared = SharedGraph(erdos_renyi(50, 0.1, seed=0))\n"
            "print('\\n'.join(seg.name for seg in shared._segments))\n"
            # no close(): the atexit guard must unlink at interpreter exit
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, cwd=".",
        ).stdout
        names = [n for n in out.splitlines() if n]
        assert names
        from multiprocessing import shared_memory

        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_partial_construction_unlinks(self, monkeypatch):
        from multiprocessing import shared_memory as shm_mod

        from repro.parallel import shm as shm_module

        created = []
        real = shm_mod.SharedMemory

        def flaky(*args, **kwargs):
            if kwargs.get("create") and created:
                raise OSError("shm exhausted")
            seg = real(*args, **kwargs)
            if kwargs.get("create"):
                created.append(seg.name)
            return seg

        monkeypatch.setattr(shm_module.shared_memory, "SharedMemory", flaky)
        with pytest.raises(OSError, match="shm exhausted"):
            SharedGraph(erdos_renyi(40, 0.1, seed=0))
        monkeypatch.undo()
        assert created
        for name in created:
            with pytest.raises(FileNotFoundError):
                real(name=name)
