"""Table-2 technique modules: pipeline, P3, caching, quantization,
comm planning, serverless economics, host offload."""

import numpy as np
import pytest

from repro.cluster.links import ethernet_topology, nvlink_topology
from repro.gnn.caching import (
    LRUCache,
    StaticDegreeCache,
    access_trace_from_sampling,
    replay,
)
from repro.gnn.comm_plan import (
    flat_broadcast_time,
    flat_ring_allreduce_time,
    hierarchical_allreduce_time,
    hierarchical_broadcast_time,
)
from repro.gnn.offload import (
    DeviceMemoryExceeded,
    naive_footprint,
    plan_offload,
)
from repro.gnn.p3 import (
    data_parallel_bytes_per_step,
    p3_bytes_per_step,
    partial_aggregation,
    shard_columns,
)
from repro.gnn.pipeline import (
    StageTimes,
    measured_stage_times,
    pipelined_schedule,
    sequential_schedule,
    two_level_schedule,
)
from repro.gnn.quantization import (
    ErrorCompensatedQuantizer,
    compressed_nbytes,
    dequantize,
    quantize,
    quantize_dequantize,
)
from repro.gnn.serverless import Workload, estimate_costs
from repro.graph.generators import barabasi_albert
from repro.obs import MetricsRegistry


class TestPipeline:
    def test_pipelining_beats_sequential(self):
        batches = measured_stage_times(30, seed=0)
        seq = sequential_schedule(batches)
        pipe = pipelined_schedule(batches)
        assert pipe.makespan < seq.makespan * 0.6

    def test_pipeline_bounded_by_bottleneck(self):
        batches = [StageTimes(1.0, 2.0, 0.5)] * 50
        pipe = pipelined_schedule(batches)
        # Steady state: one gather (the bottleneck) per batch.
        assert pipe.makespan == pytest.approx(1.0 + 50 * 2.0 + 0.5, rel=0.05)

    def test_two_level_helps_when_sampling_dominates(self):
        batches = [StageTimes(3.0, 1.0, 1.0)] * 40
        single = pipelined_schedule(batches)
        dual = two_level_schedule(batches, samplers=3)
        assert dual.makespan < single.makespan * 0.6

    def test_two_level_no_gain_when_sampling_cheap(self):
        batches = [StageTimes(0.1, 1.0, 2.0)] * 40
        single = pipelined_schedule(batches)
        dual = two_level_schedule(batches, samplers=4)
        assert dual.makespan == pytest.approx(single.makespan, rel=0.05)

    def test_utilization_improves(self):
        batches = measured_stage_times(30, seed=1)
        seq = sequential_schedule(batches)
        pipe = pipelined_schedule(batches)
        assert pipe.mean_utilization > seq.mean_utilization

    def test_busy_time_conserved(self):
        batches = measured_stage_times(20, seed=2)
        seq = sequential_schedule(batches)
        pipe = pipelined_schedule(batches)
        for stage in ("sample", "gather", "compute"):
            assert seq.busy[stage] == pytest.approx(pipe.busy[stage])


class TestP3:
    def test_shards_partition_columns(self):
        shards = shard_columns(10, 3)
        all_cols = np.concatenate(shards)
        assert sorted(all_cols.tolist()) == list(range(10))

    def test_partial_aggregation_exact(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(12, 16))
        w = rng.normal(size=(16, 4))
        full, partials = partial_aggregation(x, w, 4)
        assert len(partials) == 4
        assert np.allclose(full, x @ w)
        assert np.allclose(sum(partials), x @ w)

    def test_crossover_in_feature_width(self):
        """The C11 claim: P3 wins iff raw features are wide."""
        p3 = p3_bytes_per_step(64, 600, hidden_dim=32, num_workers=4)
        narrow_dp = data_parallel_bytes_per_step(64, 600, in_dim=8)
        wide_dp = data_parallel_bytes_per_step(64, 600, in_dim=256)
        assert p3.total > narrow_dp.total
        assert p3.total < wide_dp.total

    def test_p3_traffic_independent_of_feature_width(self):
        a = p3_bytes_per_step(64, 600, hidden_dim=32, num_workers=4)
        assert a.feature_fetch == 0


class TestCaching:
    @pytest.fixture(scope="class")
    def trace(self):
        g = barabasi_albert(400, 4, seed=1)
        return g, access_trace_from_sampling(
            g, list(range(0, 400, 4)), fanouts=(5, 5), batch_size=20,
            epochs=2, seed=0,
        )

    def test_degree_cache_hit_rate_grows_with_capacity(self, trace):
        g, accesses = trace
        rates = [
            replay(accesses, StaticDegreeCache(g, cap)).hit_rate
            for cap in (10, 50, 200)
        ]
        assert rates[0] < rates[1] < rates[2]

    def test_zero_capacity_no_hits(self, trace):
        g, accesses = trace
        assert replay(accesses, StaticDegreeCache(g, 0)).hit_rate == 0.0
        assert replay(accesses, LRUCache(0)).hit_rate == 0.0

    def test_degree_cache_beats_lru_on_powerlaw(self, trace):
        """AliGraph's bet: static importance caching wins under skew."""
        g, accesses = trace
        degree_rate = replay(accesses, StaticDegreeCache(g, 50)).hit_rate
        lru_rate = replay(accesses, LRUCache(50)).hit_rate
        assert degree_rate > lru_rate

    def test_lru_exploits_recency(self):
        cache = LRUCache(2)
        assert not cache.lookup(1)
        assert cache.lookup(1)
        assert not cache.lookup(2)
        assert not cache.lookup(3)  # evicts 1
        assert not cache.lookup(1)

    def test_bytes_accounting(self, trace):
        g, accesses = trace
        report = replay(accesses, StaticDegreeCache(g, 100), feature_dim=64)
        total = report.bytes_fetched + report.bytes_saved
        assert total == len(accesses) * 64 * 8


class TestCacheAccounting:
    """Regression: caches keep their own books and replay audits them.

    Pre-fix neither cache tracked its own hits/misses, so ``replay``'s
    external tally was unverifiable and accounting bugs were invisible.
    Pinned in the differential corpus as ``gnn-lru-accounting.json``.
    """

    @pytest.fixture(scope="class")
    def trace(self):
        g = barabasi_albert(400, 4, seed=1)
        return g, access_trace_from_sampling(
            g, list(range(0, 400, 4)), fanouts=(5, 5), batch_size=20,
            epochs=2, seed=0,
        )

    def test_lru_stats_match_replayed_counts(self):
        cache = LRUCache(2)
        trace = [1, 1, 2, 3, 1, 3, 3]
        report = replay(trace, cache)
        assert cache.stats.hits == report.hits
        assert cache.stats.accesses == len(trace)
        assert cache.stats.admissions == cache.stats.evictions + len(cache._lru)

    def test_replay_and_cache_count_each_hit_once(self):
        obs = MetricsRegistry()
        cache = LRUCache(2, obs=obs)
        report = replay([1, 2, 1, 3, 1, 2, 4, 1], cache, obs=obs)
        assert report.hits == 2
        hits = obs.counter("gnn.cache.hits")
        assert hits.total == hits.value(cache="lru") == report.hits
        assert obs.counter("gnn.cache.accesses").total == 8

    def test_zero_capacity_lru_counts_misses(self):
        cache = LRUCache(0)
        replay([1, 2, 3], cache)
        assert cache.stats.misses == 3
        assert cache.stats.admissions == 0 and cache.stats.evictions == 0

    def test_static_cache_stats(self, trace):
        g, accesses = trace
        cache = StaticDegreeCache(g, 50)
        assert cache.stats.admissions == 50
        report = replay(accesses, cache)
        assert cache.stats.hits == report.hits
        assert cache.stats.evictions == 0  # pinned contents never change

    def test_bytes_saved_backed_by_cache_books(self, trace):
        g, accesses = trace
        cache = StaticDegreeCache(g, 100)
        report = replay(accesses, cache, feature_dim=32)
        assert report.bytes_saved == cache.stats.hits * 32 * 8

    def test_replay_detects_accounting_drift(self):
        class LyingCache(LRUCache):
            def lookup(self, vertex):
                super().lookup(vertex)
                return True  # claim hits the books never recorded

        with pytest.raises(RuntimeError, match="accounting drift"):
            replay([1, 2, 1, 2], LyingCache(4))

    def test_stats_snapshot_is_independent(self):
        cache = LRUCache(4)
        snap = cache.stats.snapshot()
        cache.lookup(1)
        assert snap.accesses == 0 and cache.stats.accesses == 1

class TestQuantization:
    def test_round_trip_error_bounded_by_step(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(20, 32))
        for bits in (2, 4, 8):
            codes, lo, scale = quantize(x, bits)
            recon = dequantize(codes, lo, scale)
            assert np.abs(recon - x).max() <= scale.max() / 2 + 1e-12

    def test_more_bits_less_error(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(10, 64))
        errors = [
            np.abs(quantize_dequantize(x, bits) - x).max()
            for bits in (1, 2, 4, 8)
        ]
        assert errors == sorted(errors, reverse=True)

    def test_stochastic_rounding_unbiased(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 8))
        total = np.zeros_like(x)
        n = 400
        for i in range(n):
            total += quantize_dequantize(
                x, 2, rng=np.random.default_rng(1000 + i)
            )
        assert np.abs(total / n - x).max() < 0.15

    def test_constant_rows_exact(self):
        x = np.full((3, 5), 2.5)
        assert np.allclose(quantize_dequantize(x, 1), x)

    def test_compressed_bytes_smaller(self):
        shape = (100, 64)
        fp64 = 100 * 64 * 8
        assert compressed_nbytes(shape, 8) < fp64 / 4
        assert compressed_nbytes(shape, 1) < compressed_nbytes(shape, 8)

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            quantize(np.ones((2, 2)), 0)

    def test_error_feedback_time_average_unbiased(self):
        """EC-Graph's property: the residual carries over and cancels."""
        rng = np.random.default_rng(3)
        x = rng.normal(size=(8, 16))
        q = ErrorCompensatedQuantizer(bits=1)
        acc = np.zeros_like(x)
        n = 300
        for _ in range(n):
            acc += q.compress(x)
        assert np.abs(acc / n - x).max() < 0.05

    def test_error_feedback_beats_plain_low_bit(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(8, 16))
        q = ErrorCompensatedQuantizer(bits=1)
        acc_ef = np.zeros_like(x)
        acc_plain = np.zeros_like(x)
        n = 200
        for _ in range(n):
            acc_ef += q.compress(x)
            acc_plain += quantize_dequantize(x, 1)
        err_ef = np.abs(acc_ef / n - x).max()
        err_plain = np.abs(acc_plain / n - x).max()
        assert err_ef < err_plain


class TestCommPlanning:
    def test_hierarchical_wins_on_nvlink(self):
        """The C12/DGCL claim."""
        top = nvlink_topology(4, 4)
        nbytes = 200 * 1024 * 1024
        flat = flat_ring_allreduce_time(top, nbytes)
        hier = hierarchical_allreduce_time(top, nbytes, gpus_per_host=4)
        assert hier < flat

    def test_hierarchical_loses_on_flat_ethernet(self):
        top = ethernet_topology(16)
        nbytes = 200 * 1024 * 1024
        flat = flat_ring_allreduce_time(top, nbytes)
        hier = hierarchical_allreduce_time(top, nbytes, gpus_per_host=4)
        assert flat <= hier

    def test_broadcast_hierarchy_wins_on_nvlink(self):
        top = nvlink_topology(4, 4)
        nbytes = 100 * 1024 * 1024
        assert hierarchical_broadcast_time(top, 0, nbytes, 4) < flat_broadcast_time(
            top, 0, nbytes
        )

    def test_single_host_equal(self):
        top = nvlink_topology(1, 4)
        nbytes = 10**8
        flat = flat_ring_allreduce_time(top, nbytes)
        hier = hierarchical_allreduce_time(top, nbytes, gpus_per_host=4)
        # One host: the hierarchy degenerates to the same intra-host ring
        # plus an NVLink broadcast — same order of magnitude, no cross-host
        # advantage to exploit.
        assert flat <= hier < 2 * flat

    def test_device_count_mismatch_rejected(self):
        top = nvlink_topology(2, 4)
        with pytest.raises(ValueError):
            hierarchical_allreduce_time(top, 100, gpus_per_host=3)


class TestServerless:
    def test_dorylus_value_claim(self):
        """cpu+lambda beats GPU on value-per-dollar for graph-heavy work."""
        workload = Workload(graph_ops=5e9, tensor_flops=2e12, epochs=100)
        costs = estimate_costs(workload)
        assert (
            costs["cpu+lambda"].value_per_dollar
            > costs["gpu"].value_per_dollar
        )

    def test_gpu_fastest_on_tensor_heavy(self):
        workload = Workload(graph_ops=1e8, tensor_flops=5e13, epochs=10)
        costs = estimate_costs(workload)
        assert costs["gpu"].time_seconds < costs["cpu"].time_seconds
        assert costs["gpu"].time_seconds < costs["cpu+lambda"].time_seconds

    def test_hybrid_faster_than_pure_cpu(self):
        workload = Workload(graph_ops=5e9, tensor_flops=2e12, epochs=50)
        costs = estimate_costs(workload)
        assert costs["cpu+lambda"].time_seconds < costs["cpu"].time_seconds

    def test_costs_scale_with_epochs(self):
        w1 = Workload(graph_ops=1e9, tensor_flops=1e12, epochs=10)
        w2 = Workload(graph_ops=1e9, tensor_flops=1e12, epochs=20)
        c1, c2 = estimate_costs(w1), estimate_costs(w2)
        for name in c1:
            assert c2[name].dollars == pytest.approx(2 * c1[name].dollars)


class TestOffload:
    @pytest.fixture(scope="class")
    def graph(self):
        return barabasi_albert(1000, 6, seed=0)

    def test_plan_fits_budget(self, graph):
        dims = [64, 32, 8]
        budget = naive_footprint(graph, dims) // 10
        plan = plan_offload(graph, dims, budget)
        assert plan.device_bytes_per_chunk <= budget
        assert plan.num_chunks > 1

    def test_big_budget_single_chunk(self, graph):
        dims = [64, 32, 8]
        plan = plan_offload(graph, dims, naive_footprint(graph, dims) * 2)
        assert plan.num_chunks == 1

    def test_transfer_volume_grows_with_pressure(self, graph):
        dims = [64, 32, 8]
        naive = naive_footprint(graph, dims)
        loose = plan_offload(graph, dims, naive)
        tight = plan_offload(graph, dims, naive // 20)
        assert tight.transfer_bytes_per_epoch > loose.transfer_bytes_per_epoch

    def test_impossible_budget_raises(self, graph):
        with pytest.raises(DeviceMemoryExceeded):
            plan_offload(graph, [64, 32, 8], device_budget_bytes=10)

    def test_host_holds_everything(self, graph):
        dims = [16, 8]
        plan = plan_offload(graph, dims, naive_footprint(graph, dims))
        assert plan.host_bytes == naive_footprint(graph, dims)
