"""Cross-engine recovery equivalence: every engine run under a fault
plan must reproduce the failure-free run bit-for-bit.

The four recovery paths of the resilience layer (TLAV checkpoint
replay, TLAG task re-queue, executor chunk re-dispatch, GNN snapshot
resume), plus the lossy network and the lambda fleet, all at a fixed
``FaultPlan`` seed.
"""

import numpy as np
import pytest

from repro.cluster.comm import Network
from repro.gnn.models import NodeClassifier
from repro.gnn.serverless import simulate_fleet
from repro.gnn.train import train_full_graph
from repro.graph.generators import barabasi_albert
from repro.matching.triangles import triangle_count
from repro.obs import MetricsRegistry, Tracer
from repro.parallel import ParallelExecutor
from repro.resilience import FaultPlan, RetryPolicy, SnapshotStore
from repro.tlag.engine import TaskEngine
from repro.tlag.programs import TriangleProgram
from repro.tlav.algorithms import BFSProgram, PageRankProgram
from repro.tlav.fault_tolerance import CheckpointedEngine

SEED = 7


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert(150, 3, seed=2)


class TestTlavRecovery:
    @pytest.mark.parametrize("mode", ["light", "full"])
    def test_bit_identical_after_replay(self, graph, mode):
        reference = CheckpointedEngine(
            graph, PageRankProgram(iterations=8), checkpoint_interval=3,
            mode=mode,
        ).run()
        obs = MetricsRegistry()
        tracer = Tracer()
        injector = FaultPlan(seed=SEED).fail_superstep(5).build(obs)
        engine = CheckpointedEngine(
            graph, PageRankProgram(iterations=8), checkpoint_interval=3,
            mode=mode, injector=injector, obs=obs, tracer=tracer,
        )
        assert engine.run() == reference
        assert engine.stats.failures == 1
        assert engine.stats.supersteps_replayed >= 1
        spans = tracer.find("resilience.recover")
        assert [s.attrs["engine"] for s in spans] == ["tlav"]
        assert spans[0].attrs["mode"] == mode

    def test_light_bills_less_than_full(self, graph):
        by_mode = {}
        for mode in ("light", "full"):
            obs = MetricsRegistry()
            store = SnapshotStore(obs=obs)
            CheckpointedEngine(
                graph, BFSProgram(source=0), checkpoint_interval=2,
                mode=mode, snapshots=store, obs=obs,
            ).run()
            by_mode[mode] = store.checkpoint_bytes("tlav")
        assert 0 < by_mode["light"] < by_mode["full"]

    def test_snapshot_store_counts_restores(self, graph):
        obs = MetricsRegistry()
        store = SnapshotStore(obs=obs)
        injector = FaultPlan(seed=SEED).fail_superstep(3).build(obs)
        CheckpointedEngine(
            graph, BFSProgram(source=0), checkpoint_interval=2,
            injector=injector, snapshots=store, obs=obs,
        ).run()
        assert store.restores("tlav") == 1


class TestTlagRecovery:
    def test_requeued_tasks_bit_identical(self, graph):
        reference = TaskEngine(
            graph, TriangleProgram(), num_workers=4
        )
        expected = sorted(reference.run())
        obs = MetricsRegistry()
        tracer = Tracer()
        injector = FaultPlan(seed=SEED).fail_task(20).build(obs)
        engine = TaskEngine(
            graph, TriangleProgram(), num_workers=4,
            injector=injector, checkpoint_every=8, obs=obs, tracer=tracer,
        )
        assert sorted(engine.run()) == expected
        assert engine.result_count == reference.result_count
        assert engine.snapshots.restores("tlag") == 1
        assert tracer.find("resilience.recover")[0].attrs["engine"] == "tlag"

    def test_recovery_without_periodic_checkpoints(self, graph):
        # Only the pre-run snapshot exists: recovery restarts the deal.
        expected = sorted(TaskEngine(graph, TriangleProgram(), num_workers=3).run())
        injector = FaultPlan(seed=SEED).fail_task(5).build()
        engine = TaskEngine(
            graph, TriangleProgram(), num_workers=3, injector=injector
        )
        assert sorted(engine.run()) == expected

    def test_repeated_crashes_still_converge(self, graph):
        expected = sorted(TaskEngine(graph, TriangleProgram(), num_workers=4).run())
        injector = (
            FaultPlan(seed=SEED).fail_task(4).fail_task(9).fail_task(30).build()
        )
        engine = TaskEngine(
            graph, TriangleProgram(), num_workers=4,
            injector=injector, checkpoint_every=6,
        )
        assert sorted(engine.run()) == expected
        assert engine.snapshots.restores("tlag") == 3

    def test_checkpoint_cadence_validated(self, graph):
        with pytest.raises(ValueError):
            TaskEngine(graph, TriangleProgram(), checkpoint_every=0)


class TestExecutorRecovery:
    def test_redispatch_matches_serial(self, graph):
        expected = triangle_count(graph)
        obs = MetricsRegistry()
        tracer = Tracer()
        injector = FaultPlan(seed=SEED).crash_worker(chunk=1).build(obs)
        with ParallelExecutor(
            backend="serial", workers=2, obs=obs,
            injector=injector, tracer=tracer,
        ) as executor:
            assert triangle_count(graph, executor=executor) == expected
        assert obs.counter("resilience.redispatched_chunks").total == 1
        assert tracer.find("resilience.recover")[0].attrs["engine"] == "executor"

    def test_process_pool_rebuild(self, graph):
        expected = triangle_count(graph)
        obs = MetricsRegistry()
        injector = FaultPlan(seed=SEED).crash_worker(chunk=0).build(obs)
        with ParallelExecutor(
            backend="process", workers=2, obs=obs, injector=injector
        ) as executor:
            assert triangle_count(graph, executor=executor) == expected
            assert executor.backend == "process"  # rebuilt, not degraded
        assert obs.counter("resilience.pool_failures").total == 1

    def test_degrades_to_serial(self, graph):
        expected = triangle_count(graph)
        obs = MetricsRegistry()
        injector = FaultPlan(seed=SEED).crash_worker(chunk=0, times=2).build(obs)
        with ParallelExecutor(
            backend="process", workers=2, obs=obs, injector=injector
        ) as executor:
            assert triangle_count(graph, executor=executor) == expected
            assert executor.backend == "serial"
        assert obs.gauge("resilience.degraded").value(to="serial") == 1


class TestGnnRecovery:
    def test_resume_from_snapshot_bit_identical(self, graph):
        rng = np.random.default_rng(0)
        n = graph.num_vertices
        features = rng.normal(size=(n, 8))
        labels = rng.integers(0, 3, size=n)
        mask = np.zeros(n, dtype=bool)
        mask[: n // 2] = True

        def run(injector=None, tracer=None):
            return train_full_graph(
                NodeClassifier(8, 16, 3, seed=5), graph, features=features,
                labels=labels, train_mask=mask, val_mask=~mask, epochs=10,
                injector=injector, checkpoint_every=4, tracer=tracer,
            )

        reference = run()
        tracer = Tracer()
        injector = FaultPlan(seed=SEED).fail_epoch(6).build()
        recovered = run(injector, tracer)
        assert recovered.losses == reference.losses
        assert recovered.train_accuracy == reference.train_accuracy
        assert recovered.val_accuracy == reference.val_accuracy
        span = tracer.find("resilience.recover")[0]
        assert span.attrs["engine"] == "gnn"
        assert span.attrs["replayed"] == 2  # crash at 6, checkpoint at 4

    def test_cadence_validated(self, graph):
        with pytest.raises(ValueError):
            train_full_graph(
                NodeClassifier(4, 4, 2), graph,
                features=np.zeros((graph.num_vertices, 4)),
                labels=np.zeros(graph.num_vertices, dtype=int),
                train_mask=np.ones(graph.num_vertices, dtype=bool),
                epochs=1, checkpoint_every=0,
            )


class TestLossyNetworkEquivalence:
    @staticmethod
    def pump(net, messages=60, workers=4):
        received = []
        for i in range(messages):
            net.send(i % workers, (3 * i + 1) % workers, payload=i, tag="t")
        while net.has_pending():
            net.deliver()
            for w in range(workers):
                received.extend((w, m.seq, m.payload) for m in net.receive(w))
        return received

    def test_reliable_lossy_run_matches_clean(self):
        reference = self.pump(Network(4))
        plan = FaultPlan(seed=SEED).lossy_network(
            drop=0.2, duplicate=0.1, delay=0.1
        )
        lossy = Network(
            4, injector=plan.build(),
            retry=RetryPolicy(max_attempts=4, seed=SEED),
        )
        got = self.pump(lossy)
        # Delayed messages surface in later rounds, so compare the
        # per-worker multiset; dedup + stable seq order make it exact.
        assert sorted(got) == sorted(reference)
        assert lossy.stats.retransmits > 0

    def test_unreliable_without_retry_loses(self):
        plan = FaultPlan(seed=SEED).lossy_network(drop=0.3)
        lossy = Network(4, injector=plan.build(), reliable=False)
        got = self.pump(lossy)
        assert len(got) < 60
        assert lossy.stats.lost > 0


class TestLambdaFleet:
    def test_deterministic_and_lossless(self):
        plan = FaultPlan(seed=SEED).fail_lambda(0.2, straggler=0.1)
        retry = RetryPolicy(max_attempts=3, timeout=0.5, seed=SEED)
        a = simulate_fleet(48, 1.0, 6, injector=plan.build(), retry=retry)
        b = simulate_fleet(48, 1.0, 6, injector=plan.build(), retry=retry)
        assert a.as_dict() == b.as_dict()
        # Every invocation completes exactly once, whatever failed.
        assert a.busy_seconds == pytest.approx(48 * 1.0)

    def test_retry_cures_the_tail(self):
        plan = FaultPlan(seed=SEED).fail_lambda(0.0, straggler=0.2)
        retry = RetryPolicy(max_attempts=4, timeout=0.5, seed=SEED)
        cured = simulate_fleet(48, 1.0, 6, injector=plan.build(), retry=retry)
        uncured = simulate_fleet(48, 1.0, 6, injector=plan.build())
        assert cured.makespan < uncured.makespan
        assert cured.retries > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_fleet(-1, 1.0, 2)
        with pytest.raises(ValueError):
            simulate_fleet(1, 1.0, 0)
