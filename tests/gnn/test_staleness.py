"""Staleness: SSP utilization, stale gradients, Sancus gate, delayed halos."""

import numpy as np
import pytest

from repro.gnn.models import NodeClassifier
from repro.gnn.staleness import (
    SancusGate,
    simulate_staleness,
    train_delayed_halo,
    train_stale_gradients,
)
from repro.gnn.train import train_full_graph
from repro.graph.generators import planted_partition
from repro.graph.partition import hash_partition


@pytest.fixture(scope="module")
def task():
    g, labels = planted_partition(3, 24, p_in=0.2, p_out=0.01, seed=3)
    n = g.num_vertices
    rng = np.random.default_rng(2)
    features = np.eye(3)[labels] + rng.normal(0, 1.2, size=(n, 3))
    train_mask = np.zeros(n, dtype=bool)
    train_mask[rng.permutation(n)[:36]] = True
    return g, labels, features, train_mask, ~train_mask


class TestSSPSimulation:
    def test_utilization_increases_with_staleness(self):
        """The C9 utilization claim."""
        traces = [
            simulate_staleness(8, 60, staleness=s, seed=1) for s in (0, 1, 4)
        ]
        utils = [t.utilization for t in traces]
        assert utils[0] < utils[1] <= utils[2] + 1e-9

    def test_makespan_not_worse_with_staleness(self):
        bsp = simulate_staleness(8, 60, staleness=0, seed=2)
        ssp = simulate_staleness(8, 60, staleness=3, seed=2)
        assert ssp.makespan <= bsp.makespan

    def test_busy_time_independent_of_policy(self):
        a = simulate_staleness(4, 40, staleness=0, seed=3)
        b = simulate_staleness(4, 40, staleness=5, seed=3)
        assert a.busy_time == pytest.approx(b.busy_time)

    def test_homogeneous_workers_no_idle(self):
        trace = simulate_staleness(4, 20, staleness=0, speed_spread=0.0, seed=0)
        assert trace.idle_time == pytest.approx(0.0)

    def test_single_worker_fully_utilized(self):
        trace = simulate_staleness(1, 30, staleness=0, seed=5)
        assert trace.utilization == pytest.approx(1.0)


class TestStaleGradients:
    def test_staleness_zero_is_exact(self, task):
        g, labels, features, train_mask, val_mask = task
        reference = train_full_graph(
            NodeClassifier(3, 8, 3, seed=0), g, features=features, labels=labels,
            train_mask=train_mask, val_mask=val_mask, epochs=10, lr=0.05,
        )
        stale = train_stale_gradients(
            NodeClassifier(3, 8, 3, seed=0), g, features, labels,
            train_mask, val_mask, staleness=0, epochs=10, lr=0.05,
        )
        assert stale.losses == reference.losses

    def test_bounded_staleness_still_converges(self, task):
        """The C9 convergence claim."""
        g, labels, features, train_mask, val_mask = task
        stale = train_stale_gradients(
            NodeClassifier(3, 8, 3, seed=0), g, features, labels,
            train_mask, val_mask, staleness=3, epochs=60, lr=0.05,
        )
        assert stale.losses[-1] < stale.losses[0] * 0.75
        assert stale.final_val_accuracy > 0.5

    def test_staleness_perturbs_trajectory(self, task):
        g, labels, features, train_mask, val_mask = task
        a = train_stale_gradients(
            NodeClassifier(3, 8, 3, seed=0), g, features, labels,
            train_mask, val_mask, staleness=0, epochs=15, lr=0.05,
        )
        b = train_stale_gradients(
            NodeClassifier(3, 8, 3, seed=0), g, features, labels,
            train_mask, val_mask, staleness=4, epochs=15, lr=0.05,
        )
        assert not np.allclose(a.losses, b.losses)


class TestSancusGate:
    def test_first_call_broadcasts(self):
        gate = SancusGate(threshold=0.1)
        assert gate.should_broadcast(np.ones(4))
        assert gate.broadcasts == 1

    def test_small_changes_skipped(self):
        gate = SancusGate(threshold=0.5)
        base = np.ones(16)
        gate.should_broadcast(base)
        for _ in range(5):
            assert not gate.should_broadcast(base + 1e-4)
        assert gate.skips == 5

    def test_large_change_broadcasts(self):
        gate = SancusGate(threshold=0.1)
        gate.should_broadcast(np.ones(4))
        assert gate.should_broadcast(np.ones(4) * 5)
        assert gate.broadcasts == 2

    def test_drift_accumulates_until_broadcast(self):
        # Repeated tiny drifts against the *last broadcast* eventually fire.
        gate = SancusGate(threshold=0.1)
        base = np.ones(16)
        gate.should_broadcast(base)
        fired = [gate.should_broadcast(base * (1 + 0.03 * k)) for k in range(1, 8)]
        assert any(fired)


class TestDelayedHalo:
    def test_refresh_every_one_is_exact(self, task):
        g, labels, features, train_mask, val_mask = task
        partition = hash_partition(g, 3)
        reference = train_full_graph(
            NodeClassifier(3, 8, 3, seed=0), g, features=features, labels=labels,
            train_mask=train_mask, val_mask=val_mask, epochs=8, lr=0.05,
        )
        report, exchanges, saved = train_delayed_halo(
            NodeClassifier(3, 8, 3, seed=0), g, partition, features, labels,
            train_mask, val_mask, refresh_every=1, epochs=8, lr=0.05,
        )
        assert report.losses == reference.losses
        assert saved == 0

    def test_delays_save_exchanges(self, task):
        g, labels, features, train_mask, _ = task
        partition = hash_partition(g, 3)
        _, exchanges, saved = train_delayed_halo(
            NodeClassifier(3, 8, 3, seed=0), g, partition, features, labels,
            train_mask, refresh_every=4, epochs=16, lr=0.05,
        )
        assert exchanges == 4
        assert saved == 12

    def test_still_learns_with_delay(self, task):
        """DistGNN's cd-r trade: fewer syncs, bounded quality loss."""
        g, labels, features, train_mask, val_mask = task
        partition = hash_partition(g, 3)
        report, *_ = train_delayed_halo(
            NodeClassifier(3, 8, 3, seed=0), g, partition, features, labels,
            train_mask, val_mask, refresh_every=4, epochs=30, lr=0.05,
        )
        assert report.losses[-1] < report.losses[0]
        assert report.final_val_accuracy > 0.5


class TestHistoricalEmbeddings:
    """Sancus made operational: gated historical halo activations."""

    def test_zero_threshold_is_exact_sync(self, task):
        from repro.gnn.historical import train_historical
        from repro.gnn.train import train_full_graph

        g, labels, features, train_mask, val_mask = task
        partition = hash_partition(g, 4)
        reference = train_full_graph(
            NodeClassifier(3, 8, 3, seed=0), g, features=features, labels=labels,
            train_mask=train_mask, val_mask=val_mask, epochs=10, lr=0.05,
        )
        hist = train_historical(
            NodeClassifier(3, 8, 3, seed=0), g, partition, features,
            labels, train_mask, val_mask, drift_threshold=0.0,
            epochs=10, lr=0.05,
        )
        assert hist.report.losses == reference.losses
        assert hist.skips == 0

    def test_higher_threshold_fewer_broadcasts(self, task):
        from repro.gnn.historical import train_historical

        g, labels, features, train_mask, _ = task
        partition = hash_partition(g, 4)
        counts = []
        for threshold in (0.02, 0.2, 0.8):
            hist = train_historical(
                NodeClassifier(3, 8, 3, seed=0), g, partition, features,
                labels, train_mask, drift_threshold=threshold,
                epochs=25, lr=0.05,
            )
            counts.append(hist.broadcasts)
        assert counts == sorted(counts, reverse=True)

    def test_halo_bytes_proportional_to_broadcasts(self, task):
        from repro.gnn.historical import train_historical

        g, labels, features, train_mask, _ = task
        partition = hash_partition(g, 4)
        hist = train_historical(
            NodeClassifier(3, 8, 3, seed=0), g, partition, features,
            labels, train_mask, drift_threshold=0.2, epochs=20, lr=0.05,
        )
        from repro.gnn.distributed import halo_sets

        halos = halo_sets(g, partition)
        remote_count = len(set().union(*halos)) if halos else 0
        per_broadcast = remote_count * 8 * 8  # rows * hidden * float64
        assert hist.halo_bytes == hist.broadcasts * per_broadcast

    def test_still_converges_with_skipping(self, task):
        from repro.gnn.historical import train_historical

        g, labels, features, train_mask, val_mask = task
        partition = hash_partition(g, 4)
        hist = train_historical(
            NodeClassifier(3, 8, 3, seed=0), g, partition, features,
            labels, train_mask, val_mask, drift_threshold=0.3,
            epochs=40, lr=0.05,
        )
        assert hist.skips > hist.broadcasts
        assert hist.report.losses[-1] < hist.report.losses[0]
        assert hist.report.final_val_accuracy > 0.5
