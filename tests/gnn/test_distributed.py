"""Distributed GNN training: exactness, traffic, quantized halos."""

import numpy as np
import pytest

from repro.gnn.distributed import DistributedTrainer, halo_sets
from repro.gnn.models import NodeClassifier
from repro.gnn.train import train_full_graph
from repro.graph.generators import planted_partition
from repro.graph.partition import (
    bfs_voronoi_partition,
    hash_partition,
    metis_like_partition,
)


@pytest.fixture(scope="module")
def task():
    g, labels = planted_partition(3, 24, p_in=0.2, p_out=0.01, seed=2)
    n = g.num_vertices
    rng = np.random.default_rng(1)
    features = np.eye(3)[labels] + rng.normal(0, 1.2, size=(n, 3))
    train_mask = np.zeros(n, dtype=bool)
    train_mask[rng.permutation(n)[:36]] = True
    return g, labels, features, train_mask, ~train_mask


class TestHaloSets:
    def test_halos_are_remote_neighbors(self, task):
        g, *_ = task
        partition = hash_partition(g, 3)
        halos = halo_sets(g, partition)
        for worker, halo in enumerate(halos):
            for v in halo:
                assert partition.assignment[v] != worker
                # v neighbors some vertex of this worker.
                assert any(
                    partition.assignment[int(w)] == worker
                    for w in g.neighbors(v)
                )

    def test_single_worker_empty_halos(self, task):
        g, *_ = task
        halos = halo_sets(g, hash_partition(g, 1))
        assert halos == [set()]


class TestSyncExactness:
    def test_identical_to_single_process(self, task):
        g, labels, features, train_mask, val_mask = task
        reference = train_full_graph(
            NodeClassifier(3, 8, 3, seed=0), g, features=features, labels=labels,
            train_mask=train_mask, val_mask=val_mask, epochs=8, lr=0.05,
        )
        trainer = DistributedTrainer(
            NodeClassifier(3, 8, 3, seed=0), g, hash_partition(g, 4),
            features, labels, lr=0.05,
        )
        report = trainer.train(train_mask, val_mask, epochs=8)
        assert report.losses == reference.losses
        assert report.val_accuracy == reference.val_accuracy

    def test_partition_choice_does_not_change_learning(self, task):
        g, labels, features, train_mask, val_mask = task
        reports = []
        for partition in (
            hash_partition(g, 4),
            metis_like_partition(g, 4, seed=0),
        ):
            trainer = DistributedTrainer(
                NodeClassifier(3, 8, 3, seed=0), g, partition,
                features, labels, lr=0.05,
            )
            reports.append(trainer.train(train_mask, val_mask, epochs=5))
        assert np.allclose(reports[0].losses, reports[1].losses)


class TestTraffic:
    def test_better_partition_less_halo_traffic(self, task):
        """The C8 claim."""
        g, labels, features, train_mask, val_mask = task
        byte_counts = {}
        for name, partition in [
            ("hash", hash_partition(g, 4)),
            ("metis", metis_like_partition(g, 4, seed=0)),
        ]:
            trainer = DistributedTrainer(
                NodeClassifier(3, 8, 3, seed=0), g, partition,
                features, labels, lr=0.05,
            )
            trainer.train(train_mask, epochs=3)
            byte_counts[name] = trainer.bytes_by_tag().get("halo", 0)
        assert byte_counts["metis"] < byte_counts["hash"]

    def test_traffic_tags_present(self, task):
        g, labels, features, train_mask, _ = task
        trainer = DistributedTrainer(
            NodeClassifier(3, 8, 3, seed=0), g, hash_partition(g, 3),
            features, labels,
        )
        trainer.train(train_mask, epochs=2)
        tags = trainer.bytes_by_tag()
        assert tags.get("halo", 0) > 0
        assert tags.get("grad-sync", 0) > 0

    def test_traffic_scales_with_epochs(self, task):
        g, labels, features, train_mask, _ = task

        def run(epochs):
            trainer = DistributedTrainer(
                NodeClassifier(3, 8, 3, seed=0), g, hash_partition(g, 3),
                features, labels,
            )
            trainer.train(train_mask, epochs=epochs)
            return trainer.remote_bytes

        assert run(4) == 2 * run(2)

    def test_voronoi_partition_works_too(self, task):
        g, labels, features, train_mask, _ = task
        seeds = np.nonzero(train_mask)[0][:12]
        partition = bfs_voronoi_partition(g, 3, seeds=list(seeds))
        trainer = DistributedTrainer(
            NodeClassifier(3, 8, 3, seed=0), g, partition, features, labels
        )
        report = trainer.train(train_mask, epochs=2)
        assert report.steps == 2


class TestQuantizedHalo:
    def test_bits_reduce_accounted_bytes(self, task):
        g, labels, features, train_mask, _ = task

        def halo_bytes(bits):
            trainer = DistributedTrainer(
                NodeClassifier(3, 8, 3, seed=0), g, hash_partition(g, 3),
                features, labels, halo_bits=bits,
            )
            trainer.train(train_mask, epochs=2)
            return trainer.bytes_by_tag()["halo"]

        assert halo_bytes(8) < halo_bytes(None)

    def test_quantization_changes_loss_slightly(self, task):
        g, labels, features, train_mask, val_mask = task
        exact = DistributedTrainer(
            NodeClassifier(3, 8, 3, seed=0), g, hash_partition(g, 3),
            features, labels, lr=0.05,
        )
        r_exact = exact.train(train_mask, val_mask, epochs=8)
        quantized = DistributedTrainer(
            NodeClassifier(3, 8, 3, seed=0), g, hash_partition(g, 3),
            features, labels, lr=0.05, halo_bits=4,
        )
        r_quant = quantized.train(train_mask, val_mask, epochs=8)
        # Lossy but still learns: losses differ, accuracy stays sane.
        assert not np.allclose(r_exact.losses, r_quant.losses)
        assert r_quant.final_val_accuracy >= r_exact.final_val_accuracy - 0.25

    def test_error_feedback_state_kept(self, task):
        g, labels, features, train_mask, _ = task
        trainer = DistributedTrainer(
            NodeClassifier(3, 8, 3, seed=0), g, hash_partition(g, 3),
            features, labels, halo_bits=2, error_feedback=True,
        )
        trainer.train(train_mask, epochs=3)
        assert trainer._residual is not None
        assert np.abs(trainer._residual).max() > 0


class TestQuantizedGradients:
    def test_bits_reduce_sync_bytes(self, task):
        g, labels, features, train_mask, _ = task

        def sync_bytes(bits):
            trainer = DistributedTrainer(
                NodeClassifier(3, 8, 3, seed=0), g, hash_partition(g, 3),
                features, labels, grad_bits=bits,
            )
            trainer.train(train_mask, epochs=2)
            return trainer.bytes_by_tag()["grad-sync"]

        full = sync_bytes(None)
        int4 = sync_bytes(4)
        int2 = sync_bytes(2)
        assert int2 < int4 < full
        assert int4 == pytest.approx(full * 4 / 64, rel=0.02)

    def test_quantized_gradients_still_learn(self, task):
        """The Sylvie/EC-Graph gradient-compression claim."""
        g, labels, features, train_mask, val_mask = task
        trainer = DistributedTrainer(
            NodeClassifier(3, 8, 3, seed=0), g, hash_partition(g, 3),
            features, labels, lr=0.05, grad_bits=2,
        )
        report = trainer.train(train_mask, val_mask, epochs=20)
        assert report.losses[-1] < report.losses[0]
        assert report.final_val_accuracy > 0.6

    def test_quantization_perturbs_but_tracks_exact(self, task):
        g, labels, features, train_mask, _ = task
        exact = DistributedTrainer(
            NodeClassifier(3, 8, 3, seed=0), g, hash_partition(g, 3),
            features, labels, lr=0.05,
        ).train(train_mask, epochs=10)
        quant = DistributedTrainer(
            NodeClassifier(3, 8, 3, seed=0), g, hash_partition(g, 3),
            features, labels, lr=0.05, grad_bits=4,
        ).train(train_mask, epochs=10)
        assert not np.allclose(exact.losses, quant.losses)
        assert abs(exact.losses[-1] - quant.losses[-1]) < 0.5
