"""The DistDGL pipeline: partition x sampling x cache, composed."""

import numpy as np
import pytest

from repro.cluster.comm import Network
from repro.gnn.caching import LRUCache, StaticDegreeCache
from repro.gnn.distributed_sampled import DistributedSampledTrainer
from repro.gnn.models import Adam, NodeClassifier
from repro.gnn.sampling import NeighborSampler
from repro.gnn.tensor import Tensor
from repro.graph.generators import planted_partition
from repro.graph.partition import hash_partition, metis_like_partition


@pytest.fixture(scope="module")
def task():
    g, labels = planted_partition(4, 30, p_in=0.14, p_out=0.01, seed=10)
    n = g.num_vertices
    rng = np.random.default_rng(3)
    features = np.eye(4)[labels] + rng.normal(0, 1.2, size=(n, 4))
    train_mask = np.zeros(n, dtype=bool)
    train_mask[rng.permutation(n)[: n // 2]] = True
    return g, labels, features, train_mask, ~train_mask


def _trainer(task, partition, cache=0, policy="degree", seed=1):
    g, labels, features, *_ = task
    return DistributedSampledTrainer(
        NodeClassifier(4, 16, 4, layer="sage", seed=0), g, partition,
        features, labels, fanouts=(4, 4), batch_size=16, lr=0.05,
        cache_capacity=cache, cache_policy=policy, seed=seed,
    )


class TestLearning:
    def test_learns_communities(self, task):
        g, labels, features, train_mask, val_mask = task
        trainer = _trainer(task, hash_partition(g, 4))
        report = trainer.train(train_mask, val_mask, epochs=6)
        assert report.losses[-1] < report.losses[0]
        assert report.final_val_accuracy > 0.5

    @pytest.mark.parametrize("layer, train_acc, val_acc", [
        ("sage", [0.6333333333333333, 0.75, 0.8333333333333334],
         [0.5166666666666667, 0.5666666666666667, 0.6833333333333333]),
        ("gcn", [0.8666666666666667, 0.8, 0.8333333333333334],
         [0.7833333333333333, 0.7333333333333333, 0.7833333333333333]),
        ("gat", [0.8, 0.7833333333333333, 0.85],
         [0.6333333333333333, 0.5333333333333333, 0.7]),
    ])
    def test_exact_eval_accuracies_pinned(self, task, layer, train_acc, val_acc):
        # Accuracies of the trainer's own per-epoch full forward, before
        # it moved onto the shared evaluation inputs: they must not move.
        g, labels, features, train_mask, val_mask = task
        trainer = DistributedSampledTrainer(
            NodeClassifier(4, 16, 4, layer=layer, seed=0), g,
            hash_partition(g, 4), features, labels, fanouts=(4, 4),
            batch_size=16, lr=0.05, seed=1,
        )
        report = trainer.train(train_mask, val_mask, epochs=3)
        assert report.train_accuracy == train_acc
        assert report.val_accuracy == val_acc
        assert report.eval_s > 0.0

    def test_single_worker_no_remote_rows(self, task):
        g, labels, features, train_mask, _ = task
        trainer = _trainer(task, hash_partition(g, 1))
        trainer.train(train_mask, epochs=2)
        assert trainer.remote_rows == 0
        assert trainer.feature_bytes == 0
        assert trainer.local_rows > 0


class TestTrafficComposition:
    def test_partitioning_cuts_feature_bytes(self, task):
        g, *_ = task
        _, _, _, train_mask, _ = task
        hashed = _trainer(task, hash_partition(g, 4))
        hashed.train(train_mask, epochs=3)
        metis = _trainer(task, metis_like_partition(g, 4, seed=0))
        metis.train(train_mask, epochs=3)
        assert metis.feature_bytes < hashed.feature_bytes

    def test_cache_cuts_feature_bytes(self, task):
        g, *_ = task
        _, _, _, train_mask, _ = task
        partition = metis_like_partition(g, 4, seed=0)
        plain = _trainer(task, partition, cache=0)
        plain.train(train_mask, epochs=3)
        cached = _trainer(task, partition, cache=40)
        cached.train(train_mask, epochs=3)
        assert cached.feature_bytes < plain.feature_bytes
        assert cached.cache_hit_rate > 0.1
        assert plain.cache_hit_rate == 0.0

    def test_lru_policy_supported(self, task):
        g, *_ = task
        _, _, _, train_mask, _ = task
        trainer = _trainer(
            task, hash_partition(g, 4), cache=40, policy="lru"
        )
        trainer.train(train_mask, epochs=2)
        assert trainer.cache_hits >= 0

    def test_unknown_policy_rejected(self, task):
        g, *_ = task
        with pytest.raises(ValueError):
            _trainer(task, hash_partition(g, 4), cache=10, policy="random")

    def test_rows_accounted_exhaustively(self, task):
        g, *_ = task
        _, _, _, train_mask, _ = task
        trainer = _trainer(task, hash_partition(g, 4), cache=40)
        report = trainer.train(train_mask, epochs=2)
        touched = trainer.local_rows + trainer.cache_hits + trainer.remote_rows
        assert touched == report.gathered_features


def _legacy_run(task, partition, cache, policy, seed, epochs):
    """The pre-loader DistributedSampledTrainer loop, verbatim: one
    shared sampler, hand-walked caches, hand-billed network."""
    g, labels, features, train_mask, _val = task
    model = NodeClassifier(4, 16, 4, layer="sage", seed=0)
    network = Network(partition.num_parts)
    optimizer = Adam(model.parameters(), lr=0.05)
    sampler = NeighborSampler(g, (4, 4), seed=seed)

    def make_cache():
        if cache <= 0:
            return None
        return StaticDegreeCache(g, cache) if policy == "degree" else LRUCache(cache)

    caches = [make_cache() for _ in range(partition.num_parts)]
    out = {"losses": [], "local_rows": 0, "cache_hits": 0, "remote_rows": 0}
    train_nodes = np.nonzero(train_mask)[0]
    owners = partition.assignment
    for _ in range(epochs):
        for worker in range(partition.num_parts):
            local_train = train_nodes[owners[train_nodes] == worker]
            if local_train.size == 0:
                continue
            for block in sampler.batches(local_train, 16):
                per_owner = {}
                for v in block.node_ids:
                    owner = int(owners[int(v)])
                    if owner == worker:
                        out["local_rows"] += 1
                        continue
                    if caches[worker] is not None and caches[worker].lookup(int(v)):
                        out["cache_hits"] += 1
                        continue
                    out["remote_rows"] += 1
                    per_owner[owner] = per_owner.get(owner, 0) + 1
                for owner, count in per_owner.items():
                    network.send_now(
                        owner, worker, None, tag="features",
                        nbytes=count * features.shape[1] * 8,
                    )
                    network.receive(worker)
                x = Tensor(features[block.node_ids])
                optimizer.zero_grad()
                logits = model(block.tensors(), x)
                loss = logits.gather_rows(block.seed_local).cross_entropy(
                    labels[block.node_ids[block.seed_local]]
                )
                loss.backward()
                optimizer.step()
                out["losses"].append(float(loss.data))
    out["feature_bytes"] = network.stats.by_tag.get("features", 0)
    return out


class TestBitIdentityWithLegacyLoop:
    """Per-worker loaders + owner-aware fetchers reproduce the
    hand-written pipeline exactly: same RNG order, same cache walks,
    same bytes on the wire."""

    @pytest.mark.parametrize("policy", ["degree", "lru"])
    @pytest.mark.parametrize("cache", [0, 40])
    @pytest.mark.parametrize("partitioner", ["hash", "metis"])
    def test_losses_and_traffic_equal(self, task, partitioner, cache, policy):
        g, *_rest, train_mask, _val = task
        partition = (
            hash_partition(g, 4) if partitioner == "hash"
            else metis_like_partition(g, 4, seed=0)
        )
        legacy = _legacy_run(task, partition, cache, policy, seed=1, epochs=2)
        trainer = _trainer(task, partition, cache=cache, policy=policy)
        report = trainer.train(train_mask, epochs=2)
        assert report.losses == legacy["losses"]
        for name in ("feature_bytes", "local_rows", "cache_hits", "remote_rows"):
            assert getattr(trainer, name) == legacy[name], name
