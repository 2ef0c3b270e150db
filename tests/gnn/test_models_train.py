"""Models, optimizers, and the two training regimes."""

import numpy as np
import pytest

from repro.gnn.dataloader import ItemSampler
from repro.gnn.layers import GraphTensors
from repro.gnn.models import (
    Adam,
    GraphClassifier,
    NodeClassifier,
    SGD,
    accuracy,
)
from repro.gnn.sampling import NeighborSampler, khop_subgraph, sample_neighbors
from repro.gnn.tensor import Parameter, Tensor
from repro.gnn.train import train_full_graph, train_sampled
from repro.graph.generators import planted_partition


@pytest.fixture(scope="module")
def community_task():
    g, labels = planted_partition(3, 30, p_in=0.15, p_out=0.01, seed=1)
    n = g.num_vertices
    rng = np.random.default_rng(0)
    features = np.eye(3)[labels] + rng.normal(0, 1.5, size=(n, 3))
    train_mask = np.zeros(n, dtype=bool)
    train_mask[rng.permutation(n)[:45]] = True
    return g, labels, features, train_mask, ~train_mask


class TestOptimizers:
    def test_sgd_descends_quadratic(self):
        p = Parameter(np.array([5.0]))
        opt = SGD([p], lr=0.1)
        for _ in range(100):
            opt.zero_grad()
            ((p * p).sum()).backward()
            opt.step()
        assert abs(float(p.data[0])) < 1e-3

    def test_sgd_weight_decay_shrinks(self):
        p = Parameter(np.array([1.0]))
        opt = SGD([p], lr=0.1, weight_decay=0.5)
        opt.zero_grad()
        (p * 0.0).sum().backward()
        opt.step()
        assert float(p.data[0]) < 1.0

    def test_adam_descends_quadratic(self):
        p = Parameter(np.array([5.0]))
        opt = Adam([p], lr=0.3)
        for _ in range(200):
            opt.zero_grad()
            ((p * p).sum()).backward()
            opt.step()
        assert abs(float(p.data[0])) < 1e-2

    def test_none_grad_skipped(self):
        p = Parameter(np.array([1.0]))
        Adam([p], lr=0.1).step()  # no grad yet: must not crash
        assert float(p.data[0]) == 1.0


class TestAccuracy:
    def test_perfect(self):
        logits = np.eye(4)
        assert accuracy(logits, np.arange(4)) == 1.0

    def test_masked(self):
        logits = np.eye(4)
        labels = np.array([0, 1, 0, 0])
        mask = np.array([True, True, False, False])
        assert accuracy(logits, labels, mask) == 1.0


class TestNodeClassifier:
    @pytest.mark.parametrize("kind", ["gcn", "sage", "gat"])
    def test_learns_planted_communities(self, kind, community_task):
        g, labels, features, train_mask, val_mask = community_task
        model = NodeClassifier(3, 16, 3, num_layers=2, layer=kind, seed=0)
        report = train_full_graph(
            model, g, features=features, labels=labels,
            train_mask=train_mask, val_mask=val_mask, epochs=30, lr=0.05,
        )
        assert report.losses[-1] < report.losses[0]
        assert report.final_val_accuracy > 0.55

    def test_unknown_layer_kind(self):
        with pytest.raises(ValueError):
            NodeClassifier(3, 4, 2, layer="mlp")

    def test_predict_shape(self, community_task):
        g, labels, features, *_ = community_task
        model = NodeClassifier(3, 8, 3, seed=1)
        pred = model.predict(GraphTensors(g), Tensor(features))
        assert pred.shape == (g.num_vertices,)

    def test_forward_layer_composes_to_call(self, community_task):
        g, _, features, *_ = community_task
        model = NodeClassifier(3, 8, 3, seed=2)
        gt = GraphTensors(g)
        x = Tensor(features)
        h = x
        for i in range(model.num_layers):
            h = model.forward_layer(i, gt, h)
        assert np.allclose(h.data, model(gt, x).data)


class TestGraphClassifier:
    def test_forward_and_predict(self, community_task):
        g, _, features, *_ = community_task
        model = GraphClassifier(3, 8, 2, seed=0)
        gt = GraphTensors(g)
        logits = model(gt, Tensor(features))
        assert logits.shape == (1, 2)
        assert model.predict(gt, Tensor(features)) in (0, 1)

    def test_trainable(self, community_task):
        g, _, features, *_ = community_task
        model = GraphClassifier(3, 8, 2, seed=0)
        gt = GraphTensors(g)
        opt = Adam(model.parameters(), lr=0.05)
        first = None
        for _ in range(15):
            opt.zero_grad()
            loss = model(gt, Tensor(features)).cross_entropy(np.array([1]))
            loss.backward()
            opt.step()
            first = first if first is not None else float(loss.data)
        assert float(loss.data) < first


class TestSampling:
    def test_block_contains_seeds(self, community_task):
        g, *_ = community_task
        block = sample_neighbors(g, [0, 5, 9], fanouts=[3, 3])
        assert set(block.node_ids[block.seed_local]) == {0, 5, 9}

    def test_fanout_bounds_block_size(self, community_task):
        g, *_ = community_task
        small = sample_neighbors(g, [0], fanouts=[2, 2])
        # 1 seed + <=2 hop1 + <=4 hop2
        assert small.gathered_nodes <= 7

    def test_block_edges_exist_in_parent(self, community_task):
        g, *_ = community_task
        block = sample_neighbors(g, [0, 1], fanouts=[4, 4])
        for u, v in block.graph.edges():
            gu, gv = int(block.node_ids[u]), int(block.node_ids[v])
            assert g.has_edge(gu, gv)

    def test_full_fanout_is_khop(self, community_task):
        g, *_ = community_task
        block = khop_subgraph(g, 3, k=2)
        from repro.graph.properties import bfs_levels

        levels = bfs_levels(g, 3)
        expected = {v for v in g.vertices() if 0 <= levels[v] <= 2}
        assert set(int(i) for i in block.node_ids) == expected

    def test_batches_cover_all_train_nodes(self, community_task):
        g, *_ = community_task
        sampler = NeighborSampler(g, fanouts=[3], seed=0)
        nodes = list(range(0, 90, 3))
        blocks = [
            sampler.sample(seeds)
            for seeds in ItemSampler(nodes, batch_size=8).batches(sampler.rng)
        ]
        seeds = [
            int(b.node_ids[i]) for b in blocks for i in b.seed_local
        ]
        assert sorted(seeds) == sorted(nodes)

    def test_labels_carried_into_block(self, community_task):
        g, labels, *_ = community_task
        block = sample_neighbors(g, [0], fanouts=[3])
        for local, global_id in enumerate(block.node_ids):
            assert block.graph.vertex_label(local) == g.vertex_label(int(global_id))


class TestTrainers:
    def test_full_graph_report_complete(self, community_task):
        g, labels, features, train_mask, val_mask = community_task
        model = NodeClassifier(3, 8, 3, seed=3)
        report = train_full_graph(
            model, g, features=features, labels=labels,
            train_mask=train_mask, val_mask=val_mask, epochs=5,
        )
        assert report.steps == 5
        assert len(report.losses) == 5
        assert len(report.val_accuracy) == 5
        assert report.gathered_features == 5 * g.num_vertices

    def test_sampled_gathers_less_than_full(self, community_task):
        """The C7 claim: sampling bounds per-step data volume."""
        g, labels, features, train_mask, val_mask = community_task
        full = train_full_graph(
            NodeClassifier(3, 8, 3, seed=0), g, features=features, labels=labels,
            train_mask=train_mask, val_mask=val_mask, epochs=4,
        )
        sampled = train_sampled(
            NodeClassifier(3, 8, 3, layer="sage", seed=0), g,
            features=features, labels=labels, train_mask=train_mask,
            val_mask=val_mask, epochs=4, batch_size=16,
            fanouts=(3, 3),
        )
        per_step_full = full.gathered_features / full.steps
        per_step_sampled = sampled.gathered_features / sampled.steps
        assert per_step_sampled < per_step_full

    def test_sampled_learns(self, community_task):
        g, labels, features, train_mask, val_mask = community_task
        report = train_sampled(
            NodeClassifier(3, 16, 3, layer="sage", seed=0), g,
            features=features, labels=labels, train_mask=train_mask,
            val_mask=val_mask, epochs=8, batch_size=16,
            fanouts=(5, 5), lr=0.05,
        )
        assert report.final_val_accuracy > 0.45
        assert report.losses[-1] < report.losses[0]


class TestLayerwiseSampling:
    def test_block_size_additive_not_multiplicative(self, community_task):
        """The FastGCN fix for neighbor explosion."""
        import numpy as np

        from repro.gnn.sampling import layerwise_sample, sample_neighbors
        from repro.graph.generators import barabasi_albert

        g = barabasi_albert(800, 6, seed=2)
        seeds = list(range(0, 800, 40))
        rng = np.random.default_rng(0)
        nodewise = sample_neighbors(g, seeds, fanouts=(10, 10), rng=rng)
        layerwise = layerwise_sample(
            g, seeds, nodes_per_layer=(40, 40), rng=rng
        )
        assert layerwise.gathered_nodes <= len(seeds) + 80
        assert layerwise.gathered_nodes < nodewise.gathered_nodes

    def test_edges_exist_in_parent(self, community_task):
        import numpy as np

        from repro.gnn.sampling import layerwise_sample

        g, *_ = community_task
        block = layerwise_sample(
            g, [0, 5, 9], nodes_per_layer=(12, 12),
            rng=np.random.default_rng(1),
        )
        for u, v in block.graph.edges():
            assert g.has_edge(int(block.node_ids[u]), int(block.node_ids[v]))

    def test_seeds_present(self, community_task):
        import numpy as np

        from repro.gnn.sampling import layerwise_sample

        g, *_ = community_task
        block = layerwise_sample(
            g, [3, 7], nodes_per_layer=(8,), rng=np.random.default_rng(2)
        )
        assert set(block.node_ids[block.seed_local]) == {3, 7}

    def test_trainable_block(self, community_task):
        import numpy as np

        from repro.gnn.layers import GraphTensors
        from repro.gnn.models import Adam, NodeClassifier
        from repro.gnn.sampling import layerwise_sample
        from repro.gnn.tensor import Tensor

        g, labels, features, *_ = community_task
        block = layerwise_sample(
            g, list(range(0, 90, 9)), nodes_per_layer=(30, 30),
            rng=np.random.default_rng(3),
        )
        model = NodeClassifier(3, 8, 3, layer="sage", seed=0)
        opt = Adam(model.parameters(), lr=0.05)
        gt = block.tensors()
        x = Tensor(features[block.node_ids])
        y = labels[block.node_ids[block.seed_local]]
        first = None
        for _ in range(10):
            opt.zero_grad()
            loss = model(gt, x).gather_rows(block.seed_local).cross_entropy(y)
            loss.backward()
            opt.step()
            first = first if first is not None else float(loss.data)
        assert float(loss.data) < first
