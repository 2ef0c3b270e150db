"""GNN layers: shapes, math, and end-to-end gradients."""

import numpy as np
import pytest

from repro.gnn.layers import (
    GATLayer,
    GCNLayer,
    GraphTensors,
    Linear,
    Module,
    SAGELayer,
)
from repro.gnn.tensor import Parameter, Tensor
from repro.graph.csr import Graph
from repro.graph.generators import complete_graph, path_graph


@pytest.fixture
def rng():
    return np.random.default_rng(11)


@pytest.fixture
def gt(small_er):
    return GraphTensors(small_er)


class TestGraphTensors:
    def test_message_count(self, small_er):
        gt = GraphTensors(small_er, add_self_loops=False)
        assert gt.num_messages == 2 * small_er.num_edges

    def test_self_loops_added(self, small_er):
        gt = GraphTensors(small_er, add_self_loops=True)
        assert gt.num_messages == 2 * small_er.num_edges + small_er.num_vertices

    def test_gcn_norm_symmetric(self):
        g = path_graph(3)
        gt = GraphTensors(g, add_self_loops=False)
        # Edge (0,1): deg0=1, deg1=2 -> norm = 1/sqrt(2).
        for e in range(gt.num_messages):
            u, v = int(gt.src[e]), int(gt.dst[e])
            expected = 1.0 / np.sqrt(gt.in_degree[u] * gt.in_degree[v])
            assert gt.gcn_norm[e, 0] == pytest.approx(expected)

    def test_in_degree_no_zeros(self):
        g = Graph.from_edges([(0, 1)], num_vertices=3)
        gt = GraphTensors(g, add_self_loops=False)
        assert np.all(gt.in_degree > 0)  # isolated vertex guarded


class TestLinear:
    def test_shapes_and_grad(self, rng):
        layer = Linear(4, 3, rng)
        x = Tensor(rng.normal(size=(5, 4)))
        out = layer(x)
        assert out.shape == (5, 3)
        (out ** 2).sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None


class TestGCNLayer:
    def test_output_shape(self, gt, rng, small_er):
        layer = GCNLayer(6, 4, rng)
        h = Tensor(rng.normal(size=(small_er.num_vertices, 6)))
        out = layer(gt, h)
        assert out.shape == (small_er.num_vertices, 4)

    def test_constant_signal_preserved_on_regular_graph(self, rng):
        # On a complete graph with self-loops, aggregating a constant
        # vector returns the same constant (symmetric normalization).
        g = complete_graph(5)
        gt = GraphTensors(g, add_self_loops=True)
        layer = GCNLayer(2, 2, rng)
        layer.weight.data = np.eye(2)
        layer.bias.data = np.zeros(2)
        h = Tensor(np.ones((5, 2)))
        out = layer(gt, h)
        assert np.allclose(out.data, 1.0)

    def test_gradients_flow_to_weights(self, gt, rng, small_er):
        layer = GCNLayer(3, 2, rng)
        h = Tensor(rng.normal(size=(small_er.num_vertices, 3)))
        loss = (layer(gt, h) ** 2).sum()
        loss.backward()
        assert np.abs(layer.weight.grad).max() > 0


class TestSAGELayer:
    def test_output_shape(self, gt, rng, small_er):
        layer = SAGELayer(6, 4, rng)
        h = Tensor(rng.normal(size=(small_er.num_vertices, 6)))
        assert layer(gt, h).shape == (small_er.num_vertices, 4)

    def test_mean_aggregation_math(self, rng):
        # Path 0-1-2 without self loops: neighbor mean of v1 is avg(h0, h2).
        g = path_graph(3)
        gt = GraphTensors(g, add_self_loops=False)
        layer = SAGELayer(1, 1, rng)
        layer.weight.data = np.array([[0.0], [1.0]])  # pick the mean part
        layer.bias.data = np.zeros(1)
        h = Tensor(np.array([[1.0], [5.0], [3.0]]))
        out = layer(gt, h)
        assert out.data[1, 0] == pytest.approx(2.0)  # (1 + 3) / 2
        assert out.data[0, 0] == pytest.approx(5.0)

    def test_self_features_used(self, rng):
        g = path_graph(3)
        gt = GraphTensors(g, add_self_loops=False)
        layer = SAGELayer(1, 1, rng)
        layer.weight.data = np.array([[1.0], [0.0]])  # pick the self part
        layer.bias.data = np.zeros(1)
        h = Tensor(np.array([[1.0], [5.0], [3.0]]))
        out = layer(gt, h)
        assert np.allclose(out.data, h.data)


class TestGATLayer:
    def test_output_shape(self, gt, rng, small_er):
        layer = GATLayer(6, 4, rng)
        h = Tensor(rng.normal(size=(small_er.num_vertices, 6)))
        assert layer(gt, h).shape == (small_er.num_vertices, 4)

    def test_attention_weights_normalized(self, rng, small_er):
        # Aggregating a constant value with normalized attention returns
        # the constant.
        gt = GraphTensors(small_er, add_self_loops=True)
        layer = GATLayer(2, 2, rng)
        h = Tensor(np.ones((small_er.num_vertices, 2)))
        z_const = (h @ layer.weight).data[0]
        out = layer(gt, h)
        assert np.allclose(out.data, z_const, atol=1e-9)

    def test_gradients_flow_to_attention(self, gt, rng, small_er):
        layer = GATLayer(3, 2, rng)
        h = Tensor(rng.normal(size=(small_er.num_vertices, 3)))
        (layer(gt, h) ** 2).sum().backward()
        assert layer.attn_src.grad is not None
        assert np.abs(layer.attn_src.grad).max() > 0


class TestModule:
    def test_parameter_discovery(self, rng):
        class Net(Module):
            def __init__(self):
                self.a = Linear(2, 3, rng)
                self.b = [Linear(3, 4, rng), Linear(4, 5, rng)]
                self.w = Parameter(np.zeros(3))

        net = Net()
        # 2 per Linear (w, b) * 3 + standalone = 7
        assert len(net.parameters()) == 7

    def test_state_dict_round_trip(self, rng):
        layer = Linear(3, 2, rng)
        state = layer.state_dict()
        layer.weight.data += 1.0
        layer.load_state_dict(state)
        assert np.allclose(layer.weight.data, state[0])

    def test_zero_grad_clears_all(self, rng):
        layer = Linear(3, 2, rng)
        x = Tensor(rng.normal(size=(4, 3)))
        (layer(x) ** 2).sum().backward()
        layer.zero_grad()
        assert all(p.grad is None for p in layer.parameters())


class TestGINLayer:
    def test_output_shape(self, gt, rng, small_er):
        from repro.gnn.layers import GINLayer

        layer = GINLayer(6, 4, rng)
        h = Tensor(rng.normal(size=(small_er.num_vertices, 6)))
        assert layer(gt, h).shape == (small_er.num_vertices, 4)

    def test_sum_aggregation_math(self, rng):
        from repro.gnn.layers import GINLayer

        # Identity MLP exposes the raw (1+eps)h + sum aggregation.
        g = path_graph(3)
        gt = GraphTensors(g, add_self_loops=False)
        layer = GINLayer(1, 1, rng, eps=0.0)
        layer.w1.data = np.array([[1.0]])
        layer.b1.data = np.zeros(1)
        layer.w2.data = np.array([[1.0]])
        layer.b2.data = np.zeros(1)
        h = Tensor(np.array([[1.0], [2.0], [4.0]]))
        out = layer(gt, h)
        # v1: (1+0)*2 + (1 + 4) = 7 (inputs positive, ReLU transparent)
        assert out.data[1, 0] == pytest.approx(7.0)
        assert out.data[0, 0] == pytest.approx(1.0 + 2.0)

    def test_gradients_flow_including_eps(self, gt, rng, small_er):
        from repro.gnn.layers import GINLayer

        layer = GINLayer(3, 2, rng, eps=0.1)
        h = Tensor(rng.normal(size=(small_er.num_vertices, 3)))
        (layer(gt, h) ** 2).sum().backward()
        assert layer.eps.grad is not None
        assert layer.w1.grad is not None

    def test_trains_on_communities(self):
        import numpy as np
        from repro.gnn.models import NodeClassifier
        from repro.gnn.train import train_full_graph
        from repro.graph.generators import planted_partition

        g, labels = planted_partition(3, 25, 0.2, 0.01, seed=1)
        n = g.num_vertices
        rng = np.random.default_rng(0)
        features = np.eye(3)[labels] + rng.normal(0, 1.5, size=(n, 3))
        train_mask = np.zeros(n, dtype=bool)
        train_mask[rng.permutation(n)[:40]] = True
        model = NodeClassifier(3, 16, 3, layer="gin", seed=0)
        report = train_full_graph(
            model, g, features=features, labels=labels,
            train_mask=train_mask, val_mask=~train_mask,
            epochs=30, lr=0.02,
        )
        assert report.losses[-1] < report.losses[0]
        assert report.final_val_accuracy > 0.5
