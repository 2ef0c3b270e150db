"""One full-graph loop: every variant trainer is `train_full_graph`'s
loop plus a step.

The neutral-setting equalities live next to each variant's own tests
(and in the ``gnn.fullgraph.variants_vs_sync`` oracle); here the
*non*-neutral configurations are pinned against verbatim inline copies
of the hand-written epoch loops the variants used to carry.
"""

import numpy as np
import pytest

from repro.gnn.activation_compression import train_compressed
from repro.gnn.distributed import DistributedTrainer, halo_mask, halo_sets
from repro.gnn.historical import train_historical
from repro.gnn.layers import GraphTensors
from repro.gnn.models import Adam, NodeClassifier, accuracy
from repro.gnn.quantization import compressed_nbytes, quantize_dequantize
from repro.gnn.staleness import train_delayed_halo, train_stale_gradients
from repro.gnn.tensor import Tensor, no_grad
from repro.graph.generators import erdos_renyi, planted_partition
from repro.graph.partition import hash_partition

EPOCHS, LR = 12, 0.05


@pytest.fixture(scope="module")
def task():
    g, labels = planted_partition(3, 24, p_in=0.2, p_out=0.01, seed=3)
    n = g.num_vertices
    rng = np.random.default_rng(2)
    features = np.eye(3)[labels] + rng.normal(0, 1.2, size=(n, 3))
    train_mask = np.zeros(n, dtype=bool)
    train_mask[rng.permutation(n)[:36]] = True
    return g, labels, features, train_mask, ~train_mask


def _model():
    return NodeClassifier(3, 8, 3, seed=0)


def _legacy_remote(graph, partition):
    """The per-trainer remote-vertex mask loop the variants carried."""
    remote = np.zeros(graph.num_vertices, dtype=bool)
    for halo in halo_sets(graph, partition):
        for v in halo:
            remote[v] = True
    return remote


def _legacy_tail(model, gt, features, labels, train_mask, val_mask, out):
    """The eval tail every copy ended its epoch with."""
    with no_grad():
        logits = model(gt, Tensor(features)).data
    out["train_accuracy"].append(accuracy(logits, labels, train_mask))
    out["val_accuracy"].append(accuracy(logits, labels, val_mask))


def _legacy_stale(task, staleness):
    """The pre-refactor train_stale_gradients loop, verbatim."""
    graph, labels, features, train_mask, val_mask = task
    model = _model()
    gt = GraphTensors(graph)
    optimizer = Adam(model.parameters(), lr=LR)
    out = {"losses": [], "train_accuracy": [], "val_accuracy": []}
    train_idx = np.nonzero(train_mask)[0]
    x = Tensor(features)
    param_history = []
    for step in range(EPOCHS):
        current = model.state_dict()
        param_history.append(current)
        stale_state = param_history[max(0, step - staleness)]
        model.load_state_dict(stale_state)
        optimizer.zero_grad()
        logits = model(gt, x)
        loss = logits.gather_rows(train_idx).cross_entropy(labels[train_idx])
        loss.backward()
        grads = [
            p.grad.copy() if p.grad is not None else None
            for p in model.parameters()
        ]
        model.load_state_dict(current)
        for p, g in zip(model.parameters(), grads):
            p.grad = g
        optimizer.step()
        out["losses"].append(float(loss.data))
        _legacy_tail(model, gt, features, labels, train_mask, val_mask, out)
    return out


def _legacy_historical(task, partition, drift_threshold):
    """The pre-refactor train_historical loop, verbatim."""
    graph, labels, features, train_mask, val_mask = task
    model = _model()
    gt = GraphTensors(graph)
    optimizer = Adam(model.parameters(), lr=LR)
    out = {
        "losses": [], "train_accuracy": [], "val_accuracy": [],
        "broadcasts": 0, "skips": 0, "halo_bytes": 0,
    }
    train_idx = np.nonzero(train_mask)[0]
    remote = _legacy_remote(graph, partition)
    remote_mask = remote.reshape(-1, 1).astype(np.float64)
    local_mask = 1.0 - remote_mask
    hidden_dim = model.layers[0].weight.shape[1]
    snapshot = None
    x = Tensor(features)
    for _ in range(EPOCHS):
        optimizer.zero_grad()
        h1_live = model.forward_layer(0, gt, x)
        live = h1_live.data
        if snapshot is None:
            drift = float("inf")
        else:
            denom = np.linalg.norm(snapshot[remote]) + 1e-12
            drift = float(
                np.linalg.norm(live[remote] - snapshot[remote]) / denom
            )
        if drift > drift_threshold:
            snapshot = live.copy()
            out["broadcasts"] += 1
            out["halo_bytes"] += int(remote.sum()) * hidden_dim * 8
            h1_used = h1_live
        else:
            out["skips"] += 1
            h1_used = h1_live * local_mask + Tensor(snapshot * remote_mask)
        h_out = h1_used
        for i in range(1, model.num_layers):
            h_out = model.forward_layer(i, gt, h_out)
        loss = h_out.gather_rows(train_idx).cross_entropy(labels[train_idx])
        loss.backward()
        optimizer.step()
        out["losses"].append(float(loss.data))
        _legacy_tail(model, gt, features, labels, train_mask, val_mask, out)
    return out


def _legacy_compressed(task, bits, seed):
    """The pre-refactor train_compressed loop, verbatim."""
    graph, labels, features, train_mask, val_mask = task
    model = _model()
    gt = GraphTensors(graph)
    optimizer = Adam(model.parameters(), lr=LR)
    out = {"losses": [], "train_accuracy": [], "val_accuracy": []}
    train_idx = np.nonzero(train_mask)[0]
    rng = np.random.default_rng(seed)
    num_layers = model.num_layers
    for _ in range(EPOCHS):
        stored_inputs = []
        h = features
        for i in range(num_layers):
            stored_inputs.append(quantize_dequantize(h, bits, rng=rng))
            with no_grad():
                layer_out = model.forward_layer(i, gt, Tensor(h))
            h = layer_out.data
        optimizer.zero_grad()
        grad_out = None
        loss_value = 0.0
        for i in reversed(range(num_layers)):
            x_in = Tensor(stored_inputs[i], requires_grad=True)
            layer_out = model.forward_layer(i, gt, x_in)
            if i == num_layers - 1:
                loss = layer_out.gather_rows(train_idx).cross_entropy(
                    labels[train_idx]
                )
                loss_value = float(loss.data)
                loss.backward()
            else:
                layer_out.backward(grad_out)
            grad_out = None
            if i > 0:
                grad_out = x_in.grad
        optimizer.step()
        out["losses"].append(loss_value)
        _legacy_tail(model, gt, features, labels, train_mask, val_mask, out)
    return out


def _legacy_distributed(trainer, train_mask, val_mask):
    """The pre-refactor DistributedTrainer.train loop, verbatim, driving
    a fresh trainer's own quantizers and traffic accounting."""
    gt = GraphTensors(trainer.graph)
    optimizer = Adam(trainer.model.parameters(), lr=trainer.lr)
    out = {"losses": [], "train_accuracy": [], "val_accuracy": []}
    train_idx = np.nonzero(train_mask)[0]
    feature_dim = trainer.features.shape[1]
    hidden_dims = [
        trainer.model.layers[i].weight.shape[1]
        for i in range(trainer.model.num_layers)
    ]
    for _ in range(EPOCHS):
        used = trainer._maybe_quantize_features(trainer.features)
        x = Tensor(used)
        optimizer.zero_grad()
        logits = trainer.model(gt, x)
        loss = logits.gather_rows(train_idx).cross_entropy(
            trainer.labels[train_idx]
        )
        loss.backward()
        trainer._maybe_quantize_gradients()
        optimizer.step()
        trainer._price_halo_exchange(feature_dim)
        for dim in hidden_dims[:-1]:
            trainer._price_halo_exchange(dim)
        trainer._price_gradient_sync()
        out["losses"].append(float(loss.data))
        _legacy_tail(
            trainer.model, gt, trainer.features, trainer.labels,
            train_mask, val_mask, out,
        )
    return out


def _assert_trace(report, legacy):
    assert report.losses == legacy["losses"]
    assert report.train_accuracy == legacy["train_accuracy"]
    assert report.val_accuracy == legacy["val_accuracy"]


class TestHaloMask:
    @pytest.mark.parametrize("directed", [False, True])
    def test_is_the_union_of_halo_sets(self, directed):
        g = erdos_renyi(60, 0.08, seed=5, directed=directed)
        for parts in (1, 3, 7):
            partition = hash_partition(g, parts)
            np.testing.assert_array_equal(
                halo_mask(g, partition), _legacy_remote(g, partition)
            )


class TestBitIdentityWithLegacyLoops:
    def test_stale_gradients(self, task):
        g, labels, features, train_mask, val_mask = task
        report = train_stale_gradients(
            _model(), g, features, labels, train_mask, val_mask,
            staleness=3, epochs=EPOCHS, lr=LR,
        )
        _assert_trace(report, _legacy_stale(task, staleness=3))

    def test_historical(self, task):
        g, labels, features, train_mask, val_mask = task
        partition = hash_partition(g, 4)
        hist = train_historical(
            _model(), g, partition, features, labels, train_mask, val_mask,
            drift_threshold=0.2, epochs=EPOCHS, lr=LR,
        )
        legacy = _legacy_historical(task, partition, drift_threshold=0.2)
        _assert_trace(hist.report, legacy)
        assert 0 < hist.skips  # the gate really skipped
        assert (hist.broadcasts, hist.skips, hist.halo_bytes) == (
            legacy["broadcasts"], legacy["skips"], legacy["halo_bytes"]
        )

    def test_compressed(self, task):
        g, labels, features, train_mask, val_mask = task
        out = train_compressed(
            _model(), g, features, labels, train_mask, val_mask,
            bits=2, epochs=EPOCHS, lr=LR, seed=7,
        )
        _assert_trace(out.report, _legacy_compressed(task, bits=2, seed=7))
        assert out.activation_bytes_compressed == sum(
            compressed_nbytes((g.num_vertices, d), 2) for d in (3, 8)
        )

    def test_distributed_quantized(self, task):
        g, labels, features, train_mask, val_mask = task

        def trainer():
            return DistributedTrainer(
                _model(), g, hash_partition(g, 4), features, labels, lr=LR,
                halo_bits=4, error_feedback=True, grad_bits=4, seed=3,
            )

        new, old = trainer(), trainer()
        report = new.train(train_mask, val_mask, epochs=EPOCHS)
        _assert_trace(report, _legacy_distributed(old, train_mask, val_mask))
        assert new.remote_bytes == old.remote_bytes > 0
        assert new.bytes_by_tag() == old.bytes_by_tag()
        np.testing.assert_array_equal(new._residual, old._residual)


class TestDelayedHaloIsStale:
    def test_delay_changes_the_trajectory(self, task):
        """Between refreshes the remote rows must really be stale: a
        delayed run cannot reproduce the every-epoch-refresh losses."""
        g, labels, features, train_mask, val_mask = task
        partition = hash_partition(g, 3)

        def losses(refresh_every):
            report, *_ = train_delayed_halo(
                _model(), g, partition, features, labels, train_mask,
                val_mask, refresh_every=refresh_every, epochs=EPOCHS, lr=LR,
            )
            return report.losses

        every, delayed = losses(1), losses(4)
        assert delayed != every
        # Epoch 0 always refreshes, so the first step is still exact.
        assert delayed[0] == every[0]


class TestUniformStepAccounting:
    def test_every_variant_records_gathered_rows(self, task):
        g, labels, features, train_mask, val_mask = task
        partition = hash_partition(g, 3)
        common = dict(epochs=3, lr=LR)
        reports = [
            train_stale_gradients(
                _model(), g, features, labels, train_mask, **common
            ),
            train_historical(
                _model(), g, partition, features, labels, train_mask,
                **common,
            ).report,
            train_delayed_halo(
                _model(), g, partition, features, labels, train_mask,
                **common,
            )[0],
            train_compressed(
                _model(), g, features, labels, train_mask, **common
            ).report,
        ]
        for report in reports:
            assert report.steps == 3
            assert report.gathered_features == 3 * g.num_vertices

    def test_distributed_mirrors_steps_into_obs(self, task):
        g, labels, features, train_mask, _ = task
        trainer = DistributedTrainer(
            _model(), g, hash_partition(g, 3), features, labels
        )
        trainer.train(train_mask, epochs=2)
        assert trainer.obs.counter("gnn.train.steps", "").total == 2
        assert (
            trainer.obs.counter("gnn.train.gathered_features", "").total
            == 2 * g.num_vertices
        )
