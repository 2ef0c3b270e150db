"""Single-process GNN trainers: full-graph and sampled mini-batch.

The two training regimes the tutorial's Section 3 contrasts:

* :func:`train_full_graph` — every step runs the model over the whole
  graph (the DistGNN/Sancus/HongTu regime); per-step cost scales with
  ``|E| * feature_dim``;
* :func:`train_sampled` — GraphSAGE-style mini-batch training over
  sampled blocks (the Euler/AliGraph/DistDGL regime); per-step cost is
  bounded by the fanout product, and ``TrainReport.gathered_features``
  records the data volume the sampler touched.

Both return a :class:`TrainReport` with loss/accuracy traces, so benches
and tests can compare convergence as well as cost.
"""

from __future__ import annotations

import time
from contextlib import closing
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..graph.store.handle import as_handle
from ..obs import MetricsRegistry, StatsViewMixin, Tracer, merge_counters
from ..resilience import FaultInjector, SnapshotStore
from .dataloader import FeatureFetcher, MiniBatchLoader
from .layers import GraphTensors
from .models import Adam, NodeClassifier, accuracy
from .tensor import Tensor, no_grad

__all__ = ["TrainReport", "eval_inputs", "train_epoch", "train_full_graph",
           "train_sampled"]

SNAPSHOT_TAG = "gnn"


def _training_state(
    epoch: int, model: NodeClassifier, optimizer: Adam, report: TrainReport
) -> Dict[str, Any]:
    """Everything a resumed run needs to be bit-identical: weights,
    Adam moments + step count, and the report trace so far."""
    return {
        "epoch": epoch,
        "params": [p.data for p in model.parameters()],
        "adam": {"t": optimizer.t, "m": optimizer.m, "v": optimizer.v},
        "report": {
            "losses": report.losses,
            "train_accuracy": report.train_accuracy,
            "val_accuracy": report.val_accuracy,
            "gathered_features": report.gathered_features,
            "steps": report.steps,
        },
    }


def _restore_training_state(
    state: Dict[str, Any],
    model: NodeClassifier,
    optimizer: Adam,
    report: TrainReport,
) -> int:
    for p, data in zip(model.parameters(), state["params"]):
        p.data = data
        p.zero_grad()
    optimizer.t = state["adam"]["t"]
    optimizer.m = state["adam"]["m"]
    optimizer.v = state["adam"]["v"]
    rep = state["report"]
    report.losses[:] = rep["losses"]
    report.train_accuracy[:] = rep["train_accuracy"]
    report.val_accuracy[:] = rep["val_accuracy"]
    report.gathered_features = rep["gathered_features"]
    report.steps = rep["steps"]
    return int(state["epoch"])


@dataclass
class TrainReport(StatsViewMixin):
    """Trace of one training run; ``eval_s`` is the wall seconds spent
    on the per-epoch evaluation (building its inputs included)."""

    losses: List[float] = field(default_factory=list)
    train_accuracy: List[float] = field(default_factory=list)
    val_accuracy: List[float] = field(default_factory=list)
    gathered_features: int = 0
    steps: int = 0
    eval_s: float = field(default=0.0, compare=False)

    @property
    def final_val_accuracy(self) -> float:
        return self.val_accuracy[-1] if self.val_accuracy else 0.0

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")

    def extra_dict(self) -> Dict[str, Any]:
        return {
            "final_loss": self.final_loss,
            "final_val_accuracy": self.final_val_accuracy,
        }

    def merge(self, other: "TrainReport") -> "TrainReport":
        """Append another run's trace (continuation) to this one."""
        return merge_counters(
            self,
            other,
            sum_fields=("gathered_features", "steps", "eval_s"),
            concat_fields=("losses", "train_accuracy", "val_accuracy"),
        )

    def record_step(
        self,
        loss: float,
        gathered: int,
        obs: Optional[MetricsRegistry] = None,
    ) -> None:
        """Append one optimizer step, mirroring into ``obs`` if given."""
        self.losses.append(loss)
        self.steps += 1
        self.gathered_features += gathered
        if obs is not None:
            obs.counter("gnn.train.steps", "optimizer steps taken").inc()
            obs.counter(
                "gnn.train.gathered_features",
                "feature rows materialized by training",
            ).inc(gathered)
            obs.histogram("gnn.train.loss", "per-step training loss").observe(loss)

    def evaluate(self, model: NodeClassifier, gt: GraphTensors, x: Tensor,
                 labels: np.ndarray, train_mask, val_mask) -> None:
        """Score one epoch with an exact full forward; bill it to ``eval_s``."""
        started = time.perf_counter()
        with no_grad():
            out = model(gt, x).data
        self.train_accuracy.append(accuracy(out, labels, train_mask))
        if val_mask is not None:
            self.val_accuracy.append(accuracy(out, labels, val_mask))
        self.eval_s += time.perf_counter() - started


def eval_inputs(graph_or_handle, features: Optional[np.ndarray],
                report: TrainReport) -> Tuple[GraphTensors, Tensor]:
    """The sampled trainers' evaluation inputs: the whole graph's tensors
    and feature rows, built once per training call (the graph is fixed
    while training) and billed to ``report.eval_s``."""
    started = time.perf_counter()
    handle = as_handle(graph_or_handle)
    rows = FeatureFetcher(handle, features=features).fetch(
        np.arange(handle.num_vertices)
    )
    inputs = GraphTensors(handle), Tensor(rows)
    report.eval_s += time.perf_counter() - started
    return inputs


def train_full_graph(
    model: NodeClassifier,
    graph_or_handle,
    *,
    labels: np.ndarray,
    train_mask: np.ndarray,
    val_mask: Optional[np.ndarray] = None,
    features: Optional[np.ndarray] = None,
    epochs: int = 50,
    lr: float = 0.01,
    obs: Optional[MetricsRegistry] = None,
    injector: Optional[FaultInjector] = None,
    snapshots: Optional[SnapshotStore] = None,
    checkpoint_every: Optional[int] = None,
    tracer: Optional[Tracer] = None,
) -> TrainReport:
    """Full-graph training with masked cross-entropy.

    ``graph_or_handle`` takes a :class:`Graph`, any
    :class:`~repro.graph.store.GraphHandle`, or a store-directory path;
    when ``features`` is omitted they are pulled from the handle's
    feature shards (``handle.features()``).

    With an ``injector``, ``fail_epoch`` faults crash the loop at the
    start of that epoch; training resumes from the latest ``gnn``
    snapshot (weights + Adam moments + epoch), replaying the epochs
    since.  ``checkpoint_every`` sets the snapshot cadence (a baseline
    is always taken before epoch 0 when resilience is on).
    """
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")
    handle = as_handle(graph_or_handle)
    if features is None:
        features = FeatureFetcher(handle).fetch(np.arange(handle.num_vertices))
    return _full_graph_loop(
        model, handle, features, labels, train_mask, val_mask, epochs, lr,
        _sync_step, obs=obs, injector=injector, snapshots=snapshots,
        checkpoint_every=checkpoint_every, tracer=tracer,
    )


def _backward_loss(
    logits: Tensor, labels: np.ndarray, train_idx: np.ndarray
) -> float:
    """Masked cross-entropy of ``logits``, back-propagated; its value."""
    loss = logits.gather_rows(train_idx).cross_entropy(labels[train_idx])
    loss.backward()
    return float(loss.data)


def _sync_step(model, gt, x, labels, train_idx) -> float:
    """The plain synchronous full-graph step: forward, loss, backward."""
    return _backward_loss(model(gt, x), labels, train_idx)


def _full_graph_loop(
    model: NodeClassifier,
    graph_or_handle,
    features: np.ndarray,
    labels: np.ndarray,
    train_mask: np.ndarray,
    val_mask: Optional[np.ndarray],
    epochs: int,
    lr: float,
    step: Callable[..., float],
    obs: Optional[MetricsRegistry] = None,
    injector: Optional[FaultInjector] = None,
    snapshots: Optional[SnapshotStore] = None,
    checkpoint_every: Optional[int] = None,
    tracer: Optional[Tracer] = None,
) -> TrainReport:
    """The one full-graph node-classification epoch loop.

    Every full-graph trainer is this loop plus a
    ``step(model, gt, x, labels, train_idx) -> loss``.  The loop zeroes
    the gradients before the step; the step must leave the gradients of
    the update on ``model.parameters()`` (and the parameters at their
    current values) and return the training loss.  The loop then
    applies Adam, records the step and evaluates on the exact features.
    Step-private state (snapshots, residuals, RNGs) lives in the step's
    closure and is *not* checkpointed, so only :func:`train_full_graph`
    passes the resilience arguments.
    """
    gt = GraphTensors(graph_or_handle)
    x = Tensor(features)
    optimizer = Adam(model.parameters(), lr=lr)
    report = TrainReport()
    train_idx = np.nonzero(train_mask)[0]
    resilient = injector is not None or checkpoint_every is not None
    if snapshots is None and resilient:
        snapshots = SnapshotStore(obs=obs)
    if snapshots is not None:
        snapshots.save(
            SNAPSHOT_TAG, 0, _training_state(0, model, optimizer, report)
        )
    epoch = 0
    while epoch < epochs:
        if injector is not None and injector.take_epoch_failure(epoch):
            assert snapshots is not None
            state = snapshots.restore_latest(SNAPSHOT_TAG)
            resumed = _restore_training_state(state, model, optimizer, report)
            if tracer is not None:
                with tracer.span(
                    "resilience.recover",
                    engine="gnn",
                    epoch=epoch,
                    replayed=epoch - resumed,
                ):
                    pass
            epoch = resumed
            continue
        optimizer.zero_grad()
        loss = step(model, gt, x, labels, train_idx)
        optimizer.step()
        report.record_step(loss, gt.num_vertices, obs=obs)
        report.evaluate(model, gt, x, labels, train_mask, val_mask)
        epoch += 1
        if (
            snapshots is not None
            and checkpoint_every is not None
            and epoch % checkpoint_every == 0
        ):
            snapshots.save(
                SNAPSHOT_TAG,
                epoch,
                _training_state(epoch, model, optimizer, report),
            )
    return report


def train_epoch(
    loader: "MiniBatchLoader",
    model: NodeClassifier,
    optimizer: Adam,
    labels: np.ndarray,
    report: TrainReport,
    obs: Optional[MetricsRegistry] = None,
) -> None:
    """One pass over ``loader`` — the step every sampled trainer runs.

    The epoch is closed however the pass ends, so a raising step never
    strands the loader's prefetch thread.
    """
    with closing(loader.epoch()) as batches:
        for mb in batches:
            t0 = time.perf_counter()
            optimizer.zero_grad()
            logits = model(mb.gt, Tensor(mb.x))
            seed_logits = logits.gather_rows(mb.seed_local)
            loss = seed_logits.cross_entropy(labels[mb.node_ids[mb.seed_local]])
            loss.backward()
            optimizer.step()
            mb.record_compute(time.perf_counter() - t0)
            report.record_step(float(loss.data), mb.gathered_nodes, obs=obs)


def train_sampled(
    model: NodeClassifier,
    graph_or_handle,
    *,
    labels: np.ndarray,
    train_mask: np.ndarray,
    val_mask: Optional[np.ndarray] = None,
    features: Optional[np.ndarray] = None,
    epochs: int = 10,
    batch_size: int = 64,
    fanouts: Sequence[int] = (10, 10),
    lr: float = 0.01,
    seed: int = 0,
    obs: Optional[MetricsRegistry] = None,
    prefetch: int = 0,
    cache=None,
    loader: Optional["MiniBatchLoader"] = None,
    tracer=None,
) -> TrainReport:
    """Mini-batch training over the staged GraphBolt-style dataloader.

    The loss is computed on the batch seeds only; each block is a small
    graph, so a step's work (and feature-gather volume) is independent
    of ``|V|`` — the bound that makes the industrial systems scale.
    Like :func:`train_full_graph`, ``graph_or_handle`` accepts a graph,
    handle, or store path; when ``features`` is omitted each block's
    rows are pulled from the handle's feature shards, never the whole
    matrix.

    Batches come from a :class:`~repro.gnn.dataloader.MiniBatchLoader`
    (pass ``prefetch``/``cache`` to configure it, or hand in a prebuilt
    ``loader`` to inspect its schedule/cache reports afterwards); at
    fixed ``seed`` the losses are the same with prefetch on or off.

    Each epoch is scored **exactly**, like :func:`train_full_graph`: one
    full forward over inputs built once per call (:func:`eval_inputs`),
    which draws no random numbers, so the training stream and its losses
    are untouched.
    """
    handle = as_handle(graph_or_handle)
    optimizer = Adam(model.parameters(), lr=lr)
    report = TrainReport()
    if loader is None:
        loader = MiniBatchLoader(
            handle,
            items=np.nonzero(train_mask)[0],
            batch_size=batch_size,
            fanouts=fanouts,
            features=features,
            seed=seed,
            cache=cache,
            prefetch=prefetch,
            obs=obs,
            tracer=tracer,
        )
    gt, x = eval_inputs(handle, features, report)
    for _ in range(epochs):
        train_epoch(loader, model, optimizer, labels, report, obs=obs)
        report.evaluate(model, gt, x, labels, train_mask, val_mask)
    return report
