"""Distributed data-parallel GNN training over the simulated cluster.

The DistDGL/Euler/AliGraph deployment shape: the graph is partitioned
across workers; every training step each worker

1. **gathers** the features/hidden states of its *halo* (remote vertices
   adjacent to its own) — priced per layer through the
   :class:`~repro.cluster.comm.Network`;
2. computes forward/backward for its own vertices;
3. **synchronizes gradients** (allreduce), also priced.

The computation itself is performed globally (the simulation is
in-process), so with synchronous training the learned model is
bit-identical to single-process full-graph training — tests assert
this — while the traffic statistics faithfully reflect what the chosen
partition would cost on a real cluster.  Bench C8 sweeps partitioners
with exactly this trainer.

``halo_bits`` optionally quantizes the halo features through
:mod:`repro.gnn.quantization` (a *real* lossy effect on training, not
just accounting), which is how bench C10 trades bytes against accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

import numpy as np

from ..cluster.comm import Network
from ..graph.csr import Graph
from ..graph.partition import Partition
from ..obs import MetricsRegistry
from .models import NodeClassifier
from .quantization import (
    ErrorCompensatedQuantizer,
    compressed_nbytes,
    quantize_dequantize,
)
from .tensor import Tensor
from .train import TrainReport, _full_graph_loop, _sync_step

__all__ = ["halo_sets", "halo_mask", "DistributedTrainer"]


def halo_sets(graph: Graph, partition: Partition) -> List[Set[int]]:
    """For each worker, the remote vertices its layer gather must fetch."""
    halos: List[Set[int]] = [set() for _ in range(partition.num_parts)]
    assignment = partition.assignment
    for u, v in graph.edges():
        pu, pv = int(assignment[u]), int(assignment[v])
        if pu != pv:
            halos[pu].add(v)
            halos[pv].add(u)
    return halos


def halo_mask(graph: Graph, partition: Partition) -> np.ndarray:
    """Boolean mask of the vertices in *some* worker's halo — the
    endpoints of cut edges, i.e. the union of :func:`halo_sets`."""
    owner = partition.assignment
    src = np.repeat(np.arange(graph.num_vertices), graph.degrees())
    cut = owner[src] != owner[graph.indices]
    mask = np.zeros(graph.num_vertices, dtype=bool)
    mask[src[cut]] = True
    mask[graph.indices[cut]] = True
    return mask


@dataclass
class DistributedTrainer:
    """Synchronous data-parallel trainer with per-step traffic accounting."""

    model: NodeClassifier
    graph: Graph
    partition: Partition
    features: np.ndarray
    labels: np.ndarray
    lr: float = 0.01
    halo_bits: Optional[int] = None
    error_feedback: bool = False
    grad_bits: Optional[int] = None
    seed: int = 0
    obs: Optional[MetricsRegistry] = None

    def __post_init__(self) -> None:
        if self.obs is None:
            self.obs = MetricsRegistry()
        self.network = Network(self.partition.num_parts, registry=self.obs)
        self._halos = halo_sets(self.graph, self.partition)
        self._remote = halo_mask(self.graph, self.partition)
        self._owner_of = self.partition.assignment
        self._rng = np.random.default_rng(self.seed)
        self._residual: Optional[np.ndarray] = None  # halo error feedback
        self._grad_quantizers: Optional[list] = None  # gradient EF state

    # -- traffic accounting --------------------------------------------------

    def _price_halo_exchange(self, feature_dim: int) -> None:
        """Account one layer's halo feature fetch."""
        for worker, halo in enumerate(self._halos):
            per_owner: Dict[int, int] = {}
            for v in halo:
                owner = int(self._owner_of[v])
                per_owner[owner] = per_owner.get(owner, 0) + 1
            for owner, count in per_owner.items():
                self.network.send(
                    owner, worker, None, tag="halo",
                    nbytes=self._halo_nbytes(count, feature_dim),
                )
        self.network.deliver()
        for worker in range(self.partition.num_parts):
            self.network.receive(worker)

    def _halo_nbytes(self, rows: int, feature_dim: int) -> int:
        """Wire size of ``rows`` feature rows at the configured precision."""
        if self.halo_bits is None:
            return rows * feature_dim * 8
        return compressed_nbytes((rows, feature_dim), self.halo_bits)

    def _price_gradient_sync(self) -> None:
        """Ring allreduce: each worker ships the full gradient twice."""
        total_params = sum(p.data.size for p in self.model.parameters())
        bits = 64 if self.grad_bits is None else self.grad_bits
        k = self.partition.num_parts
        for worker in range(k):
            nxt = (worker + 1) % k
            self.network.send(
                worker, nxt, None, tag="grad-sync",
                nbytes=2 * total_params * bits // 8 * (k - 1) // max(k, 1),
            )
        self.network.deliver()
        for worker in range(k):
            self.network.receive(worker)

    def _maybe_quantize_gradients(self) -> None:
        """Sylvie/EC-Graph gradient compression, with error feedback.

        Each parameter's gradient is replaced by its quantized image
        before the optimizer step — the lossy effect a real compressed
        allreduce would apply — with one error-feedback residual per
        parameter so the quantization error cancels over steps.
        """
        if self.grad_bits is None:
            return
        params = self.model.parameters()
        if self._grad_quantizers is None:
            self._grad_quantizers = [
                ErrorCompensatedQuantizer(bits=self.grad_bits, seed=self.seed + i)
                for i in range(len(params))
            ]
        for p, quantizer in zip(params, self._grad_quantizers):
            if p.grad is not None:
                flat = p.grad.reshape(1, -1)
                p.grad = quantizer.compress(flat).reshape(p.grad.shape)

    # -- the lossy halo (quantization applied to real data) ------------------

    def _maybe_quantize_features(self, features: np.ndarray) -> np.ndarray:
        if self.halo_bits is None or self.halo_bits >= 64:
            return features
        # Vertices whose features cross a partition boundary travel
        # quantized; local rows stay exact.
        out = features.copy()
        if self._residual is None:
            self._residual = np.zeros_like(features)
        payload = features[self._remote] + (
            self._residual[self._remote] if self.error_feedback else 0.0
        )
        deq = quantize_dequantize(payload, self.halo_bits, rng=self._rng)
        if self.error_feedback:
            self._residual[self._remote] = payload - deq
        out[self._remote] = deq
        return out

    # -- training -------------------------------------------------------------

    def train(
        self,
        train_mask: np.ndarray,
        val_mask: Optional[np.ndarray] = None,
        epochs: int = 50,
    ) -> TrainReport:
        # Traffic: one halo exchange per layer input (features, then
        # the hidden widths), then the gradient allreduce.
        halo_dims = [self.features.shape[1]] + [
            layer.weight.shape[1] for layer in self.model.layers[:-1]
        ]

        def step(model, gt, x, labels, train_idx) -> float:
            used = Tensor(self._maybe_quantize_features(x.data))
            loss = _sync_step(model, gt, used, labels, train_idx)
            self._maybe_quantize_gradients()
            for dim in halo_dims:
                self._price_halo_exchange(dim)
            self._price_gradient_sync()
            return loss

        return _full_graph_loop(
            self.model, self.graph, self.features, self.labels, train_mask,
            val_mask, epochs, self.lr, step, obs=self.obs,
        )

    # -- summary ----------------------------------------------------------------

    @property
    def remote_bytes(self) -> int:
        return self.network.stats.bytes_remote

    def bytes_by_tag(self) -> Dict[str, int]:
        return dict(self.network.stats.by_tag)
