"""Historical-embedding training (Sancus made operational).

Sancus [30] avoids communication in decentralized full-graph GNN
training by letting workers compute with **historical embeddings** —
cached copies of remote vertices' hidden states — and broadcasting
fresh ones only when they have drifted enough.

:func:`train_historical` is the full-graph loop with the gated halo
step of :mod:`repro.gnn.staleness`: remote (halo) vertices' layer-1
activations come from a snapshot, and per epoch a
:class:`~repro.gnn.staleness.SancusGate` on their relative L2 drift
decides whether to **broadcast** (refresh the snapshot, pay halo bytes)
or **skip** (train on the stale rows for free).  The staleness is real,
not accounting: threshold 0 broadcasts every epoch and is *exactly* the
synchronous trajectory (asserted in tests); larger thresholds bias the
gradient.  :class:`HistoricalReport` carries the trace plus
broadcast/skip counts and halo bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..graph.csr import Graph
from ..graph.partition import Partition
from .distributed import halo_mask
from .models import NodeClassifier
from .staleness import SancusGate, _gated_halo_step
from .train import TrainReport, _full_graph_loop

__all__ = ["HistoricalReport", "train_historical"]


@dataclass
class HistoricalReport:
    """Outcome of one historical-embedding training run."""

    report: TrainReport
    broadcasts: int = 0
    skips: int = 0
    halo_bytes: int = 0

    @property
    def refresh_fraction(self) -> float:
        total = self.broadcasts + self.skips
        return self.broadcasts / total if total else 1.0


def train_historical(
    model: NodeClassifier,
    graph: Graph,
    partition: Partition,
    features: np.ndarray,
    labels: np.ndarray,
    train_mask: np.ndarray,
    val_mask: Optional[np.ndarray] = None,
    drift_threshold: float = 0.05,
    epochs: int = 40,
    lr: float = 0.01,
) -> HistoricalReport:
    """Sancus-style training with gated historical halo embeddings.

    ``drift_threshold=0`` refreshes every epoch and reproduces plain
    synchronous full-graph training exactly; larger thresholds skip
    more broadcasts at the price of gradient bias.
    """
    remote = halo_mask(graph, partition)
    # The gate watches the remote layer-1 rows, which drift every epoch
    # as the weights move.
    gate = SancusGate(threshold=drift_threshold)
    report = _full_graph_loop(
        model, graph, features, labels, train_mask, val_mask, epochs, lr,
        _gated_halo_step(remote, gate.should_broadcast),
    )
    hidden_dim = model.layers[0].weight.shape[1]
    return HistoricalReport(
        report=report,
        broadcasts=gate.broadcasts,
        skips=gate.skips,
        halo_bytes=gate.broadcasts * int(remote.sum()) * hidden_dim * 8,
    )
