"""Asynchronous model synchronization: bounded staleness and friends.

Section 3's "Model Synchronization" techniques:

* **Bounded staleness** (Dorylus [39], P3 [13]) — workers may run up to
  ``s`` steps ahead of the slowest instead of barriering every step.
  :func:`simulate_staleness` runs an event-driven simulation with
  heterogeneous worker speeds and reports makespan/idle time, the
  utilization claim; :func:`train_stale_gradients` additionally applies
  *real* delayed gradients to a shared model so convergence effects are
  measurable, not asserted.

* **Staleness-aware skipping** (Sancus [30]) — broadcast only when the
  parameters/embeddings changed enough; :class:`SancusGate` implements
  the adaptive gate and counts skipped broadcasts.

* **Delayed updates** (DistGNN [27]) — remote (halo) layer-1
  activations are refreshed only every ``r`` epochs;
  :func:`train_delayed_halo` trains a real GCN on the stale copies in
  between (the periodic-gate twin of
  :func:`~repro.gnn.historical.train_historical`) and reports both the
  traffic saved and the accuracy reached.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import count
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from ..graph.csr import Graph
from ..obs import StatsViewMixin
from ..graph.partition import Partition
from .distributed import halo_mask
from .models import NodeClassifier
from .tensor import Tensor
from .train import TrainReport, _backward_loss, _full_graph_loop, _sync_step

__all__ = [
    "StalenessTrace",
    "simulate_staleness",
    "train_stale_gradients",
    "SancusGate",
    "train_delayed_halo",
]


@dataclass
class StalenessTrace(StatsViewMixin):
    """Utilization outcome of one synchronization policy."""

    staleness: int
    makespan: float
    busy_time: float
    idle_time: float
    steps_per_worker: int

    @property
    def utilization(self) -> float:
        total = self.busy_time + self.idle_time
        return self.busy_time / total if total else 1.0

    def extra_dict(self) -> Dict[str, Any]:
        return {"utilization": self.utilization}


def simulate_staleness(
    num_workers: int,
    steps: int,
    staleness: int,
    speed_spread: float = 0.5,
    seed: int = 0,
) -> StalenessTrace:
    """Event-driven SSP simulation with heterogeneous step times.

    Worker ``w``'s step durations are ``1 + spread * U[0,1)`` (plus a
    persistent per-worker speed factor).  Under the stale synchronous
    parallel rule, a worker may start step ``t`` only when the slowest
    worker has finished step ``t - staleness``; ``staleness=0`` is BSP.
    """
    rng = np.random.default_rng(seed)
    base_speed = 1.0 + speed_spread * rng.random(num_workers)
    durations = base_speed[:, None] * (
        1.0 + speed_spread * rng.random((num_workers, steps))
    )
    finish = np.zeros((num_workers, steps))
    barrier = np.zeros(steps)  # barrier[t] = time all workers finished step t
    busy = float(durations.sum())
    idle = 0.0
    for t in range(steps):
        # SSP rule: step t may start only after every worker finished
        # step t - 1 - staleness (s = 0 is a per-step barrier).
        gate_step = t - 1 - staleness
        gate = barrier[gate_step] if gate_step >= 0 else 0.0
        for w in range(num_workers):
            prev = finish[w, t - 1] if t > 0 else 0.0
            start = max(prev, gate)
            idle += start - prev
            finish[w, t] = start + durations[w, t]
        barrier[t] = finish[:, t].max()
    return StalenessTrace(
        staleness=staleness,
        makespan=float(finish[:, -1].max()),
        busy_time=busy,
        idle_time=float(idle),
        steps_per_worker=steps,
    )


def train_stale_gradients(
    model: NodeClassifier,
    graph: Graph,
    features: np.ndarray,
    labels: np.ndarray,
    train_mask: np.ndarray,
    val_mask: Optional[np.ndarray] = None,
    staleness: int = 2,
    epochs: int = 30,
    lr: float = 0.01,
) -> TrainReport:
    """Training where each applied gradient is ``staleness`` steps old.

    Models the pipeline effect of bounded staleness on convergence: the
    gradient applied at step ``t`` was computed against the parameters
    of step ``t - staleness``.  With ``staleness=0`` this is exact
    synchronous training.
    """
    # history[0] holds the parameters of step max(0, t - staleness).
    history: Deque[List[np.ndarray]] = deque(maxlen=staleness + 1)

    def step(model, gt, x, labels, train_idx) -> float:
        history.append(model.state_dict())
        # Compute the gradient at the stale parameters...
        model.load_state_dict(history[0])
        loss = _sync_step(model, gt, x, labels, train_idx)
        # ...then apply it to the current ones (loading leaves .grad).
        model.load_state_dict(history[-1])
        return loss

    return _full_graph_loop(
        model, graph, features, labels, train_mask, val_mask, epochs, lr, step
    )


@dataclass
class SancusGate:
    """Sancus's staleness-aware broadcast gate.

    ``should_broadcast(embedding)`` returns True when the L2 change
    since the last broadcast exceeds ``threshold`` (relative to the
    last-broadcast norm); otherwise peers keep using the stale copy and
    a skip is recorded.
    """

    threshold: float = 0.05
    broadcasts: int = 0
    skips: int = 0

    def __post_init__(self) -> None:
        self._last: Optional[np.ndarray] = None

    def should_broadcast(self, value: np.ndarray) -> bool:
        value = np.asarray(value, dtype=np.float64)
        if self._last is None:
            self._last = value.copy()
            self.broadcasts += 1
            return True
        denom = np.linalg.norm(self._last) + 1e-12
        change = np.linalg.norm(value - self._last) / denom
        if change > self.threshold:
            self._last = value.copy()
            self.broadcasts += 1
            return True
        self.skips += 1
        return False


def _gated_halo_step(
    remote: np.ndarray, refresh: Callable[[np.ndarray], bool]
) -> Callable[..., float]:
    """Full-graph step whose remote layer-1 rows are a gated snapshot.

    Every epoch ``refresh(live remote rows)`` decides (the first call
    must say yes).  On a refresh peers get fresh rows and gradients
    flow everywhere (the refresh carries the backward halo too);
    otherwise the ``remote`` rows come from the snapshot as constants —
    no forward *or* backward halo traffic — and are stale by however
    far the weights have moved since.
    """
    remote_mask = remote.reshape(-1, 1).astype(np.float64)
    local_mask = 1.0 - remote_mask
    snapshot: Optional[np.ndarray] = None

    def step(model, gt, x, labels, train_idx) -> float:
        nonlocal snapshot
        h = model.forward_layer(0, gt, x)
        if refresh(h.data[remote]):
            snapshot = h.data * remote_mask
        else:
            h = h * local_mask + Tensor(snapshot)
        for i in range(1, model.num_layers):
            h = model.forward_layer(i, gt, h)
        return _backward_loss(h, labels, train_idx)

    return step


def train_delayed_halo(
    model: NodeClassifier,
    graph: Graph,
    partition: Partition,
    features: np.ndarray,
    labels: np.ndarray,
    train_mask: np.ndarray,
    val_mask: Optional[np.ndarray] = None,
    refresh_every: int = 4,
    epochs: int = 40,
    lr: float = 0.01,
) -> Tuple[TrainReport, int, int]:
    """DistGNN-style delayed halo updates, with real staleness.

    Remote (halo) vertices' layer-1 activations are refreshed from
    their owners only every ``refresh_every`` epochs; in between, every
    worker computes with its cached copy, which goes stale as the
    weights move (DistGNN's cd-0/cd-r family).  ``refresh_every=1`` is
    exact synchronous training.

    Returns ``(report, halo_exchanges_done, halo_exchanges_saved)``.
    """
    epoch = count()
    step = _gated_halo_step(
        halo_mask(graph, partition),
        lambda _live: next(epoch) % refresh_every == 0,
    )
    report = _full_graph_loop(
        model, graph, features, labels, train_mask, val_mask, epochs, lr, step
    )
    exchanges = len(range(0, epochs, refresh_every))
    return report, exchanges, epochs - exchanges
