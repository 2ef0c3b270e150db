"""Neural subgraph matching and counting.

The tutorial's Section 1 points at GNN-based *approximate* subgraph
search as the bridge between its two topics: neural subgraph matching
(Ying et al. [61], "NeuroMatch") and neural subgraph counting with a
Wasserstein estimator (Wang et al. [40]).  The core idea of [61]:

* embed query and target neighborhoods with a shared GNN;
* train with an **order-embedding** objective — if pattern P is a
  subgraph of target T then ``z_P <= z_T`` coordinate-wise — so
  containment becomes a cheap geometric test
  ``max(0, z_P - z_T) ~ 0``.

:class:`NeuralMatcher` implements exactly that on our numpy GNN stack:

* anchored neighborhood embeddings via a GraphSAGE encoder;
* max-margin order loss on (positive = subgraph, negative = corrupted)
  pairs generated by :func:`make_training_pairs` — with ground truth
  from the *exact* matcher of :mod:`repro.matching`;
* :meth:`predict_contains` — the order-violation test;
* :meth:`count_estimate` — a [40]-flavoured regressor on the same
  embeddings for approximate per-anchor match counting.

Training data never leaves the synthetic-generator + exact-matcher
loop, so tests can measure real precision/recall against ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..graph.csr import Graph
from ..graph.generators import erdos_renyi
from ..matching.backtrack import find_matches, match
from ..matching.pattern import PatternGraph
from .layers import GraphTensors, SAGELayer
from .models import Adam, Module
from .tensor import Tensor, no_grad

__all__ = [
    "OrderEmbedder",
    "NeuralMatcher",
    "make_training_pairs",
    "contains_exact",
]


def contains_exact(target: Graph, pattern: PatternGraph) -> bool:
    """Ground truth via the exact backtracking matcher."""
    return bool(find_matches(target, pattern, limit=1))


class OrderEmbedder(Module):
    """Two-layer GraphSAGE encoder with mean readout into order space.

    Embeddings pass through a final ReLU so they live in the positive
    orthant, where the coordinate-wise order is meaningful.  The
    readout is a *mean* (not a sum): with a sum, any small pattern is
    coordinate-wise below any large target from initialization onward,
    so every order violation is exactly zero and the max-margin loss
    has no gradient — the model must instead learn which *structures*
    dominate which.
    """

    def __init__(self, in_dim: int, hidden_dim: int, out_dim: int, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.layer1 = SAGELayer(in_dim, hidden_dim, rng)
        self.layer2 = SAGELayer(hidden_dim, out_dim, rng)

    def embed(self, graph: Graph) -> Tensor:
        gt = GraphTensors(graph)
        x = Tensor(_structural_features(graph))
        h = self.layer1(gt, x).relu()
        h = self.layer2(gt, h).relu()
        return h.mean(axis=0).reshape(1, -1)


def _structural_features(graph: Graph) -> np.ndarray:
    """Cheap per-vertex features: degree, clustering proxy, constant."""
    n = graph.num_vertices
    deg = graph.degrees().astype(np.float64)
    feats = np.zeros((n, 3))
    feats[:, 0] = deg / max(deg.max(), 1.0)
    feats[:, 1] = np.log1p(deg)
    feats[:, 2] = 1.0
    return feats


@dataclass
class _Pair:
    pattern: Graph
    target: Graph
    label: int  # 1 = subgraph, 0 = not


def make_training_pairs(
    num_pairs: int,
    target_size: int = 14,
    pattern_size: int = 5,
    seed: int = 0,
) -> List[Tuple[Graph, Graph, int]]:
    """Generate (pattern, target, is_subgraph) triples with exact labels.

    Positives: a connected induced chunk of the target (guaranteed
    subgraph).  Negatives: an independent random pattern, kept only if
    the exact matcher confirms non-containment.
    """
    rng = np.random.default_rng(seed)
    out: List[Tuple[Graph, Graph, int]] = []
    attempts = 0
    while len(out) < num_pairs and attempts < num_pairs * 30:
        attempts += 1
        target = erdos_renyi(target_size, 0.25, seed=int(rng.integers(1 << 30)))
        if len(out) % 2 == 0:
            # Positive: take a connected k-vertex subgraph's *edges*.
            start = int(rng.integers(target_size))
            keep = {start}
            frontier = [start]
            while len(keep) < pattern_size and frontier:
                u = frontier.pop(0)
                for w in target.neighbors(u):
                    w = int(w)
                    if w not in keep:
                        keep.add(w)
                        frontier.append(w)
                    if len(keep) == pattern_size:
                        break
            if len(keep) < pattern_size:
                continue
            sub, _ = target.subgraph(sorted(keep))
            if sub.num_edges == 0:
                continue
            try:
                PatternGraph(sub)
            except ValueError:
                continue
            out.append((sub, target, 1))
        else:
            pattern = erdos_renyi(
                pattern_size, 0.55, seed=int(rng.integers(1 << 30))
            )
            try:
                pg = PatternGraph(pattern)
            except ValueError:
                continue
            if pattern.num_edges == 0:
                continue
            if contains_exact(target, pg):
                continue  # accidentally contained: reject
            out.append((pattern, target, 0))
    return out


class NeuralMatcher:
    """Order-embedding subgraph containment + count regression."""

    def __init__(self, dim: int = 16, hidden: int = 24, seed: int = 0) -> None:
        self.encoder = OrderEmbedder(3, hidden, dim, seed=seed)
        self.margin = 0.5
        self.threshold = 0.1
        self.count_weights: Optional[np.ndarray] = None

    # -- containment ----------------------------------------------------------

    def violation(self, pattern: Graph, target: Graph) -> float:
        """Order violation ``|| max(0, z_P - z_T) ||^2`` (0 = contained)."""
        with no_grad():
            z_p = self.encoder.embed(pattern).data[0]
            z_t = self.encoder.embed(target).data[0]
        return float(np.square(np.maximum(z_p - z_t, 0.0)).sum())

    def predict_contains(self, pattern: Graph, target: Graph) -> bool:
        return self.violation(pattern, target) < self.threshold

    def fit(
        self,
        pairs: Sequence[Tuple[Graph, Graph, int]],
        epochs: int = 30,
        lr: float = 0.01,
    ) -> List[float]:
        """Max-margin order-embedding training; returns the loss trace."""
        optimizer = Adam(self.encoder.parameters(), lr=lr)
        losses: List[float] = []
        for _ in range(epochs):
            total = 0.0
            for pattern, target, label in pairs:
                optimizer.zero_grad()
                z_p = self.encoder.embed(pattern)
                z_t = self.encoder.embed(target)
                gap = (z_p - z_t).relu()
                violation = (gap * gap).sum()
                if label == 1:
                    loss = violation
                else:
                    # Push violation above the margin for negatives.
                    loss = (Tensor(self.margin) - violation).relu()
                loss.backward()
                optimizer.step()
                total += float(loss.data)
            losses.append(total / max(len(pairs), 1))
        self._calibrate(pairs)
        return losses

    def _calibrate(self, pairs: Sequence[Tuple[Graph, Graph, int]]) -> None:
        """Pick the violation threshold separating the training labels."""
        scored = sorted(
            (self.violation(p, t), label) for p, t, label in pairs
        )
        best_threshold, best_correct = self.threshold, -1
        values = [s for s, _ in scored]
        candidates = [0.0] + [
            (a + b) / 2 for a, b in zip(values, values[1:])
        ] + [values[-1] + 1.0 if values else 1.0]
        for cand in candidates:
            correct = sum(
                1
                for v, label in scored
                if (v < cand) == bool(label)
            )
            if correct > best_correct:
                best_correct, best_threshold = correct, cand
        self.threshold = best_threshold

    # -- counting ([40]-flavoured regression head) ------------------------------

    def fit_count(
        self,
        graphs: Sequence[Graph],
        pattern: PatternGraph,
        ridge: float = 1e-3,
    ) -> None:
        """Fit a ridge regressor from embeddings to exact match counts."""
        xs, ys = [], []
        for g in graphs:
            with no_grad():
                z = self.encoder.embed(g).data[0]
            xs.append(np.concatenate([z, [1.0]]))
            ys.append(match(g, pattern, restrictions=None))
        x = np.asarray(xs)
        y = np.asarray(ys, dtype=np.float64)
        gram = x.T @ x + ridge * np.eye(x.shape[1])
        self.count_weights = np.linalg.solve(gram, x.T @ y)

    def count_estimate(self, graph: Graph) -> float:
        if self.count_weights is None:
            raise RuntimeError("call fit_count first")
        with no_grad():
            z = self.encoder.embed(graph).data[0]
        return float(np.concatenate([z, [1.0]]) @ self.count_weights)
