"""Distributed mini-batch GNN training (the DistDGL pipeline).

The industrial deployment shape Section 3 describes: the graph is
partitioned across workers; each worker samples mini-batch blocks from
its local training vertices; the block's *feature rows* are fetched —
locally when the owner is the sampling worker, over the network
otherwise — optionally through a per-worker feature cache.  This is
where the tutorial's three "graph data communication" techniques
(partitioning, sampling, caching) compose, and this trainer runs all
three against one model with every byte priced:

* partitioning decides which rows are remote (C8);
* fanouts bound how many rows a step touches (C7);
* the cache absorbs repeat fetches of hot vertices (C13).

The learning itself is standard sampled training (same math as
:func:`repro.gnn.train.train_sampled`), so quality is real, and the
:class:`~repro.cluster.comm.Network` carries the feature traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..cluster.comm import Network
from ..graph.csr import Graph
from ..graph.partition import Partition
from .caching import LRUCache, StaticDegreeCache
from .dataloader import FeatureFetcher, MiniBatchLoader
from .models import Adam, NodeClassifier
from .train import TrainReport, eval_inputs, train_epoch

__all__ = ["DistributedSampledTrainer"]

_CACHE_POLICIES = {
    "degree": StaticDegreeCache,  # AliGraph
    "lru": lambda graph, capacity: LRUCache(capacity),  # BGL
}


@dataclass
class DistributedSampledTrainer:
    """DistDGL-style trainer: partition + sampling + feature cache.

    One ``MiniBatchLoader`` per worker over that worker's training
    vertices, each with its own owner-aware ``FeatureFetcher`` (cache +
    the shared network); all loaders draw from one seeded generator.
    """

    model: NodeClassifier
    graph: Graph
    partition: Partition
    features: np.ndarray
    labels: np.ndarray
    fanouts: Sequence[int] = (5, 5)
    batch_size: int = 32
    lr: float = 0.01
    cache_capacity: int = 0
    cache_policy: str = "degree"  # "degree" (AliGraph) or "lru" (BGL)
    seed: int = 0

    def __post_init__(self) -> None:
        num_parts = self.partition.num_parts
        self.network = Network(num_parts)
        self._optimizer = Adam(self.model.parameters(), lr=self.lr)
        self._rng = np.random.default_rng(self.seed)
        caches = [None] * num_parts
        if self.cache_capacity > 0:
            if self.cache_policy not in _CACHE_POLICIES:
                raise ValueError(f"unknown cache policy {self.cache_policy!r}")
            make = _CACHE_POLICIES[self.cache_policy]
            caches = [make(self.graph, self.cache_capacity) for _ in range(num_parts)]
        self._fetchers = [
            FeatureFetcher(
                features=self.features,
                cache=cache,
                assignment=self.partition.assignment,
                worker=worker,
                network=self.network,
            )
            for worker, cache in enumerate(caches)
        ]

    def train(
        self,
        train_mask: np.ndarray,
        val_mask: Optional[np.ndarray] = None,
        epochs: int = 5,
    ) -> TrainReport:
        report = TrainReport()
        train_nodes = np.nonzero(train_mask)[0]
        owners = self.partition.assignment[train_nodes]
        # Each worker samples batches from its own training vertices
        # (DistDGL's local-batch policy); we round-robin workers.
        loaders = [
            MiniBatchLoader(
                self.graph,
                items=train_nodes[owners == worker],
                batch_size=self.batch_size,
                fanouts=self.fanouts,
                seed=self._rng,
                fetcher=fetcher,
            )
            for worker, fetcher in enumerate(self._fetchers)
            if np.any(owners == worker)
        ]
        gt, x = eval_inputs(self.graph, self.features, report)
        for _ in range(epochs):
            for loader in loaders:
                train_epoch(
                    loader, self.model, self._optimizer, self.labels, report
                )
            report.evaluate(self.model, gt, x, self.labels, train_mask, val_mask)
        return report

    @property
    def local_rows(self) -> int:
        return sum(f.local_rows for f in self._fetchers)

    @property
    def cache_hits(self) -> int:
        return sum(f.hits for f in self._fetchers)

    @property
    def remote_rows(self) -> int:
        return sum(f.misses for f in self._fetchers)

    @property
    def feature_bytes(self) -> int:
        return self.network.stats.by_tag.get("features", 0)

    @property
    def cache_hit_rate(self) -> float:
        fetches = self.cache_hits + self.remote_rows
        return self.cache_hits / fetches if fetches else 0.0
