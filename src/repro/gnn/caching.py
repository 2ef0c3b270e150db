"""Feature caching of hot vertices (AliGraph / BGL).

Remote feature fetches dominate sampled GNN training, and vertex access
frequencies are as skewed as the degree distribution, so both AliGraph
[73] (static cache of "important" vertices) and BGL [22] (dynamic
cache) put a feature cache in front of the network:

* :class:`StaticDegreeCache` — pin the top-capacity vertices by degree
  (AliGraph's importance heuristic);
* :class:`LRUCache` — classic dynamic recency cache (BGL-style);
* :func:`access_trace_from_sampling` — generate a realistic access
  trace by running the neighbor sampler over training batches;
* :func:`replay` — run a trace through a cache and report hit rate and
  bytes saved, the quantities bench C13 sweeps against capacity.

A cache only answers: ``lookup_many(ids)`` returns the hit mask of a
whole batch of ids, with exactly the outcome of asking for each id in
turn (duplicates and recency order alike) — one ``pinned[ids]`` read for
the static cache, one :meth:`~repro.lru.LRU.get_or_put_many` loop for the
LRU.  The code that asks keeps the count: ``FeatureFetcher`` in the
loader (``gnn.loader.*``), :func:`replay` on the trace path
(``CacheReport``, ``gnn.cache.*``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Protocol, Sequence

import numpy as np

from ..graph.csr import Graph
from ..lru import LRU
from ..obs import MetricsRegistry, StatsViewMixin
from .sampling import NeighborSampler

__all__ = [
    "FeatureCache",
    "StaticDegreeCache",
    "LRUCache",
    "CacheReport",
    "access_trace_from_sampling",
    "replay",
]


class FeatureCache(Protocol):
    """Minimal cache interface: the hit mask of a batch of ids."""

    def lookup_many(self, ids: np.ndarray) -> np.ndarray:  # pragma: no cover
        ...


class StaticDegreeCache:
    """Pin the highest-degree vertices as a resident ``bool[n]`` mask;
    contents never change (``capacity <= 0`` pins nothing)."""

    def __init__(self, graph: Graph, capacity: int) -> None:
        self.pinned = np.zeros(graph.num_vertices, dtype=bool)
        if capacity > 0:
            order = np.argsort(-graph.degrees(), kind="stable")
            self.pinned[order[:capacity]] = True

    def lookup_many(self, ids: np.ndarray) -> np.ndarray:
        return self.pinned[np.asarray(ids, dtype=np.int64)]


class LRUCache:
    """Least-recently-used cache; misses insert and may evict
    (``capacity <= 0`` admits nothing).  ``hits`` / ``misses`` /
    ``evictions`` read the :class:`~repro.lru.LRU` core's books."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._lru = LRU(capacity)

    @property
    def hits(self) -> int:
        return self._lru.hits

    @property
    def misses(self) -> int:
        return self._lru.misses

    @property
    def evictions(self) -> int:
        return self._lru.evictions

    @property
    def admissions(self) -> int:
        """Every miss is admitted, unless the cache admits nothing."""
        return self._lru.misses if self.capacity > 0 else 0

    def lookup_many(self, ids: np.ndarray) -> np.ndarray:
        keys = np.asarray(ids, dtype=np.int64).tolist()
        return np.array(
            self._lru.get_or_put_many(keys, True, self.capacity > 0), dtype=bool
        )


@dataclass
class CacheReport(StatsViewMixin):
    """Replay outcome."""

    accesses: int
    hits: int
    feature_dim: int
    bytes_per_value: int = 8

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def bytes_fetched(self) -> int:
        return (self.accesses - self.hits) * self.feature_dim * self.bytes_per_value

    @property
    def bytes_saved(self) -> int:
        return self.hits * self.feature_dim * self.bytes_per_value

    def extra_dict(self) -> Dict[str, Any]:
        return {
            "hit_rate": self.hit_rate,
            "bytes_fetched": self.bytes_fetched,
            "bytes_saved": self.bytes_saved,
        }


def access_trace_from_sampling(
    graph: Graph,
    train_nodes: Sequence[int],
    fanouts: Sequence[int],
    batch_size: int,
    epochs: int = 1,
    seed: int = 0,
) -> np.ndarray:
    """The remote-vertex access sequence of sampled training (int64).

    Every vertex id appearing in a sampled block is one feature access
    (the trainer must materialize its row); the skew of the result is
    what makes caching effective.
    """
    from .dataloader import ItemSampler  # the loader imports this module

    sampler = NeighborSampler(graph, fanouts, seed=seed)
    items = ItemSampler(train_nodes, batch_size)
    blocks = [
        sampler.sample(seeds).node_ids
        for _ in range(epochs)
        for seeds in items.batches(sampler.rng)
    ]
    return np.concatenate([np.empty(0, dtype=np.int64), *blocks])


def replay(
    trace: Iterable[int],
    cache: FeatureCache,
    feature_dim: int = 64,
    obs: Optional[MetricsRegistry] = None,
) -> CacheReport:
    """Run an access trace through a cache, as one ``lookup_many`` call,
    and count what it answered.

    ``obs`` receives the replay's totals (``gnn.cache.accesses``,
    ``gnn.cache.hits``, ``gnn.cache.bytes_fetched``).
    """
    trace = np.asarray(
        trace if isinstance(trace, np.ndarray) else list(trace), dtype=np.int64
    )
    hits = int(np.count_nonzero(cache.lookup_many(trace)))
    report = CacheReport(accesses=int(trace.size), hits=hits, feature_dim=feature_dim)
    if obs is not None:
        obs.counter("gnn.cache.accesses", "feature-cache lookups").inc(report.accesses)
        obs.counter("gnn.cache.hits", "feature-cache hits").inc(hits)
        obs.counter(
            "gnn.cache.bytes_fetched", "feature bytes fetched on misses"
        ).inc(report.bytes_fetched)
    return report
