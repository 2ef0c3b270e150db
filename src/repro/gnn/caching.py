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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Protocol, Sequence

import numpy as np

from ..graph.csr import Graph
from ..lru import LRU
from ..obs import MetricsRegistry, StatsViewMixin, merge_counters
from .sampling import NeighborSampler

__all__ = [
    "FeatureCache",
    "CacheStats",
    "StaticDegreeCache",
    "LRUCache",
    "CacheReport",
    "access_trace_from_sampling",
    "replay",
]


class FeatureCache(Protocol):
    """Minimal cache interface: ``lookup`` returns hit/miss."""

    def lookup(self, vertex: int) -> bool:  # pragma: no cover - protocol
        ...


@dataclass
class CacheStats:
    """A cache's own books, updated on every ``lookup``.

    ``replay`` cross-checks its externally counted hits against these,
    so a cache whose bookkeeping drifts from its behaviour cannot
    produce a plausible-looking :class:`CacheReport`.
    """

    hits: int = 0
    misses: int = 0
    admissions: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def snapshot(self) -> "CacheStats":
        return CacheStats(self.hits, self.misses, self.admissions, self.evictions)


class _CacheObsMixin:
    """Mirror :class:`CacheStats` transitions into ``gnn.cache.*``
    counters (labelled per cache) so hit rates show up in ``analyze
    --json`` instead of only in object state."""

    obs: Optional[MetricsRegistry] = None
    label: str = "cache"

    def _emit(self, metric: str, description: str, amount: int = 1) -> None:
        if self.obs is not None and amount:
            self.obs.counter(f"gnn.cache.{metric}", description).inc(
                amount, cache=self.label
            )


class StaticDegreeCache(_CacheObsMixin):
    """Pin the highest-degree vertices; contents never change."""

    def __init__(
        self,
        graph: Graph,
        capacity: int,
        obs: Optional[MetricsRegistry] = None,
        label: str = "static",
    ) -> None:
        self.capacity = capacity
        self.obs = obs
        self.label = label
        degrees = graph.degrees()
        top = np.argsort(-degrees, kind="stable")[:capacity]
        self._pinned = frozenset(int(v) for v in top)
        self.stats = CacheStats(admissions=len(self._pinned))
        self._emit("admissions", "entries admitted", len(self._pinned))

    def lookup(self, vertex: int) -> bool:
        if vertex in self._pinned:
            self.stats.hits += 1
            self._emit("hits", "feature-cache hits")
            return True
        self.stats.misses += 1
        self._emit("misses", "feature-cache misses")
        return False


class LRUCache(_CacheObsMixin):
    """Least-recently-used cache; misses insert and may evict
    (``capacity <= 0`` admits nothing).  ``stats`` reads the core's books."""

    def __init__(
        self,
        capacity: int,
        obs: Optional[MetricsRegistry] = None,
        label: str = "lru",
    ) -> None:
        self.capacity = capacity
        self.obs = obs
        self.label = label
        self._lru = LRU(capacity)

    @property
    def stats(self) -> CacheStats:
        lru = self._lru
        admissions = lru.misses if self.capacity > 0 else 0
        return CacheStats(lru.hits, lru.misses, admissions, lru.evictions)

    def lookup(self, vertex: int) -> bool:
        if self._lru.get(vertex):
            self._emit("hits", "feature-cache hits")
            return True
        self._emit("misses", "feature-cache misses")
        if self.capacity > 0:
            self._emit("admissions", "entries admitted")
            if self._lru.put(vertex, True):
                self._emit("evictions", "entries evicted")
        return False


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

    def merge(self, other: "CacheReport") -> "CacheReport":
        """Combine replays over the same cache geometry."""
        if other.feature_dim != self.feature_dim:
            raise ValueError("cannot merge reports with differing feature_dim")
        return merge_counters(self, other, sum_fields=("accesses", "hits"))


def access_trace_from_sampling(
    graph: Graph,
    train_nodes: Sequence[int],
    fanouts: Sequence[int],
    batch_size: int,
    epochs: int = 1,
    seed: int = 0,
) -> List[int]:
    """The remote-vertex access sequence of sampled training.

    Every vertex id appearing in a sampled block is one feature access
    (the trainer must materialize its row); the skew of the result is
    what makes caching effective.
    """
    sampler = NeighborSampler(graph, fanouts, seed=seed)
    trace: List[int] = []
    for _ in range(epochs):
        for block in sampler.batches(train_nodes, batch_size):
            trace.extend(int(v) for v in block.node_ids)
    return trace


def replay(
    trace: Iterable[int],
    cache: FeatureCache,
    feature_dim: int = 64,
    obs: Optional[MetricsRegistry] = None,
) -> CacheReport:
    """Run an access trace through a cache.

    If the cache keeps its own :class:`CacheStats`, the externally
    counted hits are cross-checked against the cache's delta over the
    replay — disagreement means the cache's bookkeeping does not match
    its behaviour, and the report would be meaningless.

    ``obs`` receives the replay's own totals (``gnn.cache.accesses``,
    ``gnn.cache.bytes_fetched``).  Hits and misses are the cache's to
    count: build it with the same registry to see them as
    ``gnn.cache.hits{cache=<label>}``.
    """
    before = cache.stats.snapshot() if hasattr(cache, "stats") else None
    accesses = hits = 0
    for v in trace:
        accesses += 1
        if cache.lookup(v):
            hits += 1
    if before is not None:
        own_hits = cache.stats.hits - before.hits
        own_accesses = cache.stats.accesses - before.accesses
        if own_hits != hits or own_accesses != accesses:
            raise RuntimeError(
                f"cache accounting drift: cache recorded {own_hits} hits / "
                f"{own_accesses} accesses, replay observed {hits} / {accesses}"
            )
    report = CacheReport(accesses=accesses, hits=hits, feature_dim=feature_dim)
    if obs is not None:
        obs.counter("gnn.cache.accesses", "feature-cache lookups").inc(accesses)
        obs.counter(
            "gnn.cache.bytes_fetched", "feature bytes fetched on misses"
        ).inc(report.bytes_fetched)
    return report
